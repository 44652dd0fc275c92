"""Unit tests for binary capture persistence and the changepoint detector."""

import numpy as np
import pytest

from repro.analysis import jump_detector
from repro.capture import CaptureStore, QueryRecord, Transport, read_chunk, write_chunk
from repro.capture.io_binary import MAGIC, read_row_count
from repro.netsim import IPAddress


def make_record(i):
    return QueryRecord(
        timestamp=1000.0 + i,
        server_id=f"srv-{i % 3}",
        src=IPAddress.parse(f"192.0.2.{i % 250}") if i % 2 else IPAddress.parse(f"2001:db8::{i:x}"),
        transport=Transport.TCP if i % 7 == 0 else Transport.UDP,
        qname=f"name-{i}.example.nl.",
        qtype=1 + (i % 5),
        rcode=i % 4,
        edns_bufsize=(512, 1232, 4096)[i % 3],
        do_bit=bool(i % 2),
        response_size=100 + i,
        truncated=bool(i % 11 == 0),
        tcp_rtt_ms=float(i) + 0.5 if i % 7 == 0 else None,
    )


class TestBinaryIO:
    def test_round_trip(self, tmp_path):
        store = CaptureStore()
        store.extend(make_record(i) for i in range(200))
        path = tmp_path / "capture.chunk"
        assert write_chunk(path, store.view()) == path.stat().st_size
        assert read_row_count(path) == 200
        loaded = read_chunk(path)
        original = store.view()
        assert len(loaded) == 200
        for i in (0, 7, 99, 199):
            assert loaded.record(i) == original.record(i)

    def test_columns_usable_for_analysis(self, tmp_path):
        store = CaptureStore()
        store.extend(make_record(i) for i in range(50))
        path = tmp_path / "c.chunk"
        write_chunk(path, store.view())
        view = read_chunk(path)
        # Masks and aggregations behave identically on the reloaded view.
        original = store.view()
        assert (np.unique(view.address_keys()) == np.unique(original.address_keys())).all()
        assert (view.rcode[view.qtype == 1] == original.rcode[original.qtype == 1]).all()

    def test_empty_capture(self, tmp_path):
        path = tmp_path / "empty.chunk"
        write_chunk(path, CaptureStore().view())
        assert read_row_count(path) == 0
        assert len(read_chunk(path)) == 0

    def test_unicode_qnames(self, tmp_path):
        store = CaptureStore()
        record = QueryRecord(
            timestamp=1.0, server_id="s", src=IPAddress.parse("192.0.2.1"),
            transport=Transport.UDP, qname="exámple.nl.", qtype=1, rcode=0,
        )
        store.append(record)
        path = tmp_path / "u.chunk"
        write_chunk(path, store.view())
        assert read_chunk(path).record(0).qname == "exámple.nl."

    def test_version_check(self, tmp_path):
        store = CaptureStore()
        store.append(make_record(1))
        path = tmp_path / "v.chunk"
        write_chunk(path, store.view())
        data = bytearray(path.read_bytes())
        # The version is the little-endian uint16 right after the magic.
        data[len(MAGIC):len(MAGIC) + 2] = (99).to_bytes(2, "little")
        path.write_bytes(bytes(data))
        for read in (read_chunk, read_row_count):
            with pytest.raises(ValueError, match="version 99") as excinfo:
                read(path)
            assert str(path) in str(excinfo.value)


FLAT = [0.05, 0.04, 0.06, 0.05, 0.05]
STEP = FLAT + [0.45, 0.47, 0.46]


class TestChangepoint:
    def test_jump_detector_finds_step(self):
        assert jump_detector(STEP) == 5

    def test_jump_detector_flat_none(self):
        assert jump_detector(FLAT) is None

    def test_jump_detector_respects_floor(self):
        # A doubling below the floor is not a rollout signal.
        assert jump_detector([0.01, 0.01, 0.03]) is None
