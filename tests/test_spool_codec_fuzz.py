"""Property tests for the spool chunk codec and canonical reassembly.

The spool's on-disk format is the io_binary framing inside ``.npz``
archives; these tests fuzz the full round trip (rows → columns → chunk
file → columns) over adversarial record populations — empty chunks,
maximum-size EDNS payloads, zero-bufsize (no-OPT) queries, mixed v4/v6
address extremes, and non-ASCII names and server ids — and pin down the reassembly invariant that
``SpooledCapture.view()``, over chunk files and resident chunks alike,
equals a plain stable sort of the row tuples on ``(timestamp, server_id)``.
"""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.capture import (
    CaptureSpool,
    CaptureStore,
    QueryRecord,
    SpooledCapture,
    Transport,
)
from repro.capture.io_binary import _decode_strings, _encode_strings
from repro.capture.spool import chunk_name, read_chunk, write_chunk
from repro.netsim import IPAddress

from .helpers import assert_views_equal

record_st = st.builds(
    lambda ts, server, fam, val, transport, qname, qtype, rcode, bufsize,
    do_bit, size, truncated, rtt: QueryRecord(
        timestamp=ts,
        server_id=server,
        src=IPAddress(fam, val % (2**32 if fam == 4 else 2**128)),
        transport=Transport.TCP if transport else Transport.UDP,
        qname=qname,
        qtype=qtype,
        rcode=rcode,
        edns_bufsize=bufsize,
        do_bit=do_bit,
        response_size=size,
        truncated=truncated,
        tcp_rtt_ms=(rtt if transport else None),
    ),
    st.floats(0, 1e9, allow_nan=False),
    st.sampled_from(["nl-a", "nl-b", "nz-u", "b-root", "nz-ü"]),
    st.sampled_from([4, 6]),
    st.integers(0, 2**128 - 1),
    st.booleans(),
    # Punycode is ASCII; the raw names take the string pool's non-ASCII path.
    st.sampled_from([
        "nl.", "example.nl.", "a.very.deep.chain.example.nl.", "xn--caf-dma.nz.",
        "café.nz.", "例え.jp.",
    ]),
    st.integers(1, 65535),
    st.integers(0, 23),
    # Exercise the full EDNS0 range: 0 (no OPT) through the 0xFFFF maximum.
    st.sampled_from([0, 512, 1232, 4096, 0xFFFF]),
    st.booleans(),
    st.integers(0, 2**32 - 1),
    st.booleans(),
    st.floats(0.01, 2000.0),
)


def records_to_view(records):
    store = CaptureStore()
    store.extend(records)
    return store.view()


def per_string_encode(values):
    """The string pool as first defined: each string encoded on its own,
    offsets summed one by one."""
    encoded = [str(v).encode("utf-8") for v in values]
    offsets = np.zeros(len(encoded) + 1, dtype=np.int64)
    for i, blob in enumerate(encoded):
        offsets[i + 1] = offsets[i] + len(blob)
    return np.frombuffer(b"".join(encoded), dtype=np.uint8), offsets


class TestStringPool:
    """The one-buffer codec writes the bytes the per-string one wrote, on
    ASCII and non-ASCII columns alike, and reads them back."""

    @staticmethod
    def assert_pool_matches(values):
        pool, offsets = _encode_strings(values)
        reference_pool, reference_offsets = per_string_encode(values)
        assert pool.dtype == np.uint8 and offsets.dtype == np.int64
        assert pool.tobytes() == reference_pool.tobytes()
        assert offsets.tobytes() == reference_offsets.tobytes()
        assert _decode_strings(pool, offsets).tolist() == list(values)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.text(max_size=10), max_size=40))
    def test_any_text_column(self, strings):
        values = np.empty(len(strings), dtype=object)
        values[:] = strings
        self.assert_pool_matches(values)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(record_st, max_size=50))
    def test_capture_columns(self, records):
        view = records_to_view(records)
        for column in ("server_id", "qname"):
            self.assert_pool_matches(getattr(view, column))

    @pytest.mark.parametrize(
        "qnames",
        [["example.nl.", "nl."], ["café.nz.", "nl.", "例え.jp.", ""], []],
        ids=["ascii", "non-ascii", "empty"],
    )
    def test_chunk_round_trip(self, qnames):
        view = records_to_view([
            QueryRecord(
                timestamp=float(i), server_id="nz-ü" if i % 2 else "nl-a",
                src=IPAddress(4, i + 1), transport=Transport.UDP, qname=qname,
                qtype=1, rcode=0,
            )
            for i, qname in enumerate(qnames)
        ])
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / chunk_name(0, 0)
            write_chunk(path, view)
            loaded = read_chunk(path)
        assert loaded.qname.tolist() == qnames
        assert_views_equal(view, loaded)


class TestChunkRoundTrip:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(record_st, max_size=50))
    def test_write_read_round_trip(self, records):
        view = records_to_view(records)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / chunk_name(0, 0)
            size = write_chunk(path, view)
            assert size == path.stat().st_size > 0
            assert_views_equal(view, read_chunk(path))

    @settings(max_examples=30, deadline=None)
    @given(st.lists(record_st, max_size=60))
    def test_view_to_rows_round_trips(self, records):
        """``CaptureView.to_rows`` inverts ``CaptureStore.rows_to_view``."""
        view = records_to_view(records)
        assert_views_equal(view, CaptureStore.rows_to_view(view.to_rows()))

    def test_empty_chunk_round_trip(self):
        view = records_to_view([])
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / chunk_name(0, 0)
            write_chunk(path, view)
            loaded = read_chunk(path)
            assert len(loaded) == 0
            assert_views_equal(view, loaded)

    def test_max_edns_payload_survives_exactly(self):
        records = [
            QueryRecord(
                timestamp=1.0, server_id="nl-a",
                src=IPAddress(6, 2**128 - 1),
                transport=Transport.UDP, qname="example.nl.", qtype=1,
                rcode=0, edns_bufsize=0xFFFF, do_bit=True,
                response_size=2**32 - 1, truncated=True,
            ),
            QueryRecord(
                timestamp=2.0, server_id="nl-a",
                src=IPAddress(4, 2**32 - 1),
                transport=Transport.UDP, qname="example.nl.", qtype=1,
                rcode=0, edns_bufsize=0,
            ),
        ]
        view = records_to_view(records)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / chunk_name(3, 7)
            write_chunk(path, view)
            loaded = read_chunk(path)
        assert list(loaded.edns_bufsize) == [0xFFFF, 0]
        assert int(loaded.response_size[0]) == 2**32 - 1
        assert int(loaded.src_hi[0]) == 2**64 - 1 and int(loaded.src_lo[0]) == 2**64 - 1
        assert_views_equal(view, loaded)


class TestSpoolProperties:
    @settings(max_examples=25, deadline=None)
    @given(st.lists(record_st, max_size=60), st.integers(1, 9))
    def test_chunking_preserves_rows_and_order(self, records, chunk_rows):
        with tempfile.TemporaryDirectory() as tmp:
            spool = CaptureSpool(directory=tmp, chunk_rows=chunk_rows)
            spool.append_view(records_to_view(records))
            spool.flush()
            assert len(spool) == len(records)
            assert spool.rows_spooled == len(records)
            chunks = list(spool.iter_views())
            assert all(len(c) <= chunk_rows for c in chunks)
            assert spool.chunk_row_counts() == [len(c) for c in chunks]
            # Concatenated chunks reproduce the store's rows in append order.
            if records:
                merged_ts = np.concatenate([c.timestamp for c in chunks])
                assert np.array_equal(
                    merged_ts, np.asarray([r.timestamp for r in records])
                )
            spool.cleanup()
            assert len(spool) == 0

    @settings(max_examples=25, deadline=None)
    @given(st.lists(record_st, max_size=60), st.integers(1, 9))
    def test_spooled_view_equals_canonical_sort(self, records, chunk_rows):
        """The reassembly invariant behind streaming/in-memory parity:
        materialising a spool — from chunk files or from resident chunks —
        is bit-identical to a stable sort of the row tuples."""
        view = records_to_view(records)
        reference = CaptureStore.rows_to_view(
            sorted(view.to_rows(), key=lambda row: (row[0], row[1]))
        )
        with tempfile.TemporaryDirectory() as tmp:
            spool = CaptureSpool(directory=tmp, chunk_rows=chunk_rows)
            spool.append_view(view)
            capture = SpooledCapture(spool)
            assert capture.rows_appended == len(records)
            assert_views_equal(reference, capture.view())
            resident = CaptureSpool()
            resident.adopt(list(capture.iter_views()))
            assert_views_equal(reference, SpooledCapture(resident).view())
            capture.cleanup()

    @settings(max_examples=25, deadline=None)
    @given(st.lists(record_st, max_size=60), st.integers(1, 9))
    def test_spool_append_view_preserves_rows_and_order(self, records, chunk_rows):
        source = CaptureStore()
        source.extend(records)
        with tempfile.TemporaryDirectory() as tmp:
            spool = CaptureSpool(directory=tmp, chunk_rows=chunk_rows)
            spool.append_view(source.view())
            spool.flush()
            assert len(spool) == len(records)
            chunks = list(spool.iter_views())
            assert all(len(c) <= chunk_rows for c in chunks)
            if records:
                merged = np.concatenate([c.timestamp for c in chunks])
                assert np.array_equal(merged, source.view().timestamp)
            spool.cleanup()

    def test_spool_append_view_respects_pending_buffer(self):
        """A view arriving while a partial chunk sits in the buffer must
        queue behind it (chunk order is append order)."""
        records = [
            QueryRecord(
                timestamp=float(i), server_id="nl-a", src=IPAddress(4, i + 1),
                transport=Transport.UDP, qname="nl.", qtype=2, rcode=0,
            )
            for i in range(4)
        ]
        with tempfile.TemporaryDirectory() as tmp:
            spool = CaptureSpool(directory=tmp, chunk_rows=100)
            spool.append_view(records_to_view(records[:1]))
            spool.append_view(records_to_view(records[1:]))
            assert len(spool) == 4 and spool.chunk_paths() == []
            spool.flush()
            (chunk,) = spool.iter_views()
            assert list(chunk.timestamp) == [0.0, 1.0, 2.0, 3.0]
            spool.cleanup()

    def test_write_view_lands_behind_a_buffered_tail(self):
        records = [
            QueryRecord(
                timestamp=1.0, server_id="nl-a", src=IPAddress(4, 1),
                transport=Transport.UDP, qname="nl.", qtype=2, rcode=0,
            )
        ]
        with tempfile.TemporaryDirectory() as tmp:
            spool = CaptureSpool(directory=tmp, chunk_rows=100)
            spool.append_view(records_to_view(records))
            with pytest.raises(RuntimeError):
                next(spool.iter_views())       # a partial chunk is buffered
            spool.write_view(records_to_view(records * 2))
            assert [len(chunk) for chunk in spool.iter_views()] == [1, 2]
            spool.cleanup()

    def test_adopt_reads_row_counts_from_metadata(self):
        view = records_to_view(
            [
                QueryRecord(
                    timestamp=float(i), server_id="nl-a", src=IPAddress(4, i + 1),
                    transport=Transport.UDP, qname="nl.", qtype=2, rcode=0,
                )
                for i in range(5)
            ]
        )
        with tempfile.TemporaryDirectory() as tmp:
            writer = CaptureSpool(directory=tmp, chunk_rows=2, shard_index=1)
            writer.append_view(view)
            writer.flush()
            adopter = CaptureSpool(directory=tmp)
            adopter.adopt(writer.chunk_paths())
            assert len(adopter) == 5
            assert adopter.chunk_row_counts() == writer.chunk_row_counts()
