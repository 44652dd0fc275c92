"""Property tests for the spool chunk codec and canonical reassembly.

A spilled chunk is one io_binary frame in a ``.chunk`` file: a prefix
with a crc32, a column table and one zlib body.  These tests fuzz the full
round trip (rows → columns → chunk file → columns) over adversarial record
populations — empty chunks, maximum-size EDNS payloads, zero-bufsize
(no-OPT) queries, mixed v4/v6 address extremes, and non-ASCII names and
server ids — and check that what comes back is writable, aligned and of the
written dtypes.  They tear chunks (cut inside the prefix, the table or the
body; flip any one bit; write a foreign magic or another version) and
require a ``ValueError`` naming the file every time; they fail writes
(a full disk, a failed rename) and require that no temp file is left; and
they pin down the reassembly invariant that ``SpooledCapture.view()``, over
chunk files and resident chunks alike, equals a plain stable sort of the
row tuples on ``(timestamp, server_id)``.
"""

import errno
import io
import os
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
from repro.capture import io_binary
from repro.capture.io_binary import (
    MAGIC,
    PREFIX_SIZE,
    _decode_strings,
    _encode_strings,
    read_chunk,
    read_row_count,
    write_chunk,
)
from repro.capture.spool import chunk_name
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


def assert_columns_usable(view):
    """Every numeric column is writable and aligned, as a freshly built
    view's are."""
    for name in type(view).__dataclass_fields__:
        column = getattr(view, name)
        assert column.flags.writeable, name
        assert column.flags.aligned, name


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
            loaded = read_chunk(path)
        assert_views_equal(view, loaded)
        assert_columns_usable(loaded)

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
            path = spool.write_view(records_to_view(records * 2))
            assert spool.chunk_paths()[-1] == path
            assert [len(chunk) for chunk in spool.iter_views()] == [1, 2]
            spool.cleanup()

    def test_a_spool_without_a_directory_holds_chunks_but_cannot_write(self):
        view = records_to_view([
            QueryRecord(
                timestamp=1.0, server_id="nl-a", src=IPAddress(4, 1),
                transport=Transport.UDP, qname="nl.", qtype=2, rcode=0,
            )
        ])
        spool = CaptureSpool()
        spool.adopt([view])
        assert len(spool) == 1 and spool.chunk_paths() == []
        with pytest.raises(ValueError, match="without a directory"):
            spool.write_view(view)

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
            assert [len(view) for view in adopter.iter_views()] == [2, 2, 1]


def small_view(rows):
    return records_to_view([
        QueryRecord(
            timestamp=float(i), server_id="nz-ü" if i % 2 else "nl-a",
            src=IPAddress(4, i + 1), transport=Transport.UDP,
            qname="café.nz." if i % 3 else "nl.", qtype=2, rcode=0,
        )
        for i in range(rows)
    ])


def assert_rejected(path, read=read_chunk):
    """``read(path)`` raises a plain ValueError that names the file — not
    a numpy or zlib error, and no rows."""
    with pytest.raises(ValueError) as excinfo:
        read(path)
    assert type(excinfo.value) is ValueError
    assert str(path) in str(excinfo.value)


class TestTornChunks:
    """A chunk file that is not an intact frame of this version is refused
    whole: truncated anywhere, one bit flipped anywhere, or not a frame."""

    @staticmethod
    def regions(data):
        """(start, end) of the prefix, the column table and the body."""
        __, __, __, table_len = io_binary._HEAD.unpack_from(data)
        table_end = PREFIX_SIZE + table_len
        return {
            "prefix": (0, PREFIX_SIZE),
            "table": (PREFIX_SIZE, table_end),
            "body": (table_end, len(data)),
        }

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(record_st, max_size=30),
        st.sampled_from(["prefix", "table", "body"]),
        st.data(),
    )
    def test_truncated_anywhere(self, records, region, data):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / chunk_name(0, 0)
            write_chunk(path, records_to_view(records))
            frame = path.read_bytes()
            start, end = self.regions(frame)[region]
            path.write_bytes(frame[:data.draw(st.integers(start, end - 1))])
            assert_rejected(path)
            if region == "prefix":
                assert_rejected(path, read_row_count)

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(record_st, max_size=30),
        st.sampled_from(["prefix", "table", "body"]),
        st.data(),
    )
    def test_any_flipped_bit(self, records, region, data):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / chunk_name(0, 0)
            write_chunk(path, records_to_view(records))
            frame = bytearray(path.read_bytes())
            start, end = self.regions(frame)[region]
            bit = data.draw(st.integers(start * 8, end * 8 - 1))
            frame[bit // 8] ^= 1 << (bit % 8)
            path.write_bytes(bytes(frame))
            assert_rejected(path)

    @settings(max_examples=30, deadline=None)
    @given(st.binary(min_size=len(MAGIC), max_size=len(MAGIC)).filter(lambda m: m != MAGIC))
    def test_wrong_magic(self, magic):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / chunk_name(0, 0)
            write_chunk(path, small_view(3))
            path.write_bytes(magic + path.read_bytes()[len(MAGIC):])
            assert_rejected(path)
            assert_rejected(path, read_row_count)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**16 - 1).filter(lambda v: v != io_binary.FORMAT_VERSION))
    def test_wrong_version(self, version):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / chunk_name(0, 0)
            write_chunk(path, small_view(3))
            frame = bytearray(path.read_bytes())
            frame[len(MAGIC):len(MAGIC) + 2] = version.to_bytes(2, "little")
            path.write_bytes(bytes(frame))
            for read in (read_chunk, read_row_count):
                with pytest.raises(ValueError, match=f"version {version}$"):
                    read(path)

    def test_a_zip_archive_is_foreign(self, tmp_path):
        """The container chunks used to be is refused, not half-read."""
        path = tmp_path / chunk_name(0, 0)
        with open(path, "wb") as handle:
            np.savez_compressed(handle, timestamp=np.zeros(3))
        assert_rejected(path)
        assert_rejected(path, read_row_count)


class TestFailedWrites:
    """A write that fails removes its temp file, re-raises, and leaves any
    chunk already at the path as it was."""

    def test_full_disk(self, tmp_path, monkeypatch):
        path = tmp_path / chunk_name(0, 0)
        write_chunk(path, small_view(4))
        before = path.read_bytes()

        class FullDisk(io.FileIO):
            def write(self, data):
                super().write(bytes(data)[:7])
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(
            io_binary, "open", lambda file, mode: FullDisk(file, "w"), raising=False
        )
        with pytest.raises(OSError) as excinfo:
            write_chunk(path, small_view(9))
        assert excinfo.value.errno == errno.ENOSPC
        assert sorted(tmp_path.iterdir()) == [path]
        assert path.read_bytes() == before

    def test_failed_rename(self, tmp_path, monkeypatch):
        def refuse(src, dst):
            raise OSError(errno.EXDEV, os.strerror(errno.EXDEV))

        monkeypatch.setattr(io_binary.os, "replace", refuse)
        with pytest.raises(OSError):
            write_chunk(tmp_path / chunk_name(0, 0), small_view(4))
        assert list(tmp_path.iterdir()) == []


def test_a_stale_temp_file_is_never_a_chunk(tmp_path):
    """A temp file a killed writer left behind ends in ``.tmp``: no
    ``*.chunk`` listing, spool or canonical view picks it up."""
    view = small_view(5)
    spool = CaptureSpool(directory=tmp_path, chunk_rows=2)
    spool.append_view(view)
    spool.flush()
    first = Path(spool.chunk_paths()[0])
    stale = first.with_name(f"{first.name}.{os.getpid() + 1}.tmp")
    stale.write_bytes(first.read_bytes())
    listed = sorted(str(path) for path in tmp_path.glob("*.chunk"))
    assert listed == sorted(spool.chunk_paths()) and str(stale) not in listed
    adopter = CaptureSpool(directory=tmp_path)
    adopter.adopt(listed)
    assert len(adopter) == 5
    canonical = SpooledCapture(spool).view()
    assert len(canonical) == 5
    assert_views_equal(canonical, SpooledCapture(adopter).view())
