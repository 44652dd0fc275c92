"""Streaming capture spool: out-of-core row storage in bounded chunks.

The in-memory :class:`~repro.capture.store.CaptureStore` caps dataset scale
by parent-process RAM: every captured row lives as a Python tuple until
analysis ends.  The spool is the out-of-core alternative, mirroring how the
paper's ENTRADA pipeline lands pcap-derived rows in Parquet files and never
holds the row set in memory:

* writers (pool workers, or the serial driver) spill rows as compressed
  binary **chunk files** — each chunk is a small ``.npz`` archive in the
  :mod:`repro.capture.io_binary` framing;
* readers stream the chunks back one bounded :class:`CaptureView` at a time
  (:meth:`CaptureSpool.iter_views`), so a single-pass analysis touches
  O(chunk) memory regardless of total rows.

:class:`SpooledCapture` is the capture object a streaming
:class:`~repro.sim.DatasetRun` carries instead of a ``CaptureStore``: it
answers ``len()`` / ``rows_appended`` from chunk metadata and can still
materialise a full canonical :meth:`view` on demand (the compatibility
path for analyses that genuinely need the whole row set, e.g. the
Facebook PTR join) — materialisation is lazy, cached, and droppable via
:meth:`release_view`.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path
from typing import Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from .io_binary import arrays_to_view, view_to_arrays
from .store import CaptureStore, CaptureView

#: Default rows per spooled chunk.  Large enough that zlib and numpy
#: amortise their per-chunk overheads, small enough that a chunk's columns
#: stay a few MB.
DEFAULT_CHUNK_ROWS = 65536


def write_chunk(path: Union[str, Path], view: CaptureView) -> int:
    """Write one chunk archive; returns its compressed size in bytes.

    The write lands in a pid-tagged temp file and is renamed into place,
    so a reader never sees a half-written chunk even if a timed-out shard
    attempt and its retry race on the same deterministic name.
    """
    path = Path(path)
    tmp = path.with_name(f"{path.stem}.{os.getpid()}.tmp.npz")
    np.savez_compressed(tmp, **view_to_arrays(view))
    size = tmp.stat().st_size
    os.replace(tmp, path)
    return size


def read_chunk(path: Union[str, Path]) -> CaptureView:
    """Load one chunk archive back into a bounded view."""
    with np.load(path, allow_pickle=False) as archive:
        return arrays_to_view(archive)


def chunk_name(shard_index: int, sequence: int) -> str:
    """Deterministic chunk filename: retried shards overwrite their own
    chunks instead of leaking partial attempts next to good ones."""
    return f"shard{shard_index:04d}-{sequence:06d}.npz"


class CaptureSpool:
    """Chunked writer/reader over a spool directory.

    One spool corresponds to one dataset run.  Writers call
    :meth:`append_rows` (buffered; full chunks flush automatically) or
    :meth:`spool_store` for a whole in-memory store; readers call
    :meth:`iter_views`.  The chunk list is explicit — workers return the
    paths they wrote and the parent :meth:`adopt`\\ s them in shard order —
    so stale files from crashed attempts are never picked up by accident.
    """

    def __init__(
        self,
        directory: Optional[Union[str, Path]] = None,
        chunk_rows: int = DEFAULT_CHUNK_ROWS,
        shard_index: int = 0,
    ):
        if chunk_rows < 1:
            raise ValueError("chunk_rows must be >= 1")
        self._tmpdir: Optional[tempfile.TemporaryDirectory] = None
        if directory is None:
            self._tmpdir = tempfile.TemporaryDirectory(prefix="repro-spool-")
            directory = self._tmpdir.name
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.chunk_rows = chunk_rows
        self.shard_index = shard_index
        self._pending: List[Tuple] = []
        self._sequence = 0
        self._chunks: List[Path] = []
        self._chunk_rows_counts: List[int] = []
        #: Compressed bytes written by *this* spool object (adopted chunks
        #: were accounted by their writer).
        self.bytes_written = 0
        self.rows_spooled = 0

    # -- writing ---------------------------------------------------------------

    def append_rows(self, rows: Sequence[Tuple]) -> None:
        """Buffer row tuples, flushing every time a full chunk accumulates."""
        self._pending.extend(rows)
        while len(self._pending) >= self.chunk_rows:
            self._write(self._pending[: self.chunk_rows])
            del self._pending[: self.chunk_rows]

    def spool_store(self, store: CaptureStore) -> None:
        """Spill a whole in-memory store's rows (does not clear the store)."""
        self.append_rows(store.raw_rows())

    def write_view(self, view: CaptureView) -> None:
        """Write an already-columnised chunk directly, bypassing the row
        buffer — the streaming fold's path, where each chunk was just built
        by ``iter_views`` and re-tupling it would be pure waste.  Requires
        an empty buffer so chunk order stays append order."""
        if self._pending:
            raise RuntimeError("cannot mix write_view with buffered rows")
        if len(view) == 0:
            return
        path = self.directory / chunk_name(self.shard_index, self._sequence)
        self._sequence += 1
        self.bytes_written += write_chunk(path, view)
        self.rows_spooled += len(view)
        self._chunks.append(path)
        self._chunk_rows_counts.append(len(view))

    def append_view(self, view: CaptureView) -> None:
        """Buffer-aware bulk columnar append.

        With an empty row buffer, full ``chunk_rows`` slices of the view
        are written straight to chunk files (no row re-tupling) and only
        the partial tail lands in the buffer; with rows already buffered,
        the view degrades to :meth:`append_rows` so chunk order stays
        append order.  This is the spill path for a columnar producer
        feeding a spool directly.
        """
        if len(view) == 0:
            return
        if self._pending:
            self.append_rows(view.to_rows())
            return
        start = 0
        while len(view) - start >= self.chunk_rows:
            self.write_view(view.select(slice(start, start + self.chunk_rows)))
            start += self.chunk_rows
        if start < len(view):
            self._pending.extend(view.select(slice(start, len(view))).to_rows())

    def flush(self) -> None:
        """Write any buffered partial chunk."""
        if self._pending:
            self._write(self._pending)
            self._pending = []

    def _write(self, rows: Sequence[Tuple]) -> None:
        path = self.directory / chunk_name(self.shard_index, self._sequence)
        self._sequence += 1
        view = CaptureStore.rows_to_view(rows)
        self.bytes_written += write_chunk(path, view)
        self.rows_spooled += len(rows)
        self._chunks.append(path)
        self._chunk_rows_counts.append(len(rows))

    # -- chunk bookkeeping ------------------------------------------------------

    def chunk_paths(self) -> List[str]:
        """Paths of all flushed chunks, in write/adoption order."""
        return [str(path) for path in self._chunks]

    def chunk_row_counts(self) -> List[int]:
        return list(self._chunk_rows_counts)

    def adopt(self, paths: Sequence[Union[str, Path]],
              row_counts: Optional[Sequence[int]] = None) -> None:
        """Register chunks written elsewhere (the pool-merge path).

        ``row_counts`` avoids re-opening every archive when the writer
        already reported them; otherwise counts are read from chunk
        metadata.
        """
        paths = [Path(p) for p in paths]
        if row_counts is None:
            row_counts = [self._read_row_count(path) for path in paths]
        if len(row_counts) != len(paths):
            raise ValueError("row_counts must match paths")
        self._chunks.extend(paths)
        self._chunk_rows_counts.extend(int(c) for c in row_counts)

    @staticmethod
    def _read_row_count(path: Path) -> int:
        with np.load(path, allow_pickle=False) as archive:
            return int(archive["__meta__"][1])

    def __len__(self) -> int:
        return sum(self._chunk_rows_counts) + len(self._pending)

    # -- reading ---------------------------------------------------------------

    def iter_views(self) -> Iterator[CaptureView]:
        """Stream every chunk back as a bounded :class:`CaptureView`.

        Only one chunk's columns are resident at a time — this is the
        O(chunk)-memory read path the streaming aggregators consume.
        Call :meth:`flush` first if rows are still buffered.
        """
        if self._pending:
            raise RuntimeError("spool has unflushed rows; call flush() first")
        for path in self._chunks:
            yield read_chunk(path)

    def cleanup(self) -> None:
        """Delete the spool's chunk files (and its temp dir, if owned)."""
        for path in self._chunks:
            try:
                os.unlink(path)
            except FileNotFoundError:
                pass
        self._chunks = []
        self._chunk_rows_counts = []
        if self._tmpdir is not None:
            self._tmpdir.cleanup()
            self._tmpdir = None


class SpooledCapture:
    """Read-side capture backed by a spool instead of resident rows.

    Quacks like the slice of :class:`CaptureStore` the analysis and CLI
    layers consume — ``len()``, ``rows_appended``, :meth:`view`,
    :meth:`iter_views` — while holding no row data until :meth:`view` is
    explicitly asked to materialise (and even then the cache can be
    dropped again with :meth:`release_view`).
    """

    def __init__(self, spool: CaptureSpool, rows_appended: Optional[int] = None):
        spool.flush()
        self.spool = spool
        #: Rows ever appended by the simulation — equals the spooled row
        #: count unless shards failed (then the spool only holds the
        #: surviving shards' rows).
        self.rows_appended = len(spool) if rows_appended is None else rows_appended
        self._frozen: Optional[CaptureView] = None

    def __len__(self) -> int:
        return len(self.spool)

    def iter_views(self, chunk_rows: Optional[int] = None) -> Iterator[CaptureView]:
        """Bounded chunk views in spool order (``chunk_rows`` is accepted
        for :class:`CaptureStore` signature compatibility; the spool's
        on-disk chunking wins)."""
        return self.spool.iter_views()

    def publish_timeseries(self, recorder, chunk_rows: Optional[int] = None) -> None:
        """Fold the spooled capture's standard rate series into a
        :class:`~repro.telemetry.timeseries.FlightRecorder`, one on-disk
        chunk at a time — signature-compatible with
        :meth:`CaptureStore.publish_timeseries`, and order-insensitive by
        the flight recorder's integer-sum algebra, so spool chunk order
        (vs canonical row order) cannot change the frames."""
        for view in self.iter_views(chunk_rows):
            recorder.observe_view(view)

    def view(self) -> CaptureView:
        """Materialise the full capture in canonical order (cached).

        This is the compatibility fallback for whole-view analyses; it is
        bit-identical to the in-memory path's ``sort_canonical() + view()``
        because chunks concatenate in the exact append order the serial
        driver would have produced, and the same stable
        ``(timestamp, server_id)`` lexsort is applied on top.
        """
        if self._frozen is None:
            self._frozen = _concatenate_canonical(list(self.spool.iter_views()))
        return self._frozen

    def release_view(self) -> None:
        """Drop the materialised view cache (rows remain on disk)."""
        self._frozen = None

    def cleanup(self) -> None:
        self.release_view()
        self.spool.cleanup()


def _concatenate_canonical(views: List[CaptureView]) -> CaptureView:
    """Concatenate chunk views and stable-sort into canonical order.

    Mirrors :meth:`CaptureStore.sort_canonical`: stable lexsort keyed by
    ``(timestamp, server_id-code)``, so the result is identical to sorting
    the concatenated row list.
    """
    if not views:
        return CaptureStore.rows_to_view([])
    columns = {
        name: np.concatenate([getattr(view, name) for view in views])
        for name in CaptureView.__dataclass_fields__
    }
    merged = CaptureView(**columns)
    if len(merged) <= 1:
        return merged
    __, server_codes = np.unique(merged.server_id, return_inverse=True)
    order = np.lexsort((server_codes, merged.timestamp))
    return CaptureView(
        **{name: column[order] for name, column in columns.items()}
    )
