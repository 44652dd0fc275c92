"""The capture past the append buffer: columnar chunks, resident or spilled.

Rows become columns once, when a shard freezes its
:class:`~repro.capture.store.CaptureStore` into bounded
:class:`CaptureView` chunks.  From there on a run's capture is those
chunks in append order (:class:`CaptureSpool`), mirroring how the paper's
ENTRADA pipeline lands pcap-derived rows in Parquet files once and queries
columns ever after.  A chunk is either **resident** — the view itself (an
in-memory run: the shards hand their chunks over as they are) — or
**spilled** — a ``.chunk`` file holding one checksummed, compressed
:mod:`repro.capture.io_binary` frame (a run with a spool directory: each
shard writes its chunks under it and hands over their paths), read back
one bounded view at a time, so a single-pass analysis touches O(chunk)
memory regardless of total rows.  Only the paths a spool wrote or adopted
are chunks: a writer's ``.tmp`` file is never one.

:class:`SpooledCapture` is the capture every
:class:`~repro.sim.DatasetRun` carries; its :meth:`~SpooledCapture.view`
is the one canonical ``(timestamp, server_id)`` sort in the tree.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Iterator, List, Optional, Sequence, Union

import numpy as np

from .io_binary import read_chunk, read_row_count, write_chunk
from .store import CaptureStore, CaptureView

#: Default rows per spooled chunk.  Large enough that zlib and numpy
#: amortise their per-chunk overheads, small enough that a chunk's columns
#: stay a few MB.
DEFAULT_CHUNK_ROWS = 65536


def chunk_name(shard_index: int, sequence: int) -> str:
    """Deterministic chunk filename: retried shards overwrite their own
    chunks instead of leaking partial attempts next to good ones."""
    return f"shard{shard_index:04d}-{sequence:06d}.chunk"


def concatenate_views(views: Sequence[CaptureView]) -> CaptureView:
    """The views' rows as one view, in the order given."""
    if not views:
        return CaptureStore.rows_to_view([])
    return CaptureView(**{
        name: np.concatenate([getattr(view, name) for view in views])
        for name in CaptureView.__dataclass_fields__
    })


class CaptureSpool:
    """One dataset run's chunks, in append order.

    Writers spill views with :meth:`write_view` (one view, one file) or
    :meth:`append_view` (re-cut to ``chunk_rows``); chunks produced
    elsewhere — a shard's resident views, or the files a spilling shard
    wrote — join in shard order through :meth:`adopt`.  The chunk list is
    explicit, so stale files from crashed attempts are never picked up by
    accident.  The directory is created by the first write: a spool whose
    chunks all stay resident never touches the filesystem, and one built
    without a directory cannot write.
    """

    def __init__(
        self,
        directory: Optional[Union[str, Path]] = None,
        chunk_rows: int = DEFAULT_CHUNK_ROWS,
        shard_index: int = 0,
    ):
        if chunk_rows < 1:
            raise ValueError("chunk_rows must be >= 1")
        self.directory = None if directory is None else Path(directory)
        self.chunk_rows = chunk_rows
        self.shard_index = shard_index
        #: The partial chunk :meth:`append_view` is still filling.
        self._tail: Optional[CaptureView] = None
        self._sequence = 0
        self._chunks: List[Union[Path, CaptureView]] = []
        self._chunk_rows_counts: List[int] = []
        #: Compressed bytes written by *this* spool object (adopted chunks
        #: were accounted by their writer).
        self.bytes_written = 0
        self.rows_spooled = 0

    # -- writing ---------------------------------------------------------------

    def write_view(self, view: CaptureView) -> Optional[str]:
        """Spill one view as one chunk file, behind any buffered tail, and
        return its path (``None`` for an empty view) — a spilling shard's
        path, where each chunk was just built by ``iter_views`` and folded,
        and is written as it is."""
        self.flush()
        if len(view) == 0:
            return None
        if self.directory is None:
            raise ValueError("a spool without a directory cannot write chunk files")
        if self._sequence == 0:
            self.directory.mkdir(parents=True, exist_ok=True)
        path = self.directory / chunk_name(self.shard_index, self._sequence)
        self._sequence += 1
        self.bytes_written += write_chunk(path, view)
        self.rows_spooled += len(view)
        self._chunks.append(path)
        self._chunk_rows_counts.append(len(view))
        return str(path)

    def append_view(self, view: CaptureView) -> None:
        """Spill a view re-cut to ``chunk_rows``: full slices are written
        straight to chunk files and the partial tail is kept — as a view —
        for the next append or :meth:`flush` to complete, so chunk order
        stays append order."""
        if self._tail is not None:
            view, self._tail = concatenate_views([self._tail, view]), None
        start = 0
        while len(view) - start >= self.chunk_rows:
            self.write_view(view.select(slice(start, start + self.chunk_rows)))
            start += self.chunk_rows
        if start < len(view):
            self._tail = view.select(slice(start, len(view)))

    def flush(self) -> None:
        """Write any buffered partial chunk."""
        if self._tail is not None:
            tail, self._tail = self._tail, None
            self.write_view(tail)

    # -- chunk bookkeeping ------------------------------------------------------

    def chunk_paths(self) -> List[str]:
        """Paths of all chunk files, in write/adoption order."""
        return [
            str(chunk) for chunk in self._chunks
            if not isinstance(chunk, CaptureView)
        ]

    def chunk_row_counts(self) -> List[int]:
        return list(self._chunk_rows_counts)

    def adopt(self, chunks: Sequence[Union[str, Path, CaptureView]],
              row_counts: Optional[Sequence[int]] = None) -> None:
        """Register chunks produced elsewhere (the shard-merge path):
        resident views, held as they are, or paths of chunk files.

        ``row_counts`` avoids re-opening every file when the writer
        already reported them; otherwise each count is read from its
        frame's prefix.
        """
        chunks = [
            chunk if isinstance(chunk, CaptureView) else Path(chunk)
            for chunk in chunks
        ]
        if row_counts is None:
            row_counts = [
                len(chunk) if isinstance(chunk, CaptureView)
                else read_row_count(chunk)
                for chunk in chunks
            ]
        if len(row_counts) != len(chunks):
            raise ValueError("row_counts must match chunks")
        self._chunks.extend(chunks)
        self._chunk_rows_counts.extend(int(c) for c in row_counts)

    def keep_resident_as(self, view: CaptureView) -> None:
        """Hold ``view`` — the same rows, in whatever order — as the one
        chunk, if every chunk is resident: the per-chunk views it was
        assembled from would otherwise keep each row in memory twice.
        A spool with chunk files is left alone (they are the capture)."""
        if all(isinstance(chunk, CaptureView) for chunk in self._chunks):
            self._chunks = [view]
            self._chunk_rows_counts = [len(view)]

    def __len__(self) -> int:
        tail = 0 if self._tail is None else len(self._tail)
        return sum(self._chunk_rows_counts) + tail

    # -- reading ---------------------------------------------------------------

    def iter_views(self) -> Iterator[CaptureView]:
        """Every chunk as a bounded :class:`CaptureView`, in order.

        Only one spilled chunk's columns are loaded at a time — this is
        the O(chunk)-memory read path the streaming aggregators consume.
        Call :meth:`flush` first if a partial chunk is still buffered.
        """
        if self._tail is not None:
            raise RuntimeError("spool has unflushed rows; call flush() first")
        for chunk in self._chunks:
            yield chunk if isinstance(chunk, CaptureView) else read_chunk(chunk)

    def cleanup(self) -> None:
        """Drop the chunks: delete the chunk files, release the resident
        views."""
        for chunk in self._chunks:
            if isinstance(chunk, CaptureView):
                continue
            try:
                os.unlink(chunk)
            except FileNotFoundError:
                pass
        self._chunks = []
        self._chunk_rows_counts = []


class SpooledCapture:
    """A run's capture: its spool's chunks plus the canonical whole view.

    Answers ``len()`` and ``rows_appended`` from chunk metadata, streams
    the chunks (:meth:`iter_views`) and materialises the whole capture in
    canonical order (:meth:`view`, cached) only when asked.
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

    def iter_views(self) -> Iterator[CaptureView]:
        """Bounded chunk views in spool order."""
        return self.spool.iter_views()

    def view(self) -> CaptureView:
        """The whole capture in canonical order (cached).

        Chunks concatenate in the append order one shard over the whole
        fleet would have produced; on top of that, a stable lexsort keyed
        by ``(timestamp, server_id-code)`` — rows tied on both keys (one
        client query fanning out to the same captured server) keep their
        append order — so captures compare equal column for column
        whatever the shard layout and wherever the chunks lived.
        """
        if self._frozen is None:
            merged = concatenate_views(list(self.spool.iter_views()))
            __, server_codes = np.unique(merged.server_id, return_inverse=True)
            order = np.lexsort((server_codes, merged.timestamp))
            self._frozen = merged.select(order)
            self.spool.keep_resident_as(self._frozen)
        return self._frozen

    def cleanup(self) -> None:
        self._frozen = None
        self.spool.cleanup()
