"""The capture past the append buffer: columnar chunks, resident or spilled.

Rows become columns once, when a run cuts a bounded :class:`CaptureView`
chunk off its :class:`~repro.capture.store.CaptureStore` — each time one
fills, while the fleet runs.  From there on a run's capture is those
chunks in append order (:class:`CaptureSpool`), mirroring how the paper's
ENTRADA pipeline lands pcap-derived rows in Parquet files once and queries
columns ever after.  A chunk is either **resident** — the view itself (a
spool without a directory) — or **spilled** — a ``.chunk`` file holding
one checksummed, compressed :mod:`repro.capture.io_binary` frame (a spool
with a directory), read back one bounded view at a time, so a single-pass
analysis touches O(chunk) memory regardless of total rows.  Only the
paths a spool wrote are chunks: a writer's ``.tmp`` file is never one.

:class:`SpooledCapture` is the capture every
:class:`~repro.sim.DatasetRun` carries; its :meth:`~SpooledCapture.view`
is the one canonical ``(timestamp, server_id)`` sort in the tree.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Iterator, List, Optional, Sequence, Union

import numpy as np

from . import store
from .io_binary import read_chunk, write_chunk
from .store import CaptureStore, CaptureView


def chunk_name(sequence: int) -> str:
    """Deterministic chunk filename: the ``sequence``-th chunk a spool
    writes, so chunk files sort in append order."""
    return f"chunk{sequence:06d}.chunk"


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

    Writers add views with :meth:`write_view` (one view, one chunk) or
    :meth:`append_view` (re-cut to ``chunk_rows``).  ``chunk_rows``
    defaults to :data:`~repro.capture.store.DEFAULT_CHUNK_ROWS` as the
    module holds it when the spool is built: the size a run cuts its
    chunks to.  With a directory each chunk is spilled to a file there,
    created by the first write; without one the chunks stay resident and
    the spool never touches the filesystem.  The chunk list is explicit,
    so stale files in the directory are never picked up by accident.
    """

    def __init__(
        self,
        directory: Optional[Union[str, Path]] = None,
        chunk_rows: Optional[int] = None,
    ):
        if chunk_rows is None:
            chunk_rows = store.DEFAULT_CHUNK_ROWS
        if chunk_rows < 1:
            raise ValueError("chunk_rows must be >= 1")
        self.directory = None if directory is None else Path(directory)
        self.chunk_rows = chunk_rows
        #: The partial chunk :meth:`append_view` is still filling.
        self._tail: Optional[CaptureView] = None
        self._chunks: List[Union[Path, CaptureView]] = []
        self._chunk_rows_counts: List[int] = []
        #: Compressed bytes and rows written to chunk files.
        self.bytes_written = 0
        self.rows_spooled = 0

    # -- writing ---------------------------------------------------------------

    def write_view(self, view: CaptureView) -> None:
        """Add one view as one chunk, behind any buffered tail: spilled to
        a chunk file when the spool has a directory, held as it is when it
        has none.  An empty view adds nothing."""
        self.flush()
        if len(view) == 0:
            return
        self._chunk_rows_counts.append(len(view))
        if self.directory is None:
            self._chunks.append(view)
            return
        if not self._chunks:
            self.directory.mkdir(parents=True, exist_ok=True)
        path = self.directory / chunk_name(len(self._chunks))
        self.bytes_written += write_chunk(path, view)
        self.rows_spooled += len(view)
        self._chunks.append(path)

    def append_view(self, view: CaptureView) -> None:
        """Add a view re-cut to ``chunk_rows``: full slices become chunks
        straight away and the partial tail is kept — as a view — for the
        next append or :meth:`flush` to complete, so chunk order stays
        append order."""
        if self._tail is not None:
            view, self._tail = concatenate_views([self._tail, view]), None
        start = 0
        while len(view) - start >= self.chunk_rows:
            self.write_view(view.select(slice(start, start + self.chunk_rows)))
            start += self.chunk_rows
        if start < len(view):
            self._tail = view.select(slice(start, len(view)))

    def flush(self) -> None:
        """Add any buffered partial chunk."""
        if self._tail is not None:
            tail, self._tail = self._tail, None
            self.write_view(tail)

    # -- chunk bookkeeping ------------------------------------------------------

    def chunk_paths(self) -> List[str]:
        """Paths of all chunk files, in write order."""
        return [
            str(chunk) for chunk in self._chunks
            if not isinstance(chunk, CaptureView)
        ]

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

    Answers ``len()`` from chunk metadata, streams the chunks
    (:meth:`iter_views`) and materialises the whole capture in canonical
    order (:meth:`view`, cached) only when asked.
    """

    def __init__(self, spool: CaptureSpool):
        spool.flush()
        self.spool = spool
        self._frozen: Optional[CaptureView] = None

    def __len__(self) -> int:
        return len(self.spool)

    def iter_views(self) -> Iterator[CaptureView]:
        """Bounded chunk views in spool order."""
        return self.spool.iter_views()

    def view(self) -> CaptureView:
        """The whole capture in canonical order (cached).

        Chunks concatenate in append order; on top of that, a stable
        lexsort keyed by ``(timestamp, server_id-code)`` — rows tied on
        both keys (one client query fanning out to the same captured
        server) keep their append order — so captures compare equal
        column for column however they were chunked and wherever the
        chunks lived.
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
