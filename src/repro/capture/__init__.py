"""Capture schema, columnar store, and persistence (the ENTRADA stand-in)."""

from .io import write_csv
from .io_binary import arrays_to_view, read_npz, view_to_arrays, write_npz
from .schema import QueryRecord, Transport
from .spool import (
    DEFAULT_CHUNK_ROWS,
    CaptureSpool,
    SpooledCapture,
    chunk_name,
    read_chunk,
    write_chunk,
)
from .store import CaptureStore, CaptureView, join_address, split_address

__all__ = [
    "CaptureSpool",
    "CaptureStore",
    "CaptureView",
    "DEFAULT_CHUNK_ROWS",
    "QueryRecord",
    "SpooledCapture",
    "Transport",
    "arrays_to_view",
    "chunk_name",
    "join_address",
    "read_chunk",
    "read_npz",
    "split_address",
    "view_to_arrays",
    "write_chunk",
    "write_csv",
    "write_npz",
]
