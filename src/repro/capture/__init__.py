"""Capture schema, columnar store, and persistence (the ENTRADA stand-in)."""

from .io import write_csv
from .io_binary import read_chunk, write_chunk
from .schema import QueryRecord, Transport
from .spool import CaptureSpool, SpooledCapture, chunk_name
from .store import (
    DEFAULT_CHUNK_ROWS,
    CaptureStore,
    CaptureView,
    join_address,
    split_address,
)

__all__ = [
    "CaptureSpool",
    "CaptureStore",
    "CaptureView",
    "DEFAULT_CHUNK_ROWS",
    "QueryRecord",
    "SpooledCapture",
    "Transport",
    "chunk_name",
    "join_address",
    "read_chunk",
    "split_address",
    "write_chunk",
    "write_csv",
]
