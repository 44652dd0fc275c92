"""Binary columnar persistence for captures: one checksummed frame per file.

CSV (``repro.capture.io``) is human-friendly but slow and large; this
module stores a view's frozen column arrays directly, the moral
equivalent of ENTRADA's Parquet warehouse files.  A chunk loads with one
read, one checksum and one inflate, and round-trips exactly.

A file is one frame of three parts:

* a fixed :data:`PREFIX_SIZE`-byte little-endian prefix: the magic
  ``REPROCAP``, :data:`FORMAT_VERSION`, the row count, the column table's
  length in bytes, and the crc32 of every other byte of the file — the
  prefix fields before it, the table and the body — so a flipped bit
  anywhere is caught before anything is inflated;
* the column table: ASCII lines of ``name dtype length``, one per stored
  column in a fixed order (plain text, no pickle);
* the body: every column's bytes, each starting on an 8-byte boundary,
  compressed as one zlib stream at :data:`COMPRESS_LEVEL`.

String columns (``server_id``, ``qname``) are stored as a contiguous UTF-8
pool plus int64 offsets so the body holds only primitive dtypes.  The
reader hands back writable, aligned columns of the dtypes the writer had.

:func:`write_chunk` / :func:`read_chunk` are the one way a capture view
reaches disk and comes back: whole-capture persistence and the chunk files
of :mod:`repro.capture.spool` alike.  Anything that is not an intact frame
of this version — short, flipped, foreign — raises :class:`ValueError`
naming the file.
"""

from __future__ import annotations

import contextlib
import os
import struct
import zlib
from pathlib import Path
from typing import List, Tuple, Union

import numpy as np

from .store import CaptureView

MAGIC = b"REPROCAP"
FORMAT_VERSION = 2
#: zlib level of the body.  Level 1 writes a chunk in about a third of
#: the time level 6 takes for ~10 % more bytes; level 3 wins back only
#: ~3 % of those bytes.
COMPRESS_LEVEL = 1

#: magic, version, row count, column-table length.
_HEAD = struct.Struct("<8sH2xQI")
#: crc32 of every byte of the file but these four.
_CRC = struct.Struct("<I")
PREFIX_SIZE = _HEAD.size + _CRC.size
_ALIGN = 8
_PAD = bytes(_ALIGN)

_STRING_COLUMNS = ("server_id", "qname")
_NUMERIC_DTYPES = {
    "timestamp": "<f8",
    "family": "|u1",
    "src_hi": "<u8",
    "src_lo": "<u8",
    "transport": "|u1",
    "qtype": "<u2",
    "rcode": "|u1",
    "edns_bufsize": "<u2",
    "do_bit": "|b1",
    "response_size": "<u4",
    "truncated": "|b1",
    "tcp_rtt_ms": "<f8",
}
#: (name, dtype) of every stored column, in body order.
_LAYOUT: List[Tuple[str, str]] = list(_NUMERIC_DTYPES.items()) + [
    entry
    for column in _STRING_COLUMNS
    for entry in ((f"{column}__pool", "|u1"), (f"{column}__offsets", "<i8"))
]


def _encode_strings(values: np.ndarray):
    """Object array of str → (uint8 pool, int64 offsets).

    The column is encoded as one joined string; when that is all ASCII
    (byte length == character length) every string's byte length is its
    character length, so the offsets follow without encoding strings one
    by one."""
    strings = list(map(str, values.tolist()))
    blob = "".join(strings).encode("utf-8")
    lengths = np.fromiter(map(len, strings), dtype=np.int64, count=len(strings))
    if len(blob) != int(lengths.sum()):
        encoded = [s.encode("utf-8") for s in strings]
        lengths = np.fromiter(map(len, encoded), dtype=np.int64, count=len(encoded))
    offsets = np.zeros(len(strings) + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    pool = np.frombuffer(blob, dtype=np.uint8)
    return pool, offsets


def _decode_strings(pool: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Inverse of :func:`_encode_strings`: the pool is decoded once and
    sliced by character offsets when it is all ASCII."""
    raw = pool.tobytes()
    text = raw.decode("utf-8")
    bounds = offsets.tolist()
    if len(text) == len(raw):
        strings = [text[a:b] for a, b in zip(bounds, bounds[1:])]
    else:
        strings = [raw[a:b].decode("utf-8") for a, b in zip(bounds, bounds[1:])]
    out = np.empty(len(strings), dtype=object)
    out[:] = strings
    return out


def _padded(nbytes: int) -> int:
    return nbytes + (-nbytes % _ALIGN)


def _encode_frame(view: CaptureView) -> List[bytes]:
    """``view`` as one frame: prefix, column table and body, in file order."""
    columns = [np.ascontiguousarray(getattr(view, name)) for name in _NUMERIC_DTYPES]
    for name in _STRING_COLUMNS:
        columns.extend(_encode_strings(getattr(view, name)))
    table = "\n".join(
        f"{name} {column.dtype.str} {len(column)}"
        for (name, _), column in zip(_LAYOUT, columns)
    ).encode("ascii")
    parts = []
    for column in columns:
        parts.append(column.data)
        parts.append(_PAD[:_padded(column.nbytes) - column.nbytes])
    body = zlib.compress(b"".join(parts), COMPRESS_LEVEL)
    head = _HEAD.pack(MAGIC, FORMAT_VERSION, len(view), len(table))
    crc = zlib.crc32(body, zlib.crc32(table, zlib.crc32(head)))
    return [head + _CRC.pack(crc), table, body]


def _read_prefix(prefix: bytes) -> Tuple[int, int, int]:
    """(rows, table length, crc) of a frame prefix; ValueError unless it
    is a whole prefix of this format and version."""
    if len(prefix) < PREFIX_SIZE:
        raise ValueError(f"truncated frame prefix ({len(prefix)} of {PREFIX_SIZE} bytes)")
    magic, version, rows, table_len = _HEAD.unpack_from(prefix)
    if magic != MAGIC:
        raise ValueError("not a capture frame (bad magic)")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported capture format version {version}")
    (crc,) = _CRC.unpack_from(prefix, _HEAD.size)
    return rows, table_len, crc


def _decode_frame(data: bytes) -> CaptureView:
    """Inverse of :func:`_encode_frame` over the whole file's bytes."""
    rows, table_len, crc = _read_prefix(data)
    frame = memoryview(data)
    if zlib.crc32(frame[PREFIX_SIZE:], zlib.crc32(frame[:_HEAD.size])) != crc:
        raise ValueError("checksum mismatch (torn or corrupted frame)")
    end = PREFIX_SIZE + table_len
    table = []
    for line in str(frame[PREFIX_SIZE:end], "ascii").split("\n"):
        name, dtype, length = line.split(" ")
        table.append((name, dtype, int(length)))
    if [entry[:2] for entry in table] != _LAYOUT:
        raise ValueError("unexpected column table")
    lengths = {name: length for name, _, length in table}
    for name in _NUMERIC_DTYPES:
        if lengths[name] != rows:
            raise ValueError(f"column {name} holds {lengths[name]} rows, prefix says {rows}")
    for name in _STRING_COLUMNS:
        if lengths[f"{name}__offsets"] != rows + 1 or lengths[f"{name}__pool"] < 0:
            raise ValueError(f"column {name} does not match {rows} rows")
    try:
        body = bytearray(zlib.decompress(frame[end:]))
    except zlib.error as exc:
        raise ValueError(f"corrupt body ({exc})") from None
    arrays = {}
    offset = 0
    for name, dtype, length in table:
        dtype = np.dtype(dtype)
        nbytes = length * dtype.itemsize
        if offset + nbytes > len(body):
            raise ValueError(f"body ends inside column {name}")
        arrays[name] = np.frombuffer(body, dtype, length, offset)
        offset += _padded(nbytes)
    if offset != len(body):
        raise ValueError(f"body holds {len(body)} bytes, column table {offset}")
    columns = {name: arrays[name] for name in _NUMERIC_DTYPES}
    for name in _STRING_COLUMNS:
        pool, offsets = arrays[f"{name}__pool"], arrays[f"{name}__offsets"]
        if offsets[0] != 0 or offsets[-1] != len(pool) or (np.diff(offsets) < 0).any():
            raise ValueError(f"column {name} has offsets outside its pool")
        columns[name] = _decode_strings(pool, offsets)
    return CaptureView(**columns)


def write_chunk(path: Union[str, Path], view: CaptureView) -> int:
    """Write ``view`` to ``path`` as one frame; returns the file's size in
    bytes.

    The write lands in a pid-tagged ``.tmp`` file and is renamed into
    place, so a reader never sees a half-written frame even if a timed-out
    shard attempt and its retry race on the same deterministic name.  If
    the write or the rename fails, the temp file is removed before the
    error propagates.
    """
    path = Path(path)
    frame = _encode_frame(view)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as handle:
            handle.writelines(frame)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise
    return sum(map(len, frame))


def read_chunk(path: Union[str, Path]) -> CaptureView:
    """Load a view written by :func:`write_chunk`."""
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        return _decode_frame(data)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def read_row_count(path: Union[str, Path]) -> int:
    """A frame's row count, from its prefix alone."""
    with open(path, "rb") as handle:
        prefix = handle.read(PREFIX_SIZE)
    try:
        return _read_prefix(prefix)[0]
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
