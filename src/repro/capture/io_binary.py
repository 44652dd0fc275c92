"""Binary columnar persistence for captures.

CSV (``repro.capture.io``) is human-friendly but slow and large;
this module stores the frozen column arrays directly (numpy ``.npz``),
the moral equivalent of ENTRADA's Parquet warehouse files.  A million-row
capture loads in milliseconds and round-trips exactly.

Format: one compressed ``.npz`` member per column, plus a ``__meta__``
array carrying a format-version stamp.  String columns (``server_id``,
``qname``) are stored as a contiguous UTF-8 pool + offsets so the archive
contains only primitive dtypes.

The same framing backs two consumers:

* :func:`write_npz` / :func:`read_npz` — whole-capture persistence;
* :mod:`repro.capture.spool` — a spilled capture's chunk files, which
  are simply small archives of this format written one bounded chunk at a
  time (see :func:`view_to_arrays` / :func:`arrays_to_view`).
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Union

import numpy as np

from .store import CaptureStore, CaptureView

FORMAT_VERSION = 1

_STRING_COLUMNS = ("server_id", "qname")
_NUMERIC_COLUMNS = (
    "timestamp",
    "family",
    "src_hi",
    "src_lo",
    "transport",
    "qtype",
    "rcode",
    "edns_bufsize",
    "do_bit",
    "response_size",
    "truncated",
    "tcp_rtt_ms",
)


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
    pool = np.frombuffer(blob, dtype=np.uint8).copy()
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


def view_to_arrays(view: CaptureView) -> Dict[str, np.ndarray]:
    """A view's columns as primitive-dtype arrays ready for ``np.savez``."""
    arrays = {"__meta__": np.array([FORMAT_VERSION, len(view)], dtype=np.int64)}
    for column in _NUMERIC_COLUMNS:
        arrays[column] = getattr(view, column)
    for column in _STRING_COLUMNS:
        pool, offsets = _encode_strings(getattr(view, column))
        arrays[f"{column}__pool"] = pool
        arrays[f"{column}__offsets"] = offsets
    return arrays


def arrays_to_view(archive) -> CaptureView:
    """Inverse of :func:`view_to_arrays` (accepts any mapping of arrays)."""
    meta = archive["__meta__"]
    version = int(meta[0])
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported capture format version {version}")
    columns = {name: np.asarray(archive[name]) for name in _NUMERIC_COLUMNS}
    for column in _STRING_COLUMNS:
        columns[column] = _decode_strings(
            archive[f"{column}__pool"], archive[f"{column}__offsets"]
        )
    return CaptureView(**columns)


def write_npz(store: CaptureStore, path: Union[str, Path]) -> int:
    """Write the capture's columns to ``path`` (.npz); returns row count."""
    view = store.view()
    np.savez_compressed(path, **view_to_arrays(view))
    return len(view)


def read_npz(path: Union[str, Path]) -> CaptureView:
    """Load a capture view previously written by :func:`write_npz`.

    Returns a :class:`CaptureView` directly (no append-store round trip):
    the analysis layer operates on views, so reloaded captures plug
    straight in.
    """
    with np.load(path, allow_pickle=False) as archive:
        return arrays_to_view(archive)
