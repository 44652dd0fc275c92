"""What the suite compares runs by: capture views, simulation counters
and plain values, each reduced the one way every module reduces it.

:func:`view_digest` and :func:`assert_views_equal` are dtype-strict — a
column that keeps its values but changes its type is a different capture.
"""

import dataclasses
import hashlib
import json

import numpy as np

#: The scale every whole-matrix test renders the paper's reports at.
REPORT_SCALE = 0.005


def digest(text):
    """blake2b-128 of ``text``."""
    return hashlib.blake2b(text.encode(), digest_size=16).hexdigest()


def _plain(value):
    if dataclasses.is_dataclass(value):
        return {f.name: getattr(value, f.name) for f in dataclasses.fields(value)}
    if isinstance(value, np.ndarray):
        return {"dtype": str(value.dtype), "values": value.tolist()}
    if isinstance(value, np.generic):
        return value.item()
    raise TypeError(type(value).__name__)


def canonical_digest(value):
    """blake2b-128 of ``value``'s canonical JSON (floats by ``repr``)."""
    return digest(json.dumps(value, sort_keys=True, default=_plain))


def view_digest(view):
    """blake2b-128 over every column, in field order (name, dtype, bytes;
    string columns NUL-joined)."""
    hashed = hashlib.blake2b(digest_size=16)
    for name in type(view).__dataclass_fields__:
        column = getattr(view, name)
        hashed.update(f"{name}:{column.dtype}:".encode())
        if column.dtype == object:
            hashed.update("\0".join(column.tolist()).encode())
        else:
            hashed.update(np.ascontiguousarray(column).tobytes())
    return hashed.hexdigest()


def assert_views_equal(a, b):
    """Column-for-column equality of two capture views, dtypes included."""
    assert len(a) == len(b)
    for name in type(a).__dataclass_fields__:
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype, f"column {name}: {x.dtype} != {y.dtype}"
        equal_nan = name == "tcp_rtt_ms"
        assert np.array_equal(x, y, equal_nan=equal_nan), f"column {name} differs"


#: Counters whose total depends on how the fleet was cut into shards:
#: each shard rounds its float sum of injected latency to whole
#: milliseconds before the parent adds the shards up.
SHARD_ROUNDED = {"faults.extra_latency_ms"}


def sim_counters(snapshot):
    """The simulation-facing counters: everything but the ``runtime.*``
    bookkeeping (backend, world stores, plan caches), the ``capture.spool.*``
    chunk accounting, the ``analysis.*`` counters only a streaming run
    publishes, and :data:`SHARD_ROUNDED`."""
    return {
        key: value for key, value in snapshot.counters.items()
        if not key.startswith(("runtime.", "capture.spool.", "analysis."))
        and key not in SHARD_ROUNDED
    }

