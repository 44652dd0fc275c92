"""What the suite compares runs by: capture views, simulation counters
and plain values, each reduced the one way every module reduces it; and
:class:`Outage`, the one way a test takes a server down.

:func:`view_digest` and :func:`assert_views_equal` are dtype-strict — a
column that keeps its values but changes its type is a different capture.
"""

import dataclasses
import hashlib
import json

import numpy as np

from repro.faults import FaultInjector, FaultPlan, OutageWindow

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
    chunk accounting, :data:`SHARD_ROUNDED` and the ``analysis.*``
    counters.  Every shard publishes those for its own fold, and some are
    tallies of the distinct values it saw (the sketch's updates, evictions
    and tracked items, the sovereignty cut's countries), so their sum moves
    with the worker count: with them kept, every oracle case's one-worker
    rows and two-worker rows give two different digests."""
    return {
        key: value for key, value in snapshot.counters.items()
        if not key.startswith(("runtime.", "capture.spool.", "analysis."))
        and key not in SHARD_ROUNDED
    }


#: Seconds of simulated time an :class:`Outage` injector's window spans,
#: from 0: every timestamp the unit tests send at falls inside it.
OUTAGE_WINDOW_S = 1e9


class Outage(FaultInjector):
    """A fault injector under which ``server_ids`` (``OutageWindow``
    patterns) answer nothing until ``until`` simulated seconds, as in the
    product: the exchange is dropped before it reaches the server.
    ``asked`` keeps ``(server_id, family)`` of every UDP exchange a
    resolver started, dropped or not."""

    def __init__(self, *server_ids, until=OUTAGE_WINDOW_S):
        plan = FaultPlan(outages=tuple(
            OutageWindow(server_id, 0.0, until / OUTAGE_WINDOW_S)
            for server_id in server_ids
        ))
        super().__init__(plan, 0, 0.0, OUTAGE_WINDOW_S)
        self.down = set(server_ids)
        self.asked = []

    def udp_fate(self, server_id, family, timestamp, qname_key):
        self.asked.append((server_id, family))
        return super().udp_fate(server_id, family, timestamp, qname_key)
