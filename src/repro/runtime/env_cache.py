"""Process-persistent parking for the parts simulated worlds share.

Building a world's zones (construction and signing) and its resolver fleet
costs roughly as much as simulating several thousand queries.
:class:`EnvironmentCache` is the one parking class behind both stores
:mod:`repro.sim.worlds` keeps between simulations so that cost is paid
once per process, not once per dataset or shard:

* **resolver fleets**, keyed ``(vantage, year, seed)`` and borrowed by one
  dataset (or one pool shard) after another, rewound on the way back in;
* **zones**, keyed by their spec — immutable once sealed, so they are read
  through :meth:`~EnvironmentCache.share` and never checked out.

Two properties make this safe:

* **Determinism** — each key covers every input the parked object was
  built from, so a hit can only ever substitute a bit-identical build.
* **No aliasing** — mutable entries are *popped* on acquire: a parked
  fleet is owned by exactly one simulation at a time.

Capacity is bounded per cache (default 12 entries: the full matrix's nine
``(vantage, year)`` fleets, and three more so that a run beside it evicts
none); eviction is FIFO by deposit order.  A cache of capacity ``0`` parks
nothing: swapped in for both stores, every dataset builds its whole world
from scratch — the reference path.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Hashable, Optional


class EnvironmentCache:
    """Bounded keyed parking lot for built fleets and zones.

    Thread-safe; entries are exclusive (popped on :meth:`acquire`) unless
    read through :meth:`share`.  The cache never resets or rebuilds what it
    holds — callers rewind and deposit (see :mod:`repro.sim.worlds`).
    """

    def __init__(self, capacity: int = 12):
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        self.capacity = capacity

    def _lookup(self, key: Hashable, pop: bool) -> Optional[Any]:
        if self.capacity == 0:
            return None
        with self._lock:
            return self._entries.pop(key, None) if pop else self._entries.get(key)

    def acquire(self, key: Hashable) -> Optional[Any]:
        """Pop and return the entry for ``key``, or ``None``."""
        return self._lookup(key, pop=True)

    def share(self, key: Hashable) -> Optional[Any]:
        """The entry for ``key`` without checking it out, or ``None``.

        For immutable entries only (sealed zones): any number of live
        environments may hold the same object at once.
        """
        return self._lookup(key, pop=False)

    def release(self, key: Hashable, entry: Any) -> None:
        """Deposit (or re-deposit) an entry for later reuse.  Oldest
        entries are evicted beyond capacity."""
        capacity = self.capacity
        if capacity == 0:
            return
        with self._lock:
            self._entries.pop(key, None)
            self._entries[key] = entry
            while len(self._entries) > capacity:
                self._entries.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
