"""Process-persistent parking for built worlds and their parts.

Building a :class:`~repro.sim.driver.SimEnvironment` (zone construction and
signing, fleet setup) costs roughly as much as simulating several thousand
queries.  :class:`EnvironmentCache` is the one parking class behind every
object :mod:`repro.sim.worlds` keeps between simulations so that cost is
paid once per process, not once per dataset or shard:

* **whole environments**, keyed by a deterministic fingerprint of
  ``(descriptor, seed)`` and parked between the shards of one dataset, a
  ``reset_session()`` pass restoring the freshly-built state before reuse;
* **resolver fleets**, keyed ``(vantage, year, seed)`` and borrowed by one
  dataset after another, rewound on the way back in;
* **zones**, keyed by their spec — immutable once sealed, so they are read
  through :meth:`~EnvironmentCache.share` and never checked out.

Two properties make this safe:

* **Determinism** — each key covers every input the parked object was
  built from (for an environment the full frozen
  :class:`~repro.workload.DatasetDescriptor`, including any fault plan, plus
  the seed), so a hit can only ever substitute a bit-identical build.
* **No aliasing** — mutable entries are *popped* on acquire (a parked
  environment or fleet is owned by exactly one simulation at a time) and a
  ``pinned_pid`` guard keeps a parent process from consuming an entry it
  deposited for its fork-children to inherit.

Capacity is bounded per cache (``REPRO_ENV_CACHE``, default 12 entries,
``0`` parks nothing: every dataset builds its whole world from scratch — the
reference path); eviction is FIFO by deposit order.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import threading
from collections import OrderedDict
from typing import Any, Hashable, Optional, Tuple

from ..config import env_cache_capacity


def environment_fingerprint(descriptor: Any, seed: int) -> str:
    """Deterministic fingerprint of everything ``build_environment`` reads.

    The descriptor is a frozen dataclass tree; ``dataclasses.asdict``
    flattens it (fault plans included) and canonical JSON with ``sort_keys``
    plus ``default=repr`` for non-JSON leaves (enums, tuples of dataclasses
    already unwrapped) yields a stable byte string to hash.  Two descriptors
    differing in *any* field — scale, behaviour mix, fault plan, window —
    therefore fingerprint apart, and the same spec always fingerprints the
    same across processes and runs.
    """
    payload = {
        "seed": int(seed),
        "descriptor": dataclasses.asdict(descriptor),
    }
    canonical = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(canonical.encode()).hexdigest()


class EnvironmentCache:
    """Bounded keyed parking lot for built environments, fleets and zones.

    Thread-safe; entries are exclusive (popped on :meth:`acquire`) unless
    read through :meth:`share`.  The cache never resets or rebuilds what it
    holds — callers rewind and deposit (see :mod:`repro.sim.worlds`).
    """

    def __init__(self, capacity: Optional[int] = None):
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Hashable, Tuple[Any, Optional[int]]]" = OrderedDict()
        self._capacity = capacity
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    @property
    def capacity(self) -> int:
        return env_cache_capacity() if self._capacity is None else self._capacity

    def __len__(self) -> int:
        return len(self._entries)

    def acquire(self, fingerprint: Hashable) -> Optional[Any]:
        """Pop and return the environment for ``fingerprint``, or ``None``.

        An entry pinned to the *current* process is left in place and
        reported as a miss: the parent deposited it for forked workers to
        inherit and must not consume it itself (its copy is aliased into
        live result objects).
        """
        if self.capacity == 0:
            return None
        pid = os.getpid()
        with self._lock:
            entry = self._entries.get(fingerprint)
            if entry is not None:
                environment, pinned_pid = entry
                if pinned_pid is None or pinned_pid != pid:
                    del self._entries[fingerprint]
                    self.hits += 1
                    return environment
            self.misses += 1
            return None

    def share(self, key: Hashable) -> Optional[Any]:
        """The entry for ``key`` without checking it out, or ``None``.

        For immutable entries only (sealed zones): any number of live
        environments may hold the same object at once.
        """
        if self.capacity == 0:
            return None
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self.hits += 1
            return entry[0]

    def release(self, fingerprint: Hashable, environment: Any,
                pinned_pid: Optional[int] = None) -> None:
        """Deposit (or re-deposit) an environment for later reuse.

        ``pinned_pid`` marks a deposit that only *other* processes may
        acquire — used by the pool parent to pre-warm the cache its forked
        workers inherit.  Oldest entries are evicted beyond capacity.
        """
        capacity = self.capacity
        if capacity == 0:
            return
        with self._lock:
            self._entries.pop(fingerprint, None)
            self._entries[fingerprint] = (environment, pinned_pid)
            while len(self._entries) > capacity:
                self._entries.popitem(last=False)
                self.evictions += 1

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
