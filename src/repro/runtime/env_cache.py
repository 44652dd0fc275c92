"""Worker-persistent environment cache.

Building a :class:`~repro.sim.driver.SimEnvironment` (zone construction and
signing, fleet setup) costs roughly as much as simulating several thousand
queries, and the sharded runtime of :mod:`repro.runtime` used to pay that
cost once *per shard*.  This module lets each worker process pay it once per
**dataset**: environments are keyed by a deterministic fingerprint of
``(descriptor, seed)`` and parked here between shards, with a
``reset_session()`` pass restoring the freshly-built state before reuse.

Two properties make this safe:

* **Determinism** — the fingerprint covers every input
  :func:`repro.sim.driver.build_environment` consumes (the full frozen
  :class:`~repro.workload.DatasetDescriptor`, including any fault plan, plus
  the seed), so a cache hit can only ever substitute a bit-identical build.
* **No aliasing** — entries are *popped* on acquire (a cached environment is
  owned by exactly one simulation at a time) and a ``pinned_pid`` guard
  keeps a parent process from consuming an entry it deposited for its
  fork-children to inherit.

Capacity is bounded (``REPRO_ENV_CACHE``, default 4 entries, ``0`` disables
caching entirely); eviction is FIFO by deposit order.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import threading
from collections import OrderedDict
from typing import Any, Optional, Tuple

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
    """Bounded fingerprint-keyed parking lot for built environments.

    Thread-safe; entries are exclusive (popped on acquire).  The cache never
    resets or rebuilds environments itself — callers reset on acquire and
    deposit on release (see :func:`repro.sim.driver.acquire_environment`).
    """

    def __init__(self, capacity: Optional[int] = None):
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, Tuple[Any, Optional[int]]]" = OrderedDict()
        self._capacity = capacity
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    @property
    def capacity(self) -> int:
        return env_cache_capacity() if self._capacity is None else self._capacity

    def __len__(self) -> int:
        return len(self._entries)

    def acquire(self, fingerprint: str) -> Optional[Any]:
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

    def release(self, fingerprint: str, environment: Any,
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
