"""Mergeable frequency sketches: space-saving top-k and count-min.

The streaming registry (PR 5) has so far held only *exact* aggregator
state — counters, sets, histograms whose merge algebra is trivially
lossless.  Heavy-hitter detection over query names breaks that pattern:
the distinct-name universe grows with volume (junk names are random), so
any exact top-k state is unbounded.  These two classic sketches bound the
state while keeping guarantees strong enough to *assert in tests*:

:class:`SpaceSavingSketch` (Metwally et al. 2005, "stream-summary")
    At most ``capacity`` tracked items.  Estimates never underestimate,
    each tracked item carries an explicit per-item error ceiling, and any
    item whose true count exceeds the current minimum bucket is guaranteed
    present.  For a single-fed sketch the minimum bucket — and therefore
    every per-item error — is at most ``N / capacity``.

:class:`CountMinSketch` (Cormode & Muthukrishnan 2005)
    A ``depth × width`` counter table.  Estimates never underestimate, and
    each overestimate is at most ``εN`` (``ε = e / width``) with
    confidence ``1 − δ`` (``δ = e^−depth``).  Its merge (element-wise
    table addition) is *exact*: merging shard tables is bit-identical to
    feeding the concatenated stream, in any order and grouping.

Merge semantics
---------------
``CountMinSketch.merge`` satisfies the full exact algebra the registry's
property tests demand (associative, order-insensitive, partition ==
whole).  ``SpaceSavingSketch.merge`` is necessarily lossy — two shard
summaries cannot reconstruct the exact summary of the concatenated
stream — but it is *sound*: the merged summary still brackets every true
count (``estimate − error ≤ true ≤ estimate``) and still surfaces every
item heavier than the merged floor.  ``tests/test_sketches.py`` pins all
of these down under adversarial streams (Zipf, all-distinct,
single-dominant, interleaved partitions).

Hashing is deterministic and RNG-free (keyed blake2b), so sketch contents
are a pure function of (configuration, feed sequence) — reruns of the
same pipeline are bit-identical, and fault-injection verdicts are never
perturbed.
"""

from __future__ import annotations

import hashlib
import heapq
import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["CountMinSketch", "SpaceSavingSketch"]


def _require_matching(a, b, what: str) -> None:
    if type(a) is not type(b) or a.config() != b.config():
        raise ValueError(
            f"cannot merge differently-configured {what}: "
            f"{getattr(b, 'config', lambda: '?')()} into {a.config()}"
        )


class SpaceSavingSketch:
    """Deterministic space-saving summary over string items.

    Tracks at most ``capacity`` items as ``item → (count, error)``:

    * ``count`` is a guaranteed **overestimate** of the item's true
      frequency (``true ≤ count``);
    * ``error`` caps the overestimate (``count − error ≤ true``) — it is
      the minimum-bucket value at the moment the item displaced another.

    Eviction picks the minimum ``(count, insertion-sequence)`` pair, so
    behaviour is a pure function of the feed sequence (no hashing, no
    RNG).  ``total`` is the summed weight of everything ever fed
    (including weight absorbed from merged sketches).
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = int(capacity)
        self.total = 0
        #: item → [count, error, insertion_seq]
        self._entries: Dict[str, List[int]] = {}
        #: Eviction order: one ``(count, insertion_seq, item)`` per tracked
        #: item.  A stored count may lag the entry's (hits do not touch the
        #: heap) but never leads it, because counts only grow.
        self._heap: List[Tuple[int, int, str]] = []
        self._seq = 0
        #: Telemetry: item-weight updates fed and evictions performed.
        self.updates = 0
        self.evictions = 0

    def config(self) -> tuple:
        return (self.capacity,)

    def __len__(self) -> int:
        return len(self._entries)

    # -- feeding ---------------------------------------------------------------

    def feed(self, item: str, count: int = 1) -> None:
        """Add ``count`` observations of ``item``."""
        self.feed_many((item,), (count,))

    def feed_many(self, items: Sequence[str], counts: Sequence[int]) -> None:
        """Add ``counts[i]`` observations of ``items[i]``, in order — the
        same summary as feeding them one by one.  Non-positive counts are
        skipped."""
        entries, heap, capacity = self._entries, self._heap, self.capacity
        heappush, heapreplace = heapq.heappush, heapq.heapreplace
        seq, total, updates, evictions = self._seq, 0, 0, 0
        for item, count in zip(items, counts):
            if count <= 0:
                continue
            count = int(count)
            total += count
            updates += 1
            entry = entries.get(item)
            if entry is not None:
                entry[0] += count
                continue
            if len(entries) < capacity:
                entries[item] = [count, 0, seq]
                heappush(heap, (count, seq, item))
                seq += 1
                continue
            # Refresh lagging tops until the top is current.  Every other
            # stored pair is at most its item's real one, so a current top
            # is the true minimum ``(count, insertion_seq)``.
            while True:
                floor, victim_seq, victim = heap[0]
                current = entries[victim][0]
                if current == floor:
                    break
                heapreplace(heap, (current, victim_seq, victim))
            del entries[victim]
            entries[item] = [floor + count, floor, seq]
            heapreplace(heap, (floor + count, seq, item))
            seq += 1
            evictions += 1
        self._seq = seq
        self.total += total
        self.updates += updates
        self.evictions += evictions

    # -- queries ---------------------------------------------------------------

    def min_count(self) -> int:
        """The minimum tracked count — the floor below which an absent
        item's true count must lie.  0 while the summary has free slots
        (an absent item then provably has true count 0)."""
        if len(self._entries) < self.capacity:
            return 0
        return min(entry[0] for entry in self._entries.values())

    def estimate(self, item: str) -> int:
        """Upper bound on the item's true count (never an underestimate)."""
        entry = self._entries.get(item)
        if entry is None:
            return self.min_count()
        return entry[0]

    def error(self, item: str) -> int:
        """Ceiling on ``estimate(item) − true_count(item)``."""
        entry = self._entries.get(item)
        if entry is None:
            return self.min_count()
        return entry[1]

    def bounds(self, item: str) -> Tuple[int, int]:
        """``(lo, hi)`` with ``lo ≤ true_count(item) ≤ hi``."""
        entry = self._entries.get(item)
        if entry is None:
            floor = self.min_count()
            return (0, floor)
        return (max(0, entry[0] - entry[1]), entry[0])

    def top(self, k: Optional[int] = None) -> List[Tuple[str, int, int]]:
        """Tracked items as ``(item, count, error)``, heaviest first
        (ties broken by item text, so output is order-canonical)."""
        ranked = sorted(
            ((item, entry[0], entry[1]) for item, entry in self._entries.items()),
            key=lambda row: (-row[1], row[0]),
        )
        return ranked if k is None else ranked[:k]

    # -- algebra ---------------------------------------------------------------

    def merge(self, other: "SpaceSavingSketch") -> None:
        """Absorb another summary (same capacity).

        For each item in either summary the merged count/error add the
        other side's count/error when present and its floor otherwise
        (an absent item's true count is at most that floor, so soundness
        — ``count − error ≤ true ≤ count`` — is preserved).  The union is
        then re-truncated to ``capacity`` by ``(count desc, item asc)``,
        which keeps every item heavier than the new floor.
        """
        _require_matching(self, other, "SpaceSavingSketch")
        floor_a, floor_b = self.min_count(), other.min_count()
        merged: Dict[str, List[int]] = {}
        for item in set(self._entries) | set(other._entries):
            ours = self._entries.get(item)
            theirs = other._entries.get(item)
            count = (ours[0] if ours else floor_a) + (theirs[0] if theirs else floor_b)
            error = (ours[1] if ours else floor_a) + (theirs[1] if theirs else floor_b)
            merged[item] = [count, error, 0]
        kept = sorted(merged.items(), key=lambda kv: (-kv[1][0], kv[0]))
        self._entries = {}
        for seq, (item, entry) in enumerate(kept[: self.capacity]):
            entry[2] = seq
            self._entries[item] = entry
        self._seq = len(self._entries)
        self._heap = [
            (entry[0], entry[2], item) for item, entry in self._entries.items()
        ]
        heapq.heapify(self._heap)
        self.total += other.total
        self.updates += other.updates
        self.evictions += other.evictions

    def state(self) -> dict:
        """Canonical plain-data snapshot (order-normalised; equal states
        iff the summaries answer every query identically)."""
        return {
            "capacity": self.capacity,
            "total": self.total,
            "entries": sorted(
                (item, entry[0], entry[1])
                for item, entry in self._entries.items()
            ),
        }


class CountMinSketch:
    """Count-min sketch over string items with exact merge algebra.

    ``depth`` independent keyed-blake2b hash rows over ``width`` counters.
    Estimates are minima over the rows: never below the true count, and
    above it by more than ``εN`` (``ε = e/width``) with probability at
    most ``δ = e^−depth`` per query.  The table is a plain int64 numpy
    array; ``merge`` is element-wise addition, so partition == whole holds
    *bit-exactly* and the sketch participates in the registry's exact
    algebra property tests unchanged.  For the same reason a batch feed
    (:meth:`feed_many`) and the same items fed one at a time give
    identical tables.
    """

    def __init__(self, width: int = 1024, depth: int = 4, seed: int = 0):
        if width < 1 or depth < 1:
            raise ValueError("width and depth must be >= 1")
        self.width = int(width)
        self.depth = int(depth)
        self.seed = int(seed)
        self.total = 0
        self.table = np.zeros((self.depth, self.width), dtype=np.int64)
        #: Telemetry: item-weight updates fed.
        self.updates = 0
        self._keys = tuple(
            f"repro-cm-{self.seed}-{row}".encode() for row in range(self.depth)
        )

    def config(self) -> tuple:
        return (self.width, self.depth, self.seed)

    @property
    def epsilon(self) -> float:
        """Overestimate factor: estimates exceed truth by ≤ ``epsilon *
        total`` at :attr:`confidence`."""
        return math.e / self.width

    @property
    def confidence(self) -> float:
        """Per-query probability that the εN bound holds: ``1 − e^−depth``."""
        return 1.0 - math.exp(-self.depth)

    def _indices(self, item: str) -> List[int]:
        data = item.encode("utf-8", "surrogateescape")
        return [
            int.from_bytes(
                hashlib.blake2b(data, digest_size=8, key=key).digest(), "little"
            )
            % self.width
            for key in self._keys
        ]

    # -- feeding ---------------------------------------------------------------

    def feed(self, item: str, count: int = 1) -> None:
        self.feed_many((item,), (count,))

    def feed_many(self, items: Sequence[str], counts: Sequence[int]) -> None:
        """Add ``counts[i]`` observations of ``items[i]`` in one bulk step
        per hash row; non-positive counts are skipped.  Each item is
        encoded once, and its bucket in every row is the one
        :meth:`_indices` names."""
        counts = np.asarray(counts, dtype=np.int64)
        keep = counts > 0
        if not keep.all():
            items = [item for item, kept in zip(items, keep.tolist()) if kept]
            counts = counts[keep]
        if not len(counts):
            return
        self.total += int(counts.sum())
        self.updates += len(counts)
        data = [item.encode("utf-8", "surrogateescape") for item in items]
        blake2b, width = hashlib.blake2b, np.uint64(self.width)
        for row, key in enumerate(self._keys):
            digests = b"".join(
                [blake2b(d, digest_size=8, key=key).digest() for d in data]
            )
            # ``np.add.at``, not fancy ``+=``: two items landing in one
            # bucket within a batch must both count.
            np.add.at(
                self.table[row], np.frombuffer(digests, dtype="<u8") % width, counts
            )

    # -- queries ---------------------------------------------------------------

    def estimate(self, item: str) -> int:
        """Upper bound on the item's true count (never an underestimate)."""
        return int(
            min(
                self.table[row, index]
                for row, index in enumerate(self._indices(item))
            )
        )

    def error_bound(self) -> float:
        """The εN overestimate ceiling at the sketch's confidence."""
        return self.epsilon * self.total

    # -- algebra ---------------------------------------------------------------

    def merge(self, other: "CountMinSketch") -> None:
        _require_matching(self, other, "CountMinSketch")
        self.table += other.table
        self.total += other.total
        self.updates += other.updates

    def state(self) -> dict:
        """Canonical plain-data snapshot — exact, so partition == whole
        compares equal bit-for-bit."""
        return {
            "width": self.width,
            "depth": self.depth,
            "seed": self.seed,
            "total": self.total,
            "table": self.table.tolist(),
        }

    def __getstate__(self):
        state = self.__dict__.copy()
        state.pop("_keys")
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._keys = tuple(
            f"repro-cm-{self.seed}-{row}".encode() for row in range(self.depth)
        )
