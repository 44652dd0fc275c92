"""Resolver cache: positive, negative, and aggressive-NSEC caching.

Caching is why authoritative servers only see a resolver's *cache misses*
(paper section 2) — the single most important behaviour to get right, since
every ratio the paper reports is computed over cache-miss traffic.

Three stores:

* positive cache — (qname, qtype) → records, TTL-bounded,
* negative cache — qname → NXDOMAIN/NODATA proof, TTL-bounded (RFC 2308),
* NSEC range cache — per-zone sorted intervals enabling RFC 8198
  "aggressive use": a cached NSEC proving a gap lets the resolver
  synthesise NXDOMAIN for *any* name in the gap without a query.  The
  paper hypothesises this mechanism behind the 2020 drop in cloud junk
  at B-Root (section 4.2.3).  Each name's verdict is remembered until its
  zone learns another range: the cyclic-dependency walk (section 4.2.1)
  asks it for the same few names at every step.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..dnscore import Name, RCode, ResourceRecord, RRType

#: A name's casefolded :attr:`~repro.dnscore.Name.key`, or its
#: :attr:`~repro.dnscore.Name.canonical` key (the same labels reversed).
NameKey = Tuple[bytes, ...]

#: Cap applied to record TTLs, in seconds (resolvers commonly clamp at a day).
MAX_TTL = 86400.0
#: TTL of a negative entry whose answer carried none (RFC 2308), in seconds.
NEGATIVE_TTL = 900.0


@dataclass
class CacheEntry:
    """One positive cache line."""

    records: List[ResourceRecord]
    expires_at: float


@dataclass
class NegativeEntry:
    """One negative cache line (RFC 2308)."""

    rcode: RCode
    expires_at: float


@dataclass
class CacheStats:
    """What the cache answered without a positive or negative line: names
    proven absent by a cached NSEC range.  (Hits and misses are the
    resolver's own count, ``ResolverStats``.)"""

    nsec_synthesised: int = 0


class ResolverCache:
    """TTL-bounded DNS cache with optional aggressive NSEC use.

    Record TTLs are capped at :data:`MAX_TTL`; a negative entry given no
    TTL lives :data:`NEGATIVE_TTL` seconds.

    Parameters
    ----------
    aggressive_nsec:
        Enable RFC 8198 synthesis from cached NSEC ranges.
    """

    def __init__(self, aggressive_nsec: bool = False):
        self.aggressive_nsec = aggressive_nsec
        self.stats = CacheStats()
        # Every table is keyed by names' keys, not by the names: a tuple of
        # bytes hashes and compares in C, and is as case-insensitive.
        self._positive: Dict[Tuple[NameKey, RRType], CacheEntry] = {}
        self._negative: Dict[NameKey, NegativeEntry] = {}
        # zone key -> sorted list of (owner, next) NSEC gaps, each name
        # as its canonical key: tuples that order like the names (RFC 4034
        # section 6.1) and compare without a Python-level call.
        self._nsec_ranges: Dict[NameKey, List[Tuple[NameKey, NameKey]]] = {}
        # zone key -> name key -> whether the zone's ranges cover the name;
        # emptied whenever the zone gains a range.
        self._nsec_verdicts: Dict[NameKey, Dict[NameKey, bool]] = {}

    # -- positive ----------------------------------------------------------

    def put(
        self,
        now: float,
        qname: Name,
        qtype: RRType,
        records: Sequence[ResourceRecord],
        ttl: float,
    ) -> None:
        """Cache a positive answer for ``ttl`` seconds (at most
        :data:`MAX_TTL`); the caller knows the TTL its records carry."""
        if not records:
            raise ValueError("use put_negative for empty answers")
        self._positive[(qname.key, qtype)] = CacheEntry(
            list(records), now + (ttl if ttl < MAX_TTL else MAX_TTL)
        )

    def get(self, now: float, qname: Name, qtype: RRType) -> Optional[List[ResourceRecord]]:
        """Positive lookup: the live records, or ``None``; an expired
        entry is evicted on sight."""
        key = (qname.key, qtype)
        entry = self._positive.get(key)
        if entry is not None:
            if entry.expires_at > now:
                return entry.records
            del self._positive[key]
        return None

    # -- negative ----------------------------------------------------------

    def put_negative(self, now: float, qname: Name, rcode: RCode, ttl: Optional[float] = None) -> None:
        """Cache an NXDOMAIN/NODATA outcome."""
        ttl = NEGATIVE_TTL if ttl is None else min(ttl, MAX_TTL)
        self._negative[qname.key] = NegativeEntry(rcode, now + ttl)

    def get_negative(self, now: float, qname: Name) -> Optional[RCode]:
        entry = self._negative.get(qname.key)
        if entry is not None and entry.expires_at > now:
            return entry.rcode
        if entry is not None:
            del self._negative[qname.key]
        return None

    # -- aggressive NSEC -----------------------------------------------------

    def add_nsec(self, zone: Name, owner: Name, next_name: Name) -> None:
        """Record an NSEC gap learned from a negative answer."""
        if not self.aggressive_nsec:
            return
        ranges = self._nsec_ranges.get(zone.key)
        if ranges is None:
            ranges = self._nsec_ranges[zone.key] = []
            self._nsec_verdicts[zone.key] = {}
        entry = (owner.canonical, next_name.canonical)
        index = bisect.bisect_left(ranges, entry)
        if index >= len(ranges) or ranges[index] != entry:
            ranges.insert(index, entry)
            self._nsec_verdicts[zone.key].clear()

    def nsec_covers(self, zone: Name, qname: Name) -> bool:
        """True if a cached NSEC range proves ``qname`` does not exist.

        ``qname`` falls in the gap (owner, next) when it sorts strictly
        between the two.  The zone's last NSEC wraps around to the
        apex/first name, so a gap whose end sorts at-or-before its start
        covers everything after the owner *or* before the next name.

        The verdict is a function of the zone's ranges and the name, so it
        is worked out once per name until the zone learns another range;
        every ``True`` counts one synthesised answer, remembered or not.
        """
        if not self.aggressive_nsec:
            return False
        verdicts = self._nsec_verdicts.get(zone.key)
        if verdicts is None:
            return False
        covered = verdicts.get(qname.key)
        if covered is None:
            ranges = self._nsec_ranges[zone.key]
            count = len(ranges)
            key = qname.canonical
            index = bisect.bisect_right(ranges, (key, key)) - 1
            # Probe the bracketing ranges plus the extremes (wraparound gaps
            # sort by owner, so the covering entry may be the last or first).
            covered = False
            for probe in (index, index + 1, 0, count - 1):
                if 0 <= probe < count:
                    owner, next_key = ranges[probe]
                    if (
                        owner < key < next_key if owner < next_key
                        else key > owner or key < next_key
                    ):
                        covered = True
                        break
            verdicts[qname.key] = covered
        if covered:
            self.stats.nsec_synthesised += 1
        return covered
