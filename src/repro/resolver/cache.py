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
  at B-Root (section 4.2.3).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..dnscore import Name, RCode, ResourceRecord, RRType

#: A name's casefolded :attr:`~repro.dnscore.Name.key`, or its
#: :attr:`~repro.dnscore.Name.canonical` key (the same labels reversed).
NameKey = Tuple[bytes, ...]


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
    proven absent by a cached NSEC range, and stale answers.  (Hits and
    misses are the resolver's own count, ``ResolverStats``.)"""

    nsec_synthesised: int = 0
    stale_hits: int = 0      #: RFC 8767 serve-stale lookups that hit


class ResolverCache:
    """TTL-bounded DNS cache with optional aggressive NSEC use.

    Parameters
    ----------
    max_ttl:
        Cap applied to record TTLs (resolvers commonly clamp, e.g. 1 day).
    negative_ttl:
        TTL for negative entries (clamped by the zone SOA minimum upstream).
    aggressive_nsec:
        Enable RFC 8198 synthesis from cached NSEC ranges.
    serve_stale_window:
        RFC 8767 retention: expired positive entries remain usable via
        :meth:`get_stale` for this many seconds past their TTL (and are
        only evicted once the window has also passed).  ``0`` (default)
        disables retention — expired entries are evicted on sight.
    """

    def __init__(
        self,
        max_ttl: float = 86400.0,
        negative_ttl: float = 900.0,
        aggressive_nsec: bool = False,
        serve_stale_window: float = 0.0,
    ):
        if serve_stale_window < 0:
            raise ValueError("serve_stale_window must be >= 0")
        self.max_ttl = max_ttl
        self.negative_ttl = negative_ttl
        self.aggressive_nsec = aggressive_nsec
        self.serve_stale_window = serve_stale_window
        self.stats = CacheStats()
        # Every table is keyed by names' keys, not by the names: a tuple of
        # bytes hashes and compares in C, and is as case-insensitive.
        self._positive: Dict[Tuple[NameKey, RRType], CacheEntry] = {}
        self._negative: Dict[NameKey, NegativeEntry] = {}
        # zone key -> sorted list of (owner, next) NSEC gaps, each name
        # as its canonical key: tuples that order like the names (RFC 4034
        # section 6.1) and compare without a Python-level call.
        self._nsec_ranges: Dict[NameKey, List[Tuple[NameKey, NameKey]]] = {}

    # -- positive ----------------------------------------------------------

    def put(self, now: float, qname: Name, qtype: RRType, records: Sequence[ResourceRecord]) -> None:
        """Cache a positive answer under the minimum record TTL."""
        if not records:
            raise ValueError("use put_negative for empty answers")
        ttl = min(min(r.ttl for r in records), self.max_ttl)
        self._positive[(qname.key, qtype)] = CacheEntry(list(records), now + ttl)

    def get(self, now: float, qname: Name, qtype: RRType) -> Optional[List[ResourceRecord]]:
        """Positive lookup: the live records, or ``None``."""
        key = (qname.key, qtype)
        entry = self._positive.get(key)
        if entry is not None and entry.expires_at > now:
            return entry.records
        if entry is not None and now >= entry.expires_at + self.serve_stale_window:
            # Past TTL *and* past the stale window (window 0 = on expiry).
            del self._positive[key]
        return None

    def get_stale(self, now: float, qname: Name, qtype: RRType) -> Optional[List[ResourceRecord]]:
        """RFC 8767 lookup: an *expired* positive entry still inside the
        stale window.  Returns None when the entry is fresh (use :meth:`get`),
        absent, or staler than the window allows."""
        if self.serve_stale_window <= 0:
            return None
        entry = self._positive.get((qname.key, qtype))
        if (
            entry is not None
            and entry.expires_at <= now < entry.expires_at + self.serve_stale_window
        ):
            self.stats.stale_hits += 1
            return entry.records
        return None

    # -- negative ----------------------------------------------------------

    def put_negative(self, now: float, qname: Name, rcode: RCode, ttl: Optional[float] = None) -> None:
        """Cache an NXDOMAIN/NODATA outcome."""
        ttl = self.negative_ttl if ttl is None else min(ttl, self.max_ttl)
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
        ranges = self._nsec_ranges.setdefault(zone.key, [])
        entry = (owner.canonical, next_name.canonical)
        index = bisect.bisect_left(ranges, entry)
        if index >= len(ranges) or ranges[index] != entry:
            ranges.insert(index, entry)

    def nsec_covers(self, zone: Name, qname: Name) -> bool:
        """True if a cached NSEC range proves ``qname`` does not exist.

        ``qname`` falls in the gap (owner, next) when it sorts strictly
        between the two.  The zone's last NSEC wraps around to the
        apex/first name, so a gap whose end sorts at-or-before its start
        covers everything after the owner *or* before the next name.
        """
        if not self.aggressive_nsec:
            return False
        ranges = self._nsec_ranges.get(zone.key)
        if not ranges:
            return False
        key = qname.canonical
        index = bisect.bisect_right(ranges, (key, key)) - 1
        # Probe the bracketing ranges plus the extremes (wraparound gaps
        # sort by owner, so the covering entry may be the last or first).
        for probe in {index, index + 1, 0, len(ranges) - 1}:
            if 0 <= probe < len(ranges):
                owner, next_key = ranges[probe]
                if (
                    owner < key < next_key if owner < next_key
                    else key > owner or key < next_key
                ):
                    self.stats.nsec_synthesised += 1
                    return True
        return False
