"""Result types of the core traffic metrics.

The numbers are folded by the aggregators in
:mod:`~repro.analysis.streaming` and read through
:class:`~repro.analysis.analytics.DatasetAnalytics`; this module holds
what they return — a Table 5 row, a Table 6 block, a Table 3 row — and
the Figure 2 bucket list.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..dnscore import RRType

#: The Figure 2 bar buckets; qtypes outside land under "other".
RRTYPE_BUCKETS = (
    RRType.A, RRType.AAAA, RRType.NS, RRType.DS, RRType.DNSKEY, RRType.MX,
)


@dataclass
class TransportRow:
    """One row of Table 5: family and transport splits for one provider."""

    provider: str
    ipv4: float
    ipv6: float
    udp: float
    tcp: float


@dataclass
class InventoryRow:
    """One block of Table 6: resolver address counts per family."""

    provider: str
    total: int
    ipv4: int
    ipv6: int

    @property
    def ipv6_fraction(self) -> float:
        return self.ipv6 / self.total if self.total else 0.0


@dataclass
class DatasetSummary:
    """One row of Table 3."""

    queries_total: int
    queries_valid: int
    resolvers: int
    ases: int

    @property
    def valid_fraction(self) -> float:
        return self.queries_valid / self.queries_total if self.queries_total else 0.0
