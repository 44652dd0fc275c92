"""Market-concentration indices over DNS traffic.

The paper quantifies centralization as "share of queries from 5 providers".
This module adds the standard concentration measures the paper's related
work (Internet Society consolidation reports) uses, computed over the
per-AS query distribution of a capture:

* **CR-n** — combined share of the top-n ASes (CR-5, CR-20, ...),
* **HHI** — Herfindahl–Hirschman index (sum of squared shares; the
  antitrust screening measure; >0.25 is "highly concentrated"),
* **Gini** — inequality of the per-AS query distribution,
* **effective competitors** — 1/HHI, the equivalent number of equal-share
  senders.

These are the natural "future work" extension of the paper: a single
scalar tracking centralization across vantages and years.  Every run
folds the per-AS counts as it freezes its capture (:class:`ConcentrationAggregator`),
the reduction Boeira et al. apply per jurisdiction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

import numpy as np

from .attribution import AttributionResult
from .streaming import StreamingAggregator


@dataclass
class ConcentrationReport:
    """Concentration measures of one capture's per-AS traffic."""

    total_queries: int
    as_count: int
    cr5: float
    cr20: float
    hhi: float
    gini: float

    @property
    def effective_competitors(self) -> float:
        """The number of equal-share ASes giving the same HHI."""
        return 1.0 / self.hhi if self.hhi > 0 else float("inf")

    @property
    def hhi_band(self) -> str:
        """The antitrust-style HHI classification."""
        if self.hhi < 0.01:
            return "unconcentrated"
        if self.hhi < 0.15:
            return "low"
        if self.hhi < 0.25:
            return "moderate"
        return "high"


def per_as_counts(attribution: AttributionResult) -> Dict[int, int]:
    """Query counts per (routed) origin AS."""
    asns = attribution.asns[attribution.asns != 0]
    values, counts = np.unique(asns, return_counts=True)
    return {int(a): int(c) for a, c in zip(values, counts)}


def _gini(shares: np.ndarray) -> float:
    """Gini coefficient of a share vector (0 = equal, →1 = concentrated)."""
    if len(shares) == 0:
        return 0.0
    ordered = np.sort(shares)
    n = len(ordered)
    cumulative = np.cumsum(ordered)
    total = cumulative[-1]
    if total == 0:
        return 0.0
    # Standard formula: 1 + 1/n - 2 * sum_i (cum_i) / (n * total)
    return float(1.0 + 1.0 / n - 2.0 * cumulative.sum() / (n * total))


def concentration(attribution: AttributionResult) -> ConcentrationReport:
    """Compute all concentration measures for one capture."""
    return concentration_of_counts(per_as_counts(attribution))


def concentration_of_counts(counts: Dict[int, int]) -> ConcentrationReport:
    """All concentration measures of a per-AS query-count mapping."""
    total = sum(counts.values())
    if total == 0:
        return ConcentrationReport(0, 0, 0.0, 0.0, 0.0, 0.0)
    shares = np.array(sorted(counts.values(), reverse=True), dtype=np.float64)
    shares /= total
    return ConcentrationReport(
        total_queries=total,
        as_count=len(shares),
        cr5=float(shares[:5].sum()),
        cr20=float(shares[:20].sum()),
        hhi=float((shares**2).sum()),
        gini=_gini(shares),
    )


def provider_group_concentration(
    attribution: AttributionResult, providers: Sequence[str]
) -> float:
    """CR over *operator groups* instead of individual ASes: the paper's
    own framing (20 ASes belonging to 5 companies)."""
    labels = attribution.providers.astype(str)
    total = len(labels)
    if total == 0:
        return 0.0
    return float(np.isin(labels, list(providers)).sum()) / total


class ConcentrationAggregator(StreamingAggregator):
    """The per-AS query counts behind :func:`concentration`: a table keyed
    by routed origin AS, so the indices of a chunk-by-chunk fold are those
    of the whole capture, bit for bit."""

    name = "concentration"
    key = ("asn",)

    def where(self, view, attribution):
        return attribution.asns != 0

    def exact_state(self):
        return {"counts": dict(sorted(self.table.sums("asn").items()))}

    def finalize(self) -> ConcentrationReport:
        return concentration_of_counts(self.table.sums("asn"))
