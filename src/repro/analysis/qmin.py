"""QNAME-minimisation detection (paper section 4.2.1, Figures 2 and 3).

Two complementary detectors, mirroring the paper's method:

* the **NS-share signal** — a jump in the fraction of NS queries from a
  provider is the first hint of a Q-min rollout
  (:meth:`DatasetAnalytics.ns_share` / ``monthly_point``);
* the **minimised-name check** — the paper "manually verif[ied] the query
  names to ensure they match expected Q-min behavior": a minimised query
  at a TLD carries exactly one label more than the zone
  (:meth:`DatasetAnalytics.minimized_fraction`, folded by
  :class:`~repro.analysis.streaming.QMinAggregator`).

:func:`detect_rollout` runs :func:`~repro.analysis.changepoint.jump_detector`
over a monthly NS-share series, which is how the paper pins Google's
rollout to Dec 2019.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from .changepoint import jump_detector


@dataclass
class MonthlyPoint:
    """One month of a provider's query-type mix (Figure 3 bars)."""

    year: int
    month: int
    ns_share: float
    a_share: float
    aaaa_share: float
    total_queries: int

    @property
    def label(self) -> str:
        return f"{self.year}-{self.month:02d}"


def detect_rollout(
    series: Sequence[MonthlyPoint], jump_factor: float = 2.0, floor: float = 0.10
) -> Optional[Tuple[int, int]]:
    """``(year, month)`` of the first month whose NS share jumps under
    :func:`~repro.analysis.changepoint.jump_detector`; None if none does."""
    index = jump_detector([p.ns_share for p in series], jump_factor, floor)
    if index is None:
        return None
    return (series[index].year, series[index].month)
