"""RSSAC002-style daily aggregate statistics.

The paper (section 3) compares B-Root against the 11 root letters that
publish RSSAC002 measurements.  This module computes the corresponding
aggregates from a capture: per-day traffic volume by transport and address
family, RCODE distribution, and unique-source counts — the same report a
root operator would publish for a simulated letter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from ..capture import CaptureView, Transport
from ..dnscore import RCode
from ..netsim import timestamp_to_utc


@dataclass
class DailyTraffic:
    """One day's RSSAC002-shaped aggregates."""

    day: str                      #: "YYYY-MM-DD" (UTC)
    queries: int
    udp_queries: int
    tcp_queries: int
    v4_queries: int
    v6_queries: int
    rcode_counts: Dict[int, int]
    unique_sources: int
    response_size_bytes: int      #: total bytes of responses sent

    @property
    def nxdomain_ratio(self) -> float:
        nx = self.rcode_counts.get(int(RCode.NXDOMAIN), 0)
        return nx / self.queries if self.queries else 0.0


def _day_keys(view: CaptureView) -> np.ndarray:
    """UTC day index (integer days since epoch) per row."""
    return (view.timestamp // 86400.0).astype(np.int64)


def daily_traffic(view: CaptureView) -> List[DailyTraffic]:
    """RSSAC002 'traffic-volume'-style report, one entry per UTC day."""
    if len(view) == 0:
        return []
    days = _day_keys(view)
    out: List[DailyTraffic] = []
    for day in np.unique(days):
        mask = days == day
        rcodes = view.rcode[mask]
        rcode_values, rcode_counts = np.unique(rcodes, return_counts=True)
        date = timestamp_to_utc(float(day) * 86400.0).strftime("%Y-%m-%d")
        out.append(
            DailyTraffic(
                day=date,
                queries=int(mask.sum()),
                udp_queries=int((view.transport[mask] == int(Transport.UDP)).sum()),
                tcp_queries=int((view.transport[mask] == int(Transport.TCP)).sum()),
                v4_queries=int((view.family[mask] == 4).sum()),
                v6_queries=int((view.family[mask] == 6).sum()),
                rcode_counts={
                    int(v): int(c) for v, c in zip(rcode_values, rcode_counts)
                },
                unique_sources=view.unique_address_count(mask),
                response_size_bytes=int(view.response_size[mask].sum()),
            )
        )
    return out


@dataclass
class RSSACSummary:
    """Whole-capture rollup of the daily series."""

    days: int
    total_queries: int
    mean_daily_queries: float
    peak_daily_queries: int
    udp_share: float
    v6_share: float
    nxdomain_share: float
    unique_sources_peak: int


def summarize(view: CaptureView) -> RSSACSummary:
    """Collapse the daily series into one summary row."""
    series = daily_traffic(view)
    if not series:
        return RSSACSummary(0, 0, 0.0, 0, 0.0, 0.0, 0.0, 0)
    total = sum(d.queries for d in series)
    return RSSACSummary(
        days=len(series),
        total_queries=total,
        mean_daily_queries=total / len(series),
        peak_daily_queries=max(d.queries for d in series),
        udp_share=sum(d.udp_queries for d in series) / total,
        v6_share=sum(d.v6_queries for d in series) / total,
        nxdomain_share=sum(
            d.rcode_counts.get(int(RCode.NXDOMAIN), 0) for d in series
        ) / total,
        unique_sources_peak=max(d.unique_sources for d in series),
    )
