"""RSSAC002-style daily aggregate statistics.

The paper (section 3) compares B-Root against the 11 root letters that
publish RSSAC002 measurements.  This module computes the corresponding
aggregates from a capture: per-day traffic volume by transport and address
family, NXDOMAIN share, and unique-source counts — the same report a root
operator would publish for a simulated letter.  Every run folds the
per-day counts as it freezes its capture (:class:`RSSACAggregator`, one
count table).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..capture import Transport
from ..dnscore import RCode
from .streaming import SOURCE, StreamingAggregator, _addresses


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


class RSSACAggregator(StreamingAggregator):
    """One table keyed by UTC day (integer days since the epoch), source
    address, transport and rcode: a day's query, UDP, IPv6 and NXDOMAIN
    counts and its distinct sources are sums and distinct keys of it."""

    name = "rssac"
    key = ("day",) + SOURCE + ("transport", "rcode")

    def exact_state(self):
        rows = self.table.rows()
        days, n = rows["day"], rows["n"]
        flags = (rows["transport"] == int(Transport.UDP), rows["family"] == 6,
                 rows["rcode"] == int(RCode.NXDOMAIN))
        state = {"counts": {}, "sources": {}}
        for day in sorted(set(days.tolist())):
            mask = days == day
            state["counts"][day] = tuple(int(n[mask & flag].sum()) for flag in (mask,) + flags)
            state["sources"][day] = _addresses(rows, mask)
        return state

    def finalize(self) -> RSSACSummary:
        """Collapse the daily series into one summary row."""
        state = self.exact_state()
        counts = state["counts"]
        if not counts:
            return RSSACSummary(0, 0, 0.0, 0, 0.0, 0.0, 0.0, 0)
        days = len(counts)
        total, udp, v6, nxdomain = (sum(column) for column in zip(*counts.values()))
        return RSSACSummary(
            days=days,
            total_queries=total,
            mean_daily_queries=total / days,
            peak_daily_queries=max(row[0] for row in counts.values()),
            udp_share=udp / total,
            v6_share=v6 / total,
            nxdomain_share=nxdomain / total,
            unique_sources_peak=max(map(len, state["sources"].values())),
        )
