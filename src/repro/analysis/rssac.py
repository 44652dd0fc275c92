"""RSSAC002-style daily aggregate statistics.

The paper (section 3) compares B-Root against the 11 root letters that
publish RSSAC002 measurements.  This module computes the corresponding
aggregates from a capture: per-day traffic volume by transport and address
family, NXDOMAIN share, and unique-source counts — the same report a root
operator would publish for a simulated letter.  Every run folds the
per-day counts in its shards (:class:`RSSACAggregator`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from ..capture import CaptureView, Transport
from ..dnscore import RCode
from .attribution import AttributionResult
from .streaming import StreamingAggregator, _require_same_config

#: Source keys a day may hold beyond twice its distinct ones before they
#: are cut down to the distinct ones.
PENDING_KEYS = 65536


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


def _distinct(parts: List[np.ndarray]) -> np.ndarray:
    """The distinct rows of some :meth:`~repro.capture.CaptureView.address_keys`
    arrays, in byte order (``np.unique`` over the raw 17-byte rows)."""
    keys = np.concatenate(parts)
    return np.unique(keys.view(f"V{keys.dtype.itemsize}")).view(keys.dtype)


class RSSACAggregator(StreamingAggregator):
    """Per UTC day (integer days since the epoch): the query, UDP, IPv6
    and NXDOMAIN counts and the distinct source addresses, merged by
    addition and union.  A day's sources are address-key arrays (17 bytes
    a row), cut down to the distinct keys when they pile up, at the end
    of a fold, when read and when pickled: a run keeps little, and a fold
    neither inserts each row into a set nor re-sorts every chunk.
    """

    name = "rssac"

    def __init__(self):
        #: day → [queries, udp, v6, nxdomain].
        self.counts: Dict[int, List[int]] = {}
        #: day → source address-key arrays.
        self.sources: Dict[int, List[np.ndarray]] = {}

    def feed(self, view: CaptureView, attribution: AttributionResult) -> None:
        days = (view.timestamp // 86400.0).astype(np.int64)
        flags = (
            view.transport == int(Transport.UDP),
            view.family == 6,
            view.rcode == int(RCode.NXDOMAIN),
        )
        for day in np.unique(days).tolist():
            mask = days == day
            row = self.counts.setdefault(day, [0, 0, 0, 0])
            row[0] += int(np.count_nonzero(mask))
            for column, flag in enumerate(flags, 1):
                row[column] += int(np.count_nonzero(flag & mask))
            self._add_sources(day, [view.address_keys(mask)])

    def merge(self, other: "RSSACAggregator") -> None:
        _require_same_config(self, other)
        for day, counts in other.counts.items():
            row = self.counts.setdefault(day, [0, 0, 0, 0])
            for column, count in enumerate(counts):
                row[column] += count
        for day, parts in other.sources.items():
            self._add_sources(day, parts)

    def _add_sources(self, day: int, parts: List[np.ndarray]) -> None:
        mine = self.sources.setdefault(day, [])
        mine.extend(parts)
        if sum(map(len, mine)) > 2 * len(mine[0]) + PENDING_KEYS:
            mine[:] = [_distinct(mine)]

    def distinct_sources(self) -> Dict[int, np.ndarray]:
        """Each day's distinct source keys, kept as the day's one array."""
        for parts in self.sources.values():
            parts[:] = [_distinct(parts)]
        return {day: parts[0] for day, parts in sorted(self.sources.items())}

    def __getstate__(self):
        self.distinct_sources()
        return self.__dict__

    def state(self):
        return {
            "counts": {day: tuple(self.counts[day]) for day in sorted(self.counts)},
            "sources": {
                day: keys.tolist() for day, keys in self.distinct_sources().items()
            },
        }

    def finalize(self) -> RSSACSummary:
        """Collapse the daily series into one summary row."""
        if not self.counts:
            return RSSACSummary(0, 0, 0.0, 0, 0.0, 0.0, 0.0, 0)
        days = len(self.counts)
        total, udp, v6, nxdomain = (sum(column) for column in zip(*self.counts.values()))
        return RSSACSummary(
            days=days,
            total_queries=total,
            mean_daily_queries=total / days,
            peak_daily_queries=max(row[0] for row in self.counts.values()),
            udp_share=udp / total,
            v6_share=v6 / total,
            nxdomain_share=nxdomain / total,
            unique_sources_peak=max(map(len, self.distinct_sources().values())),
        )
