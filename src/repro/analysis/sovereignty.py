"""Digital-sovereignty analysis: traffic re-cut by country and bloc.

The paper attributes queries to the five cloud providers (Table 1);
Boeira et al. ("Traffic Centralization and Digital Sovereignty",
PAPERS.md) re-cut the same traffic by *jurisdiction* — which country's
(or bloc's) operators terminate the queries, and how much of each
jurisdiction's resolver traffic rides on the hyperscaler clouds.  This
module supplies that lens as a mergeable single-pass aggregator in the
PR 5 registry:

* the attribution layer already labels every row with the registry
  country of its origin AS (``AttributionResult.countries``);
* :class:`SovereigntyAggregator` folds exact per-country query and
  response-byte counts plus the per-(country, provider-label) cross cut;
* :func:`SovereigntyAggregator.finalize` rolls countries up into
  jurisdiction blocs (EU-27, Five Eyes, BRICS) and reports, per country
  and per bloc, the query share, traffic (response-byte) share, and the
  fraction of that jurisdiction's queries attributable to the five
  tracked cloud providers.

All state is exact integer counting — the aggregator participates in the
registry-wide merge-algebra property suite unchanged (partition == whole,
bit-identical across worker counts).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

import numpy as np

from ..capture import CaptureView
from .attribution import OTHER, UNKNOWN, AttributionResult
from .streaming import StreamingAggregator, _require_same_config

#: Jurisdiction blocs rolled up from ISO country codes.  EU-27 plus the
#: two intelligence/economic blocs the sovereignty literature most often
#: cuts by; membership is static metadata, not simulation state.
EU_MEMBERS = frozenset(
    {
        "AT", "BE", "BG", "HR", "CY", "CZ", "DK", "EE", "FI", "FR",
        "DE", "GR", "HU", "IE", "IT", "LV", "LT", "LU", "MT", "NL",
        "PL", "PT", "RO", "SK", "SI", "ES", "SE",
    }
)
FIVE_EYES_MEMBERS = frozenset({"US", "GB", "CA", "AU", "NZ"})
BRICS_MEMBERS = frozenset({"BR", "RU", "IN", "CN", "ZA"})

JURISDICTION_BLOCS: Dict[str, frozenset] = {
    "EU": EU_MEMBERS,
    "Five Eyes": FIVE_EYES_MEMBERS,
    "BRICS": BRICS_MEMBERS,
}


@dataclass
class JurisdictionRow:
    """One country's (or bloc's) cut of the capture."""

    name: str
    queries: int
    response_bytes: int
    query_share: float
    traffic_share: float
    cloud_queries: int      #: queries whose origin AS is one of the 5 CPs
    cloud_share: float      #: cloud_queries / queries (0.0 when empty)


@dataclass
class SovereigntyReport:
    """Finalized sovereignty cut: per-country rows plus bloc rollups."""

    total_queries: int
    total_response_bytes: int
    countries: List[JurisdictionRow] = field(default_factory=list)
    blocs: List[JurisdictionRow] = field(default_factory=list)
    #: The existing 5-CP cut on the same totals, for side-by-side reads.
    provider_queries: Dict[str, int] = field(default_factory=dict)

    def bloc(self, name: str) -> JurisdictionRow:
        for row in self.blocs:
            if row.name == name:
                return row
        return JurisdictionRow(name, 0, 0, 0.0, 0.0, 0, 0.0)


class SovereigntyAggregator(StreamingAggregator):
    """Exact per-country / per-bloc query and traffic counting.

    State is three counters keyed by country (and by (country, label) for
    the cloud cross-cut); merge is counter addition, so the full exact
    algebra (associative, order-insensitive, partition == whole) holds
    bit-for-bit.
    """

    name = "sovereignty"

    def __init__(self, providers: Sequence[str]):
        self.providers = tuple(providers)
        self.total = 0
        self.total_bytes = 0
        self.query_counts: Counter = Counter()          # country → queries
        self.byte_counts: Counter = Counter()           # country → response bytes
        self.label_counts: Counter = Counter()          # (country, label) → queries

    def config(self) -> tuple:
        return (self.providers,)

    def feed(self, view: CaptureView, attribution: AttributionResult) -> None:
        n = len(view)
        if not n:
            return
        self.total += n
        countries = attribution.country_labels
        sizes = view.response_size.astype(np.int64)
        self.total_bytes += int(sizes.sum())
        for country in np.unique(countries.astype(str)):
            mask = countries == country
            country = str(country)
            self.query_counts[country] += int(mask.sum())
            self.byte_counts[country] += int(sizes[mask].sum())
            labels = attribution.providers[mask]
            values, counts = np.unique(labels.astype(str), return_counts=True)
            for label, count in zip(values.tolist(), counts.tolist()):
                self.label_counts[(country, str(label))] += int(count)

    def merge(self, other: "SovereigntyAggregator") -> None:
        _require_same_config(self, other)
        self.total += other.total
        self.total_bytes += other.total_bytes
        self.query_counts.update(other.query_counts)
        self.byte_counts.update(other.byte_counts)
        self.label_counts.update(other.label_counts)

    def state(self):
        return {
            "total": self.total,
            "total_bytes": self.total_bytes,
            "query_counts": dict(sorted(self.query_counts.items())),
            "byte_counts": dict(sorted(self.byte_counts.items())),
            "label_counts": {
                f"{country}|{label}": count
                for (country, label), count in sorted(self.label_counts.items())
            },
        }

    # -- rollups ---------------------------------------------------------------

    def _cloud_queries(self, countries) -> int:
        tracked = set(self.providers)
        return sum(
            count
            for (country, label), count in self.label_counts.items()
            if country in countries and label in tracked
        )

    def _row(self, name: str, members) -> JurisdictionRow:
        queries = sum(self.query_counts[c] for c in members)
        response_bytes = sum(self.byte_counts[c] for c in members)
        cloud = self._cloud_queries(set(members))
        return JurisdictionRow(
            name=name,
            queries=queries,
            response_bytes=response_bytes,
            query_share=(float(queries) / self.total) if self.total else 0.0,
            traffic_share=(
                float(response_bytes) / self.total_bytes if self.total_bytes else 0.0
            ),
            cloud_queries=cloud,
            cloud_share=(float(cloud) / queries) if queries else 0.0,
        )

    def finalize(self) -> SovereigntyReport:
        countries = [
            self._row(country, (country,))
            for country in sorted(self.query_counts)
        ]
        countries.sort(key=lambda row: (-row.queries, row.name))
        blocs = [
            self._row(bloc, sorted(members & set(self.query_counts)))
            for bloc, members in JURISDICTION_BLOCS.items()
        ]
        blocs.sort(key=lambda row: (-row.queries, row.name))
        provider_queries = {p: 0 for p in self.providers}
        provider_queries[OTHER] = 0
        provider_queries[UNKNOWN] = 0
        for (country, label), count in self.label_counts.items():
            if label in provider_queries:
                provider_queries[label] += count
        return SovereigntyReport(
            total_queries=self.total,
            total_response_bytes=self.total_bytes,
            countries=countries,
            blocs=blocs,
            provider_queries=provider_queries,
        )

    def publish_metrics(self, metrics) -> None:
        """Roll this shard's fold volume into the telemetry registry."""
        metrics.counter("analysis.sovereignty.rows").inc(self.total)
        metrics.counter("analysis.sovereignty.countries").inc(
            len(self.query_counts)
        )
