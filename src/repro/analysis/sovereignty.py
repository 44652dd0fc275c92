"""Digital-sovereignty analysis: traffic re-cut by country and bloc.

The paper attributes queries to the five cloud providers (Table 1);
Boeira et al. ("Traffic Centralization and Digital Sovereignty",
PAPERS.md) re-cut the same traffic by *jurisdiction* — which country's
(or bloc's) operators terminate the queries, and how much of each
jurisdiction's resolver traffic rides on the hyperscaler clouds.  This
module supplies that lens as one more key column of the count table
(:mod:`~repro.analysis.streaming`):

* the attribution layer already labels every row with the registry
  country of its origin AS (``AttributionResult.countries``);
* :class:`SovereigntyAggregator` keys its table by (country, provider
  label) and sums queries and response bytes;
* :func:`SovereigntyAggregator.finalize` rolls countries up into
  jurisdiction blocs (EU-27, Five Eyes, BRICS) and reports, per country
  and per bloc, the query share, traffic (response-byte) share, and the
  fraction of that jurisdiction's queries attributable to the five
  tracked cloud providers.

All state is exact integer counting, so the cut is bit-identical however
the capture was chunked.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List

from .attribution import OTHER, UNKNOWN
from .streaming import StreamingAggregator

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
    """Exact per-country / per-bloc query and traffic counting: one table
    keyed by (country, provider label) summing queries and response bytes."""

    name = "sovereignty"
    key = ("country", "label")
    measures = ("bytes",)

    def exact_state(self):
        queries = self.table.sums(*self.key)
        response_bytes = self.table.sums(*self.key, value="bytes")
        query_counts, byte_counts = Counter(), Counter()
        for (country, label), count in queries.items():
            query_counts[country] += count
            byte_counts[country] += response_bytes[country, label]
        return {
            "total": sum(queries.values()),
            "total_bytes": sum(response_bytes.values()),
            "query_counts": dict(sorted(query_counts.items())),
            "byte_counts": dict(sorted(byte_counts.items())),
            "label_counts": {
                f"{country}|{label}": count
                for (country, label), count in sorted(queries.items())
            },
        }

    def finalize(self) -> SovereigntyReport:
        state = self.exact_state()
        total, total_bytes = state["total"], state["total_bytes"]
        tracked = set(self.providers)
        cloud = Counter()
        provider_queries = dict.fromkeys(self.providers + (OTHER, UNKNOWN), 0)
        for pair, count in state["label_counts"].items():
            country, label = pair.split("|")
            if label in tracked:
                cloud[country] += count
            if label in provider_queries:
                provider_queries[label] += count

        def row(name: str, members) -> JurisdictionRow:
            queries = sum(state["query_counts"][c] for c in members)
            response_bytes = sum(state["byte_counts"][c] for c in members)
            cloud_queries = sum(cloud[c] for c in members)
            return JurisdictionRow(
                name=name,
                queries=queries,
                response_bytes=response_bytes,
                query_share=(float(queries) / total) if total else 0.0,
                traffic_share=(
                    float(response_bytes) / total_bytes if total_bytes else 0.0
                ),
                cloud_queries=cloud_queries,
                cloud_share=(float(cloud_queries) / queries) if queries else 0.0,
            )

        countries = [row(country, (country,)) for country in state["query_counts"]]
        blocs = [
            row(bloc, sorted(members & set(state["query_counts"])))
            for bloc, members in JURISDICTION_BLOCS.items()
        ]
        for rows in (countries, blocs):
            rows.sort(key=lambda jurisdiction: (-jurisdiction.queries, jurisdiction.name))
        return SovereigntyReport(
            total_queries=total,
            total_response_bytes=total_bytes,
            countries=countries,
            blocs=blocs,
            provider_queries=provider_queries,
        )

    def publish_metrics(self, metrics) -> None:
        """Roll the fold volume into the telemetry registry."""
        state = self.exact_state()
        metrics.counter("analysis.sovereignty.rows").inc(state["total"])
        metrics.counter("analysis.sovereignty.countries").inc(
            len(state["query_counts"])
        )
