"""The analytics facade: every figure/table answer for one dataset.

Experiments ask an :class:`ExperimentContext` for a dataset's
``analytics()`` and call metric methods on it.  There is one set of
reducers — the mergeable aggregators of
:class:`~repro.analysis.streaming.AggregateSet` — and one fold: every
simulated run's shards feed it chunk by chunk while freezing their
captures, and the run carries the merged state as ``run.aggregates``.
:class:`DatasetAnalytics` finalises that state —
:meth:`~DatasetAnalytics.of` a run, or :meth:`~DatasetAnalytics.over` a
view and its attribution, fed once at construction (a hand-built capture
is the one-chunk case).

Every aggregator but one is exact integer counting, so an answer does
not depend on how the rows were chunked; the composition heavy-hitter
list is sketch-derived and agrees between chunkings within its certified
error bounds rather than bit-for-bit.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..clouds import PTRTable
from ..dnscore import RRType
from .concentration import ConcentrationReport
from .edns import BufsizeCDF
from .facebook import DualStackReport, SiteStats
from .google_split import GoogleSplit
from .metrics import (
    RRTYPE_BUCKETS,
    DatasetSummary,
    InventoryRow,
    TransportRow,
)
from .qmin import MonthlyPoint
from .rssac import RSSACSummary
from .streaming import AggregateSet


class DatasetAnalytics:
    """Answers every metric method from an :class:`AggregateSet`.

    A per-provider table answers the list the set was configured with
    (Table 1's unless the caller chose another), in its order; a method
    asked about one provider outside that list rejects it: nothing
    counted it.
    """

    def __init__(self, aggregates: AggregateSet):
        self.aggregates = aggregates

    @classmethod
    def over(
        cls,
        view,
        attribution,
        providers: Optional[Sequence[str]] = None,
    ) -> "DatasetAnalytics":
        """The facade over a view and its attribution, folded here, once."""
        aggregates = AggregateSet(providers)
        aggregates.feed(view, attribution)
        return cls(aggregates)

    @classmethod
    def of(cls, run) -> "DatasetAnalytics":
        """The facade for a :class:`~repro.sim.DatasetRun`: the state its
        shards folded (Table 1's providers)."""
        return cls(run.aggregates)

    def _check_providers(self, providers: Sequence[str]) -> None:
        configured = self.aggregates.providers
        missing = [p for p in providers if p not in configured]
        if missing:
            raise ValueError(
                f"providers {missing} were not aggregated "
                f"(configured: {configured})"
            )

    # -- Figures 1, 2/3, 4 -------------------------------------------------------

    def provider_shares(self) -> Dict[str, float]:
        """Fraction of all captured queries per provider (Figure 1 bars)."""
        return self.aggregates["provider_shares"].finalize()

    def cloud_share(self) -> float:
        """Combined share of the CPs — the paper's ">30% of ccTLD queries
        from 5 clouds" headline number."""
        return float(sum(self.provider_shares().values()))

    def _qtype_share(self, provider: str, rrtype: RRType) -> float:
        agg = self.aggregates["rrtype_mix"]
        total = agg.totals[provider]
        return float(agg.count(provider, int(rrtype))) / total if total else 0.0

    def rrtype_mix(self, provider: str) -> Dict[str, float]:
        """Per-provider query-type distribution (one group of Figure 2
        bars).  Types outside :data:`~repro.analysis.metrics.RRTYPE_BUCKETS`
        are reported under ``"other"``; fractions sum to 1 over the
        provider's queries."""
        self._check_providers((provider,))
        agg = self.aggregates["rrtype_mix"]
        total = agg.totals[provider]
        if total == 0:
            return {**{t.name: 0.0 for t in RRTYPE_BUCKETS}, "other": 0.0}
        out: Dict[str, float] = {}
        covered = 0
        for rrtype in RRTYPE_BUCKETS:
            count = agg.count(provider, int(rrtype))
            covered += count
            out[rrtype.name] = float(count) / total
        out["other"] = float(total - covered) / total
        return out

    def monthly_point(self, provider: str, year: int, month: int) -> MonthlyPoint:
        """One monthly capture as a Figure 3 data point."""
        self._check_providers((provider,))
        return MonthlyPoint(
            year=year,
            month=month,
            ns_share=self._qtype_share(provider, RRType.NS),
            a_share=self._qtype_share(provider, RRType.A),
            aaaa_share=self._qtype_share(provider, RRType.AAAA),
            total_queries=self.aggregates["rrtype_mix"].totals[provider],
        )

    def minimized_fraction(
        self, provider: str, zone_label_count: int, max_cut_depth: int = 1
    ) -> float:
        """Of the provider's NS queries, the fraction whose qname is
        stripped to a registration cut — the Q-min signature.

        ``max_cut_depth`` is how many labels below the zone apex
        registrations can sit: 1 for `.nl` (second level only), 2 for
        `.nz` (second- and third-level registrations)."""
        self._check_providers((provider,))
        return self.aggregates["qmin"].minimized_fraction(
            provider, zone_label_count, max_cut_depth
        )

    def junk_ratios(self) -> Dict[str, float]:
        """Per-provider junk ratio (Figure 4): non-NOERROR responses over
        all of the provider's queries."""
        return self.aggregates["junk"].finalize()

    def overall_junk_ratio(self) -> float:
        """Vantage-wide junk ratio (section 3's per-dataset 'valid' split)."""
        return self.aggregates["junk"].overall()

    # -- Tables 3–6, Figure 6 ----------------------------------------------------

    def dataset_summary(self) -> DatasetSummary:
        """Totals, valid counts, distinct resolvers, distinct ASes (Table 3)."""
        return self.aggregates["summary"].finalize()

    def google_split(self) -> GoogleSplit:
        """The Public-DNS/rest split of Google's traffic (Tables 4/7), over
        the prefix list the aggregates were configured with."""
        return self.aggregates["google_split"].finalize()

    def transport_matrix(self) -> List[TransportRow]:
        """Per-provider IPv4/IPv6 and UDP/TCP query fractions (Table 5)."""
        agg = self.aggregates["transport"]
        rows = []
        for provider in self.aggregates.providers:
            total = agg.totals[provider]
            if total == 0:
                rows.append(TransportRow(provider, 0.0, 0.0, 0.0, 0.0))
                continue
            v6 = float(agg.v6[provider]) / total
            tcp = float(agg.tcp[provider]) / total
            rows.append(TransportRow(provider, 1.0 - v6, v6, 1.0 - tcp, tcp))
        return rows

    def tcp_share(self, provider: str) -> float:
        """Fraction of the provider's queries arriving over TCP."""
        self._check_providers((provider,))
        agg = self.aggregates["transport"]
        total = agg.totals[provider]
        return float(agg.tcp[provider]) / total if total else 0.0

    def resolver_inventory(self, provider: str) -> InventoryRow:
        """Distinct source addresses per family for one provider (Table 6;
        the paper's 'resolvers' unit is distinct addresses)."""
        self._check_providers((provider,))
        agg = self.aggregates["inventory"]
        v4, v6 = len(agg.v4[provider]), len(agg.v6[provider])
        return InventoryRow(provider, v4 + v6, v4, v6)

    def bufsize_cdf(self, provider: str) -> BufsizeCDF:
        """CDF of advertised EDNS0 sizes over the provider's *UDP* queries
        (Figure 6); queries without EDNS0 count at the 512-octet limit."""
        self._check_providers((provider,))
        return self.aggregates["edns"].finalize_provider(provider)

    def truncation_table(self) -> Dict[str, float]:
        """Per provider, the fraction of its UDP queries whose answer came
        back truncated (TC=1) — section 4.4's headline percentages."""
        agg = self.aggregates["edns"]
        return {p: agg.truncation_ratio(p) for p in self.aggregates.providers}

    # -- the re-cuts ---------------------------------------------------------------

    def sovereignty(self):
        """Country/bloc cut (:class:`~repro.analysis.sovereignty.SovereigntyReport`)
        over the configured provider list; exact integer arithmetic."""
        return self.aggregates["sovereignty"].finalize()

    def composition(self, top_k: int = 10):
        """Taxonomy cut (:class:`~repro.analysis.composition.CompositionReport`).

        The category/provider counts are exact; the heavy-hitter list is
        sketch-derived, so it depends on how the rows were chunked —
        within the certified error bounds."""
        return self.aggregates["composition"].finalize(top_k)

    def concentration(self) -> ConcentrationReport:
        """Per-AS concentration indices (HHI, CR-n, Gini) of the whole
        capture, from the merged per-AS counts; exact."""
        return self.aggregates.concentration.finalize()

    def facebook_sites(
        self, ptr_table: PTRTable, server_id: str
    ) -> Tuple[List[SiteStats], DualStackReport]:
        """Figures 5/8: the Facebook resolvers' per-site query volumes and
        median TCP RTTs toward one server, sites named by ``ptr_table``,
        plus the PTR-based dual-stack classification; exact."""
        return self.aggregates.facebook_sites.finalize(ptr_table, server_id)

    def rssac(self) -> RSSACSummary:
        """The RSSAC002-style rollup of the capture's UTC days; exact."""
        return self.aggregates.rssac.finalize()

    def provider_group_share(self) -> float:
        """The configured providers' combined share as one ratio of folded
        counts: the double ``provider_group_concentration`` gives (the
        :meth:`cloud_share` sum of per-provider ratios can differ in ulps)."""
        shares = self.aggregates["provider_shares"]
        return sum(shares.counts.values()) / shares.total if shares.total else 0.0
