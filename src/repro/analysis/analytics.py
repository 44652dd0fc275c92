"""The analytics facade: every figure/table answer for one dataset.

Experiments ask an :class:`ExperimentContext` for a dataset's
``analytics()`` and call metric methods on it.  There is one table shape
— the :class:`~repro.analysis.streaming.CountTable` each metric of
:class:`~repro.analysis.streaming.AggregateSet` declares its keys over —
and one fold: every simulated run feeds it chunk by chunk while freezing
its capture, and carries the folded state as ``run.aggregates``.  :class:`DatasetAnalytics` reads each metric's
rendered table or its ``finalize()`` result, never a metric's fields —
:meth:`~DatasetAnalytics.of` a run, or :meth:`~DatasetAnalytics.over` a
view and its attribution, fed once at construction (a hand-built capture
is the one-chunk case).

Every table is exact integer counting, so an answer does not depend on
how the rows were chunked; the composition heavy-hitter list comes from
sketches fed beside the table and agrees between chunkings within its
certified error bounds rather than bit-for-bit.
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

    def __init__(self, aggregates: AggregateSet, ptr_table: Optional[PTRTable] = None):
        self.aggregates = aggregates
        self.ptr_table = ptr_table

    @classmethod
    def over(
        cls,
        view,
        attribution,
        providers: Optional[Sequence[str]] = None,
    ) -> "DatasetAnalytics":
        """The facade over a view and its attribution, folded here, once;
        it has no PTR table, so it answers no :meth:`facebook_sites`."""
        aggregates = AggregateSet(providers)
        aggregates.feed(view, attribution)
        return cls(aggregates)

    @staticmethod
    def of(run) -> "DatasetAnalytics":
        """The facade for a :class:`~repro.sim.DatasetRun`: the state it
        folded (Table 1's providers) and its PTR table, so the facade
        outlives the run."""
        return DatasetAnalytics(run.aggregates, run.ptr_table)

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

    def rrtype_mix(self, provider: str) -> Dict[str, float]:
        """Per-provider query-type distribution (one group of Figure 2
        bars).  Types outside :data:`~repro.analysis.metrics.RRTYPE_BUCKETS`
        are reported under ``"other"``; fractions sum to 1 over the
        provider's queries."""
        self._check_providers((provider,))
        counts = self.aggregates["rrtype_mix"].finalize()[provider]
        total = sum(counts.values())
        if total == 0:
            return {**{t.name: 0.0 for t in RRTYPE_BUCKETS}, "other": 0.0}
        out: Dict[str, float] = {}
        covered = 0
        for rrtype in RRTYPE_BUCKETS:
            count = counts.get(int(rrtype), 0)
            covered += count
            out[rrtype.name] = float(count) / total
        out["other"] = float(total - covered) / total
        return out

    def monthly_point(self, provider: str, year: int, month: int) -> MonthlyPoint:
        """One monthly capture as a Figure 3 data point."""
        self._check_providers((provider,))
        counts = self.aggregates["rrtype_mix"].finalize()[provider]
        total = sum(counts.values())

        def share(rrtype: RRType) -> float:
            return float(counts.get(int(rrtype), 0)) / total if total else 0.0

        return MonthlyPoint(
            year=year,
            month=month,
            ns_share=share(RRType.NS),
            a_share=share(RRType.A),
            aaaa_share=share(RRType.AAAA),
            total_queries=total,
        )

    def minimized_fraction(
        self, provider: str, zone_label_count: int, max_cut_depth: int = 1
    ) -> float:
        """Of the provider's NS queries, the fraction whose qname is
        stripped to a registration cut — the Q-min signature.

        ``max_cut_depth`` is how many labels below the zone apex
        registrations can sit: 1 for `.nl` (second level only), 2 for
        `.nz` (second- and third-level registrations).  Absolute names
        carry one dot per label."""
        self._check_providers((provider,))
        depths = self.aggregates["qmin"].finalize()[provider]
        total = sum(depths.values())
        if total == 0:
            return 0.0
        allowed = {zone_label_count + 1 + depth for depth in range(max_cut_depth)}
        return sum(count for dots, count in depths.items() if dots in allowed) / total

    def junk_ratios(self) -> Dict[str, float]:
        """Per-provider junk ratio (Figure 4): non-NOERROR responses over
        all of the provider's queries."""
        return self.aggregates["junk"].finalize()

    def overall_junk_ratio(self) -> float:
        """Vantage-wide junk ratio (section 3's per-dataset 'valid' split)."""
        state = self.aggregates["junk"].exact_state()
        return state["junk_total"] / state["total"] if state["total"] else 0.0

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
        rows = []
        for provider, (total, v6, tcp) in self.aggregates["transport"].finalize().items():
            if total == 0:
                rows.append(TransportRow(provider, 0.0, 0.0, 0.0, 0.0))
                continue
            v6 = float(v6) / total
            tcp = float(tcp) / total
            rows.append(TransportRow(provider, 1.0 - v6, v6, 1.0 - tcp, tcp))
        return rows

    def tcp_share(self, provider: str) -> float:
        """Fraction of the provider's queries arriving over TCP."""
        self._check_providers((provider,))
        total, _, tcp = self.aggregates["transport"].finalize()[provider]
        return float(tcp) / total if total else 0.0

    def resolver_inventory(self, provider: str) -> InventoryRow:
        """Distinct source addresses per family for one provider (Table 6;
        the paper's 'resolvers' unit is distinct addresses)."""
        self._check_providers((provider,))
        return self.aggregates["inventory"].finalize()[provider]

    def bufsize_cdf(self, provider: str) -> BufsizeCDF:
        """CDF of advertised EDNS0 sizes over the provider's *UDP* queries
        (Figure 6); queries without EDNS0 count at the 512-octet limit."""
        self._check_providers((provider,))
        return self.aggregates["edns"].finalize()[provider]

    def truncation_table(self) -> Dict[str, float]:
        """Per provider, the fraction of its UDP queries whose answer came
        back truncated (TC=1) — section 4.4's headline percentages."""
        state = self.aggregates["edns"].exact_state()
        totals, truncated = state["udp_totals"], state["truncated"]
        return {
            p: float(truncated[p]) / totals[p] if totals[p] else 0.0
            for p in self.aggregates.providers
        }

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
        capture, from the folded per-AS counts; exact."""
        return self.aggregates.concentration.finalize()

    def facebook_sites(self, server_id: str) -> Tuple[List[SiteStats], DualStackReport]:
        """Figures 5/8: the Facebook resolvers' per-site query volumes and
        median TCP RTTs toward one server, sites named by the PTR table the
        facade was built with (the run's, for :meth:`of`), plus the
        PTR-based dual-stack classification; exact."""
        return self.aggregates.facebook_sites.finalize(self.ptr_table, server_id)

    def rssac(self) -> RSSACSummary:
        """The RSSAC002-style rollup of the capture's UTC days; exact."""
        return self.aggregates.rssac.finalize()

    def provider_group_share(self) -> float:
        """The configured providers' combined share as one ratio of folded
        counts: the double ``provider_group_concentration`` gives (the
        :meth:`cloud_share` sum of per-provider ratios can differ in ulps)."""
        state = self.aggregates["provider_shares"].exact_state()
        total = state["total"]
        return sum(state["counts"].values()) / total if total else 0.0
