"""The analytics facade: every figure/table answer for one dataset.

Experiments ask an :class:`ExperimentContext` for a dataset's
``analytics()`` and call metric methods on it.  There is one set of
reducers — the mergeable aggregators of
:class:`~repro.analysis.streaming.AggregateSet` — and
:class:`DatasetAnalytics` finalises their state.  When that state was
folded is the one thing that differs between runs, and
:meth:`DatasetAnalytics.of` is the one place that asks:

* a streaming run folded it chunk by chunk while simulating, possibly in
  several pool workers, and carries it as ``run.aggregates``; the facade
  answers from it and no row data is resident;
* an in-memory run's chunks are resident; the facade is built
  :meth:`~DatasetAnalytics.over` the capture's whole view and its
  attribution and feeds each aggregator that view once, the first time a
  method reads it.  On demand rather than all eleven up front because a
  report reads few of them: the four behind Figures 1, 2, 4 and Table 5
  fold a 9,196-row view in under 4 ms, the full set (composition's
  sketches included) takes 126 ms.

Every aggregator but one is exact integer counting, so an answer does
not depend on how the rows were chunked; the composition heavy-hitter
list is sketch-derived and agrees between chunkings within its certified
error bounds rather than bit-for-bit.  Analyses with no aggregate form
(the Facebook PTR/RTT join of Figure 5, the extension studies) read the
capture's whole view and :meth:`DatasetAnalytics.attribution`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..clouds import PROVIDERS
from ..dnscore import RRType
from ..telemetry import MetricsRegistry
from .attribution import AttributionResult, Attributor
from .edns import BufsizeCDF
from .google_split import GoogleSplit
from .metrics import (
    DEFAULT_RRTYPE_BUCKETS,
    DatasetSummary,
    InventoryRow,
    TransportRow,
)
from .qmin import MonthlyPoint
from .streaming import AggregateSet, StreamingAggregator


class DatasetAnalytics:
    """Answers every metric method from an :class:`AggregateSet`.

    Every method that takes ``providers`` defaults it to the list the set
    was configured with (Table 1's unless the caller chose another); a
    provider outside that list was never counted and is rejected.
    """

    def __init__(self, aggregates: AggregateSet):
        self.aggregates = aggregates
        #: The view of a resident capture whose aggregators are fed on
        #: first read; ``None`` when the state arrived folded.
        self._view = None
        self._fed = set()
        #: Produces the capture's attribution: already run for a resident
        #: view, deferred to the first :meth:`attribution` call otherwise.
        self._attribute = None
        self._attribution: Optional[AttributionResult] = None

    @classmethod
    def over(
        cls,
        view,
        attribution,
        providers: Optional[Sequence[str]] = None,
        public_prefixes: Optional[Sequence[str]] = None,
    ) -> "DatasetAnalytics":
        """The facade over a resident view and its attribution."""
        analytics = cls(AggregateSet(providers, public_prefixes))
        analytics._view, analytics._attribution = view, attribution
        return analytics

    @classmethod
    def of(cls, run, metrics: Optional[MetricsRegistry] = None) -> "DatasetAnalytics":
        """The facade for a :class:`~repro.sim.DatasetRun`, wherever its
        aggregate state comes from: the state the run folded while
        simulating when it carries one, else aggregators fed from the
        capture's whole view and its attribution (Table 1's providers).

        ``metrics`` books the ``attribution`` phase and the
        ``analysis.*`` counters of whatever this ends up doing.
        """
        metrics = MetricsRegistry() if metrics is None else metrics
        # The deferred pass outlives this call on a folded run's facade:
        # it holds the capture and the registry, not the run's whole world.
        capture, registry = run.capture, run.registry

        def attribute() -> AttributionResult:
            view = capture.view()
            with metrics.time_phase("attribution"):
                result = Attributor(registry, PROVIDERS).attribute(view)
            metrics.counter("analysis.attribution_passes").inc()
            metrics.counter("analysis.rows_attributed").inc(len(view))
            return result

        if run.aggregates is not None:
            analytics = cls(run.aggregates)
            analytics._attribute = attribute
            metrics.counter("analysis.streaming_answers").inc()
            return analytics
        return cls.over(capture.view(), attribute())

    def attribution(self) -> AttributionResult:
        """The row-level attribution of the capture a facade made
        :meth:`over` or :meth:`of` one answers for: the one its
        aggregators are fed when the capture is resident; for a run that
        arrived folded, one pass over the materialised capture, made on
        first request (only the view-level analyses ask)."""
        if self._attribution is None:
            self._attribution = self._attribute()
        return self._attribution

    def _aggregator(self, name: str) -> StreamingAggregator:
        aggregator = self.aggregates[name]
        if self._view is not None and name not in self._fed:
            self._fed.add(name)
            aggregator.feed(self._view, self._attribution)
        return aggregator

    def _check_providers(self, providers: Optional[Sequence[str]]) -> tuple:
        configured = self.aggregates.providers
        if providers is None:
            return configured
        providers = tuple(providers)
        missing = [p for p in providers if p not in configured]
        if missing:
            raise ValueError(
                f"providers {missing} were not aggregated "
                f"(configured: {configured})"
            )
        return providers

    # -- Figures 1, 2/3, 4 -------------------------------------------------------

    def provider_shares(self, providers: Optional[Sequence[str]] = None) -> Dict[str, float]:
        """Fraction of all captured queries per provider (Figure 1 bars)."""
        providers = self._check_providers(providers)
        shares = self._aggregator("provider_shares").finalize()
        return {p: shares[p] for p in providers}

    def cloud_share(self, providers: Optional[Sequence[str]] = None) -> float:
        """Combined share of the CPs — the paper's ">30% of ccTLD queries
        from 5 clouds" headline number."""
        return float(sum(self.provider_shares(providers).values()))

    def _qtype_share(self, provider: str, rrtype: RRType) -> float:
        agg = self._aggregator("rrtype_mix")
        total = agg.totals[provider]
        return float(agg.count(provider, int(rrtype))) / total if total else 0.0

    def rrtype_mix(
        self, provider: str, buckets: Sequence[RRType] = DEFAULT_RRTYPE_BUCKETS
    ) -> Dict[str, float]:
        """Per-provider query-type distribution (one group of Figure 2
        bars).  Types outside ``buckets`` are reported under ``"other"``;
        fractions sum to 1 over the provider's queries."""
        self._check_providers((provider,))
        agg = self._aggregator("rrtype_mix")
        total = agg.totals[provider]
        if total == 0:
            return {**{t.name: 0.0 for t in buckets}, "other": 0.0}
        out: Dict[str, float] = {}
        covered = 0
        for rrtype in buckets:
            count = agg.count(provider, int(rrtype))
            covered += count
            out[rrtype.name] = float(count) / total
        out["other"] = float(total - covered) / total
        return out

    def ns_share(self, provider: str) -> float:
        """Fraction of a provider's queries that are NS queries — the
        first hint of a Q-min rollout."""
        self._check_providers((provider,))
        return self._qtype_share(provider, RRType.NS)

    def monthly_point(self, provider: str, year: int, month: int) -> MonthlyPoint:
        """One monthly capture as a Figure 3 data point."""
        self._check_providers((provider,))
        return MonthlyPoint(
            year=year,
            month=month,
            ns_share=self._qtype_share(provider, RRType.NS),
            a_share=self._qtype_share(provider, RRType.A),
            aaaa_share=self._qtype_share(provider, RRType.AAAA),
            total_queries=self._aggregator("rrtype_mix").totals[provider],
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
        return self._aggregator("qmin").minimized_fraction(
            provider, zone_label_count, max_cut_depth
        )

    def junk_ratios(self, providers: Optional[Sequence[str]] = None) -> Dict[str, float]:
        """Per-provider junk ratio (Figure 4): non-NOERROR responses over
        all of the provider's queries."""
        providers = self._check_providers(providers)
        ratios = self._aggregator("junk").finalize()
        return {p: ratios[p] for p in providers}

    def overall_junk_ratio(self) -> float:
        """Vantage-wide junk ratio (section 3's per-dataset 'valid' split)."""
        return self._aggregator("junk").overall()

    # -- Tables 3–6, Figure 6 ----------------------------------------------------

    def dataset_summary(self) -> DatasetSummary:
        """Totals, valid counts, distinct resolvers, distinct ASes (Table 3)."""
        return self._aggregator("summary").finalize()

    def google_split(
        self, public_prefixes: Optional[Sequence[str]] = None, provider: str = "Google"
    ) -> GoogleSplit:
        """The Public-DNS/rest split of Google's traffic (Tables 4/7)."""
        agg = self._aggregator("google_split")
        if public_prefixes is not None and tuple(public_prefixes) != agg.public_prefixes:
            raise ValueError(
                "google_split was aggregated over a different prefix list; "
                "configure the aggregates with the prefixes to split by"
            )
        if provider != agg.provider:
            raise ValueError(
                f"google_split was aggregated for {agg.provider!r}, not {provider!r}"
            )
        return agg.finalize()

    def transport_matrix(
        self, providers: Optional[Sequence[str]] = None
    ) -> List[TransportRow]:
        """Per-provider IPv4/IPv6 and UDP/TCP query fractions (Table 5)."""
        providers = self._check_providers(providers)
        agg = self._aggregator("transport")
        rows = []
        for provider in providers:
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
        return self.transport_matrix((provider,))[0].tcp

    def resolver_inventory(self, provider: str) -> InventoryRow:
        """Distinct source addresses per family for one provider (Table 6;
        the paper's 'resolvers' unit is distinct addresses)."""
        self._check_providers((provider,))
        agg = self._aggregator("inventory")
        v4, v6 = len(agg.v4[provider]), len(agg.v6[provider])
        return InventoryRow(provider, v4 + v6, v4, v6)

    def bufsize_cdf(self, provider: str) -> BufsizeCDF:
        """CDF of advertised EDNS0 sizes over the provider's *UDP* queries
        (Figure 6); queries without EDNS0 count at the 512-octet limit."""
        self._check_providers((provider,))
        return self._aggregator("edns").finalize_provider(provider)

    def truncation_ratio(self, provider: str) -> float:
        """Fraction of the provider's UDP queries whose answer came back
        truncated (TC=1) — section 4.4's headline percentages."""
        self._check_providers((provider,))
        return self._aggregator("edns").truncation_ratio(provider)

    def truncation_table(
        self, providers: Optional[Sequence[str]] = None
    ) -> Dict[str, float]:
        """Truncation ratios for all providers at once."""
        providers = self._check_providers(providers)
        agg = self._aggregator("edns")
        return {p: agg.truncation_ratio(p) for p in providers}

    # -- the re-cuts ---------------------------------------------------------------

    def sovereignty(self, providers: Optional[Sequence[str]] = None):
        """Country/bloc cut (:class:`~repro.analysis.sovereignty.SovereigntyReport`)
        over the configured provider list; exact integer arithmetic."""
        self._check_providers(providers)
        return self._aggregator("sovereignty").finalize()

    def composition(self, top_k: int = 10):
        """Taxonomy cut (:class:`~repro.analysis.composition.CompositionReport`).

        The category/provider counts are exact; the heavy-hitter list is
        sketch-derived, so it depends on how the rows were chunked —
        within the certified error bounds."""
        return self._aggregator("composition").finalize(top_k)
