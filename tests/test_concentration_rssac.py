"""Unit tests for concentration indices and RSSAC002-style aggregates."""

import numpy as np
import pytest

from repro.analysis import (
    AttributionResult,
    Attributor,
    DatasetAnalytics,
    RSSACAggregator,
    RSSACSummary,
    concentration,
    per_as_counts,
    provider_group_concentration,
)
from repro.capture import QueryRecord, Transport
from repro.clouds import PROVIDERS
from repro.dnscore import RCode
from repro.netsim import IPAddress
from repro.sim import run_dataset

from .helpers import view_of
from .test_oracle import CASES


def attribution_of(asns, providers=None):
    asns = np.asarray(asns, dtype=np.int64)
    if providers is None:
        providers = np.array(["Other"] * len(asns), dtype=object)
    else:
        providers = np.asarray(providers, dtype=object)
    countries = np.array(["ZZ"] * len(asns), dtype=object)
    return AttributionResult(providers=providers, asns=asns, countries=countries)


class TestConcentration:
    def test_monopoly(self):
        report = concentration(attribution_of([1] * 100))
        assert report.hhi == pytest.approx(1.0)
        assert report.cr5 == pytest.approx(1.0)
        assert report.gini == pytest.approx(0.0)  # one AS: trivially equal
        assert report.hhi_band == "high"
        assert report.effective_competitors == pytest.approx(1.0)

    def test_perfect_competition(self):
        asns = list(range(1, 101))  # 100 ASes, one query each
        report = concentration(attribution_of(asns))
        assert report.hhi == pytest.approx(0.01)
        assert report.cr5 == pytest.approx(0.05)
        assert report.gini == pytest.approx(0.0, abs=1e-9)
        assert report.effective_competitors == pytest.approx(100.0)

    def test_skewed_distribution(self):
        # One AS with 90 queries, ten with 1 each.
        asns = [1] * 90 + list(range(2, 12))
        report = concentration(attribution_of(asns))
        assert report.cr5 > 0.9
        assert report.hhi > 0.5
        assert report.gini > 0.5
        assert report.hhi_band == "high"

    def test_unrouted_excluded(self):
        report = concentration(attribution_of([0, 0, 1, 1]))
        assert report.total_queries == 2
        assert report.as_count == 1

    def test_empty(self):
        report = concentration(attribution_of([]))
        assert report.total_queries == 0
        assert report.hhi == 0.0

    def test_per_as_counts(self):
        counts = per_as_counts(attribution_of([1, 1, 2, 0]))
        assert counts == {1: 2, 2: 1}

    def test_provider_group_concentration(self):
        attribution = attribution_of(
            [1, 1, 2, 3],
            providers=["Google", "Google", "Amazon", "Other"],
        )
        assert provider_group_concentration(
            attribution, ("Google", "Amazon")
        ) == pytest.approx(0.75)

    def test_cr_ordering(self):
        asns = [1] * 50 + [2] * 30 + [3] * 10 + list(range(4, 14))
        report = concentration(attribution_of(asns))
        assert report.cr20 >= report.cr5 >= 0


def rec(day, transport=Transport.UDP, family=4, rcode=RCode.NOERROR, src_index=0):
    value = 0xC0000200 + src_index if family == 4 else (0x20010DB8 << 96) + src_index
    return QueryRecord(
        timestamp=day * 86400.0 + 3600.0,
        server_id="b-root",
        src=IPAddress(family, value),
        transport=transport,
        qname="x.nl.",
        qtype=1,
        rcode=int(rcode),
        tcp_rtt_ms=5.0 if transport is Transport.TCP else None,
    )


@pytest.mark.parametrize("case", ["nl-w2020", "nz-w2019", "root-2020"])
def test_folded_concentration_is_the_whole_view_arithmetic(case):
    """The per-AS counts a run folds chunk by chunk give the report and the
    group share that one pass over the whole attributed view gives, bit
    for bit."""
    descriptor, queries, seed = CASES[case]
    run = run_dataset(descriptor, seed=seed, client_queries=queries)
    attribution = Attributor(run.registry, PROVIDERS).attribute(run.capture.view())
    analytics = DatasetAnalytics.of(run)
    assert analytics.concentration() == concentration(attribution)
    assert analytics.provider_group_share() == provider_group_concentration(
        attribution, PROVIDERS
    )


def rssac_of(*records):
    """An RSSAC aggregator fed one hand-built view of ``records``."""
    aggregator = RSSACAggregator(PROVIDERS)
    aggregator.feed(view_of(records), None)
    return aggregator


class TestRSSAC:
    def test_daily_split(self):
        aggregator = rssac_of(rec(0), rec(0), rec(1))
        assert [row[0] for row in aggregator.exact_state()["counts"].values()] == [2, 1]
        summary = aggregator.finalize()
        assert summary.days == 2
        assert summary.peak_daily_queries == 2
        assert summary.mean_daily_queries == pytest.approx(1.5)

    def test_transport_and_family_counts(self):
        summary = rssac_of(
            rec(0), rec(0, transport=Transport.TCP),
            rec(0, family=6), rec(0, family=6),
        ).finalize()
        assert summary.udp_share == pytest.approx(0.75)
        assert summary.v6_share == pytest.approx(0.5)

    def test_rcode_counts_and_nxdomain_ratio(self):
        summary = rssac_of(rec(0), rec(0, rcode=RCode.NXDOMAIN)).finalize()
        assert summary.nxdomain_share == pytest.approx(0.5)

    def test_unique_sources(self):
        aggregator = rssac_of(
            rec(0, src_index=1), rec(0, src_index=1), rec(0, src_index=2),
            rec(1, src_index=1),
        )
        assert [len(s) for s in aggregator.exact_state()["sources"].values()] == [2, 1]
        assert aggregator.finalize().unique_sources_peak == 2

    def test_summary(self):
        summary = rssac_of(
            *[rec(d, src_index=i) for d in range(3) for i in range(d + 1)],
            rec(1, rcode=RCode.NXDOMAIN),
        ).finalize()
        assert summary.days == 3
        assert summary.total_queries == 7
        assert summary.peak_daily_queries == 3
        assert 0 < summary.nxdomain_share < 1
        assert summary.udp_share == 1.0

    def test_empty_summary(self):
        assert rssac_of().finalize() == RSSACSummary(0, 0, 0.0, 0, 0.0, 0.0, 0.0, 0)
