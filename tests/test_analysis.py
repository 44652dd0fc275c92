"""Unit tests for the analysis layer against hand-built captures.

Synthetic capture rows with known ground truth verify every metric
independently of the simulator: each case reads the
:class:`DatasetAnalytics` facade over a resident hand-built view, so the
expectations here are the aggregators' hand-computed truth.
"""

from collections import Counter

import numpy as np
import pytest

from repro.analysis import (
    Attributor,
    DatasetAnalytics,
    MonthlyPoint,
    classify_addresses,
    detect_rollout,
)
from repro.capture import CaptureStore, QueryRecord, Transport
from repro.clouds import PTRTable
from repro.dnscore import RCode, RRType
from repro.netsim import ASInfo, ASRegistry, IPAddress, Prefix

GOOGLE = "8.8.8.8"
GOOGLE2 = "8.8.4.4"
AMAZON = "52.1.2.3"
OTHER_ISP = "198.51.100.7"
GOOGLE_V6 = "2001:4860:4860::8888"


@pytest.fixture(scope="module")
def registry():
    registry = ASRegistry()
    registry.register(ASInfo(15169, "GOOGLE", "Google"))
    registry.register(ASInfo(16509, "AMAZON", "Amazon"))
    registry.register(ASInfo(64500, "ISP", "SomeISP"))
    registry.announce(15169, Prefix.parse("8.8.8.0/24"))
    registry.announce(15169, Prefix.parse("8.8.4.0/24"))
    registry.announce(15169, Prefix.parse("2001:4860::/32"))
    registry.announce(16509, Prefix.parse("52.0.0.0/13"))
    registry.announce(64500, Prefix.parse("198.51.100.0/24"))
    return registry


def rec(src, qtype=RRType.A, rcode=RCode.NOERROR, transport=Transport.UDP,
        bufsize=4096, truncated=False, rtt=None, server="nl-a", qname="x.nl."):
    return QueryRecord(
        timestamp=1.0,
        server_id=server,
        src=IPAddress.parse(src),
        transport=transport,
        qname=qname,
        qtype=int(qtype),
        rcode=int(rcode),
        edns_bufsize=bufsize,
        truncated=truncated,
        tcp_rtt_ms=rtt,
    )


def build(records):
    store = CaptureStore()
    store.extend(records)
    return store.view()


PROVIDERS = ("Google", "Amazon")


@pytest.fixture(scope="module")
def attributor(registry):
    return Attributor(registry, PROVIDERS)


def analytics_of(attributor, records, public_prefixes=None):
    """The facade over a hand-built resident view."""
    view = build(records)
    return DatasetAnalytics.over(
        view, attributor.attribute(view), PROVIDERS, public_prefixes
    )


class TestAttribution:
    def test_labels(self, attributor):
        view = build([rec(GOOGLE), rec(AMAZON), rec(OTHER_ISP), rec("203.0.113.9")])
        result = attributor.attribute(view)
        assert list(result.providers) == ["Google", "Amazon", "Other", "Unknown"]
        assert list(result.asns) == [15169, 16509, 64500, 0]

    def test_distinct_as_count_ignores_unrouted(self, attributor):
        analytics = analytics_of(
            attributor, [rec(GOOGLE), rec(GOOGLE2), rec("203.0.113.9")]
        )
        assert analytics.dataset_summary().ases == 1

    def test_queries_by_provider(self, attributor):
        analytics = analytics_of(
            attributor, [rec(GOOGLE), rec(GOOGLE), rec(AMAZON), rec(OTHER_ISP)]
        )
        table = analytics.sovereignty().provider_queries
        assert table["Google"] == 2
        assert table["Amazon"] == 1
        assert table["Other"] == 1

    def test_v6_attribution(self, attributor):
        view = build([rec(GOOGLE_V6)])
        result = attributor.attribute(view)
        assert result.providers[0] == "Google"


class TestAttributeOncePerSource:
    """``attribute`` looks each distinct source up once and fans the labels
    out; row by row it must say what a per-row ``_lookup`` says."""

    SOURCES = [
        GOOGLE, AMAZON, GOOGLE, OTHER_ISP, GOOGLE_V6, "203.0.113.9",
        AMAZON, GOOGLE_V6, GOOGLE, "2001:db8::1", "203.0.113.9",
    ]

    @pytest.fixture
    def fresh(self):
        registry = ASRegistry()
        registry.register(ASInfo(15169, "GOOGLE", "Google", "US"))
        registry.register(ASInfo(16509, "AMAZON", "Amazon", "IE"))
        registry.register(ASInfo(64500, "ISP", "SomeISP", "NL"))
        registry.announce(15169, Prefix.parse("8.8.8.0/24"))
        registry.announce(15169, Prefix.parse("2001:4860::/32"))
        registry.announce(16509, Prefix.parse("52.0.0.0/13"))
        registry.announce(64500, Prefix.parse("198.51.100.0/24"))
        return Attributor(registry, PROVIDERS)

    @staticmethod
    def per_row(attributor, view):
        rows = [
            attributor._lookup(int(f), int(h), int(l))
            for f, h, l in zip(view.family, view.src_hi, view.src_lo)
        ]
        return [[row[column] for row in rows] for column in range(3)]

    def test_equals_per_row_lookup(self, fresh):
        view = build([rec(src) for src in self.SOURCES])
        result = fresh.attribute(view)
        asns, providers, countries = self.per_row(fresh, view)
        assert result.asns.tolist() == asns
        assert result.providers.tolist() == providers
        assert result.countries.tolist() == countries
        assert providers[5] == "Unknown" and countries[5] == "ZZ"
        assert countries[:4] == ["US", "IE", "US", "NL"]

    @pytest.mark.parametrize("sources", [SOURCES, []], ids=["mixed", "empty"])
    def test_dtypes(self, fresh, sources):
        result = fresh.attribute(build([rec(src) for src in sources]))
        assert result.providers.dtype == object
        assert result.countries.dtype == object
        assert result.asns.dtype == np.int64
        assert len(result.providers) == len(result.asns) == len(sources)

    def test_one_lookup_per_distinct_source(self, fresh):
        view = build([rec(src) for src in self.SOURCES])
        calls = Counter()
        lookup = fresh._lookup

        def counting(*key):
            calls[key] += 1
            return lookup(*key)

        fresh._lookup = counting
        for _ in range(2):
            calls.clear()
            fresh.attribute(view)
            assert len(calls) == len(set(self.SOURCES))
            assert set(calls.values()) == {1}


class TestShares:
    def test_provider_shares_and_total(self, attributor):
        analytics = analytics_of(
            attributor, [rec(GOOGLE)] * 3 + [rec(AMAZON)] + [rec(OTHER_ISP)] * 6
        )
        shares = analytics.provider_shares(PROVIDERS)
        assert shares["Google"] == pytest.approx(0.3)
        assert shares["Amazon"] == pytest.approx(0.1)
        assert analytics.cloud_share(PROVIDERS) == pytest.approx(0.4)

    def test_empty_view(self, attributor):
        assert analytics_of(attributor, []).cloud_share(PROVIDERS) == 0.0


class TestRRMix:
    def test_mix_sums_to_one(self, attributor):
        analytics = analytics_of(
            attributor,
            [rec(GOOGLE, RRType.A)] * 5
            + [rec(GOOGLE, RRType.NS)] * 3
            + [rec(GOOGLE, RRType.SOA)] * 2,
        )
        mix = analytics.rrtype_mix("Google")
        assert mix["A"] == pytest.approx(0.5)
        assert mix["NS"] == pytest.approx(0.3)
        assert mix["other"] == pytest.approx(0.2)
        assert sum(mix.values()) == pytest.approx(1.0)

    def test_absent_provider_zero(self, attributor):
        mix = analytics_of(attributor, [rec(GOOGLE)]).rrtype_mix("Amazon")
        assert all(v == 0.0 for v in mix.values())


class TestJunk:
    def test_per_provider_junk(self, attributor):
        analytics = analytics_of(
            attributor,
            [rec(GOOGLE, rcode=RCode.NXDOMAIN)] * 2
            + [rec(GOOGLE)] * 8
            + [rec(AMAZON, rcode=RCode.REFUSED)]
            + [rec(AMAZON)],
        )
        ratios = analytics.junk_ratios(PROVIDERS)
        assert ratios["Google"] == pytest.approx(0.2)
        assert ratios["Amazon"] == pytest.approx(0.5)

    def test_overall_junk(self, attributor):
        analytics = analytics_of(
            attributor, [rec(GOOGLE, rcode=RCode.NXDOMAIN), rec(GOOGLE)]
        )
        assert analytics.overall_junk_ratio() == pytest.approx(0.5)


class TestTransport:
    def test_matrix(self, attributor):
        analytics = analytics_of(
            attributor,
            [rec(GOOGLE)] * 3
            + [rec(GOOGLE_V6)] * 3
            + [rec(GOOGLE, transport=Transport.TCP, rtt=10.0)] * 2,
        )
        row = analytics.transport_matrix(("Google",))[0]
        assert row.ipv6 == pytest.approx(3 / 8)
        assert row.tcp == pytest.approx(2 / 8)
        assert row.ipv4 + row.ipv6 == pytest.approx(1.0)
        assert row.udp + row.tcp == pytest.approx(1.0)

    def test_tcp_share(self, attributor):
        analytics = analytics_of(
            attributor, [rec(GOOGLE), rec(GOOGLE, transport=Transport.TCP, rtt=5.0)]
        )
        assert analytics.tcp_share("Google") == pytest.approx(0.5)


class TestInventoryAndSummary:
    def test_inventory_counts_addresses(self, attributor):
        analytics = analytics_of(
            attributor, [rec(GOOGLE), rec(GOOGLE), rec(GOOGLE2), rec(GOOGLE_V6)]
        )
        inventory = analytics.resolver_inventory("Google")
        assert inventory.total == 3
        assert inventory.ipv4 == 2
        assert inventory.ipv6 == 1
        assert inventory.ipv6_fraction == pytest.approx(1 / 3)

    def test_dataset_summary(self, attributor):
        analytics = analytics_of(
            attributor,
            [rec(GOOGLE), rec(AMAZON, rcode=RCode.NXDOMAIN), rec(OTHER_ISP)],
        )
        summary = analytics.dataset_summary()
        assert summary.queries_total == 3
        assert summary.queries_valid == 2
        assert summary.resolvers == 3
        assert summary.ases == 3


class TestGoogleSplit:
    def test_split_by_advertised_ranges(self, attributor):
        # 8.8.8.8 is in the public ranges; 8.8.4.x not included this time.
        analytics = analytics_of(
            attributor,
            [rec(GOOGLE)] * 4 + [rec(GOOGLE2)] + [rec(AMAZON)],
            public_prefixes=["8.8.8.0/24"],
        )
        split = analytics.google_split(["8.8.8.0/24"])
        assert split.total_queries == 5
        assert split.public_queries == 4
        assert split.rest_queries == 1
        assert split.public_query_ratio == pytest.approx(0.8)
        assert split.total_resolvers == 2
        assert split.public_resolvers == 1


class TestQmin:
    def test_ns_share(self, attributor):
        analytics = analytics_of(
            attributor, [rec(GOOGLE, RRType.NS)] * 3 + [rec(GOOGLE)] * 7
        )
        assert analytics.ns_share("Google") == pytest.approx(0.3)

    def test_minimized_fraction(self, attributor):
        analytics = analytics_of(
            attributor,
            [rec(GOOGLE, RRType.NS, qname="example.nl.")] * 3
            + [rec(GOOGLE, RRType.NS, qname="www.example.nl.")],
        )
        assert analytics.minimized_fraction("Google", 1) == pytest.approx(0.75)

    def test_detect_rollout(self):
        series = [
            MonthlyPoint(2019, m, ns_share=0.03, a_share=0.6, aaaa_share=0.3, total_queries=100)
            for m in (7, 8, 9, 10, 11)
        ] + [
            MonthlyPoint(2019, 12, 0.40, 0.35, 0.15, 100),
            MonthlyPoint(2020, 1, 0.45, 0.30, 0.15, 100),
        ]
        assert detect_rollout(series) == (2019, 12)

    def test_no_rollout_in_flat_series(self):
        series = [
            MonthlyPoint(2019, m, 0.05, 0.6, 0.3, 100) for m in range(1, 10)
        ]
        assert detect_rollout(series) is None


class TestEdns:
    def test_cdf_counts_no_edns_as_512(self, attributor):
        analytics = analytics_of(
            attributor,
            [rec(GOOGLE, bufsize=0)]
            + [rec(GOOGLE, bufsize=1232)] * 2
            + [rec(GOOGLE, bufsize=4096)],
        )
        cdf = analytics.bufsize_cdf("Google")
        assert cdf.at(512) == pytest.approx(0.25)
        assert cdf.at(1232) == pytest.approx(0.75)
        assert cdf.at(4096) == pytest.approx(1.0)
        assert cdf.at(100) == 0.0

    def test_cdf_excludes_tcp(self, attributor):
        analytics = analytics_of(
            attributor,
            [rec(GOOGLE, bufsize=512)]
            + [rec(GOOGLE, bufsize=4096, transport=Transport.TCP, rtt=9.0)] * 5,
        )
        cdf = analytics.bufsize_cdf("Google")
        assert cdf.at(512) == pytest.approx(1.0)

    def test_truncation_ratio_over_udp(self, attributor):
        analytics = analytics_of(
            attributor,
            [rec(GOOGLE, bufsize=512, truncated=True)]
            + [rec(GOOGLE)] * 3
            + [rec(GOOGLE, transport=Transport.TCP, rtt=4.0)],
        )
        assert analytics.truncation_ratio("Google") == pytest.approx(0.25)


UNAGGREGATED = "ExampleCloud"


class TestFacade:
    @pytest.mark.parametrize(
        "method, args",
        [
            ("provider_shares", ([UNAGGREGATED],)),
            ("cloud_share", ([UNAGGREGATED],)),
            ("junk_ratios", (["Google", UNAGGREGATED],)),
            ("transport_matrix", ([UNAGGREGATED],)),
            ("truncation_table", ([UNAGGREGATED],)),
            ("sovereignty", ([UNAGGREGATED],)),
            ("rrtype_mix", (UNAGGREGATED,)),
            ("bufsize_cdf", (UNAGGREGATED,)),
            ("truncation_ratio", (UNAGGREGATED,)),
            ("tcp_share", (UNAGGREGATED,)),
            ("resolver_inventory", (UNAGGREGATED,)),
            ("ns_share", (UNAGGREGATED,)),
            ("minimized_fraction", (UNAGGREGATED, 1)),
            ("monthly_point", (UNAGGREGATED, 2020, 1)),
        ],
    )
    def test_provider_that_was_not_aggregated_is_rejected(
        self, attributor, method, args
    ):
        """Plural or singular, the answer for a provider nothing counted
        is an error naming what was configured — not a KeyError, not 0.0."""
        analytics = analytics_of(attributor, [rec(GOOGLE), rec(AMAZON)])
        with pytest.raises(ValueError, match=r"ExampleCloud.*\('Google', 'Amazon'\)"):
            getattr(analytics, method)(*args)

    def test_resident_view_is_folded_on_demand_and_once(self, attributor):
        analytics = analytics_of(
            attributor, [rec(GOOGLE, RRType.NS), rec(GOOGLE_V6), rec(AMAZON)]
        )
        feeds = Counter()
        for name, aggregator in analytics.aggregates.aggregators.items():
            def counting_feed(view, attribution, name=name, feed=aggregator.feed):
                feeds[name] += 1
                feed(view, attribution)

            aggregator.feed = counting_feed

        analytics.provider_shares()
        assert analytics.cloud_share() == 1.0
        assert feeds == {"provider_shares": 1}
        analytics.rrtype_mix("Google")
        assert analytics.ns_share("Google") == 0.5
        analytics.monthly_point("Google", 2020, 1)
        analytics.transport_matrix()
        assert analytics.tcp_share("Amazon") == 0.0
        assert feeds == {"provider_shares": 1, "rrtype_mix": 1, "transport": 1}

        # Read everything: each aggregator has now seen the view exactly once.
        analytics.junk_ratios(), analytics.overall_junk_ratio()
        analytics.dataset_summary(), analytics.google_split()
        analytics.resolver_inventory("Google"), analytics.minimized_fraction("Google", 1)
        analytics.bufsize_cdf("Google"), analytics.truncation_table()
        analytics.sovereignty(), analytics.composition()
        assert feeds == dict.fromkeys(analytics.aggregates.aggregators, 1)


class TestFacebookClassification:
    def test_dual_stack_join(self):
        table = PTRTable()
        v4 = IPAddress.parse("31.13.24.5")
        v6 = IPAddress.parse("2a03:2880::5")
        name = "edge-dns-31-13-24-5.ams2.facebook.com."
        table.add(v4, name)
        table.add(v6, name)
        lone = IPAddress.parse("31.13.24.99")
        table.add(lone, "edge-dns-31-13-24-99.fra1.facebook.com.")
        no_ptr = IPAddress.parse("31.13.24.100")
        site_of, report = classify_addresses([v4, v6, lone, no_ptr], table)
        assert site_of[v4.to_text()] == ("AMS", 2)
        assert site_of[v6.to_text()] == ("AMS", 2)
        assert report.dual_stack_hosts == 1
        assert report.addresses_without_ptr == 1
