"""Tests for the resolver cache and resolution engine against the small
simulated world (Q-min, DNSSEC, caching, truncation→TCP, cyclic chase)."""

import numpy as np
import pytest

from repro.capture import CaptureStore, Transport
from repro.dnscore import Name, RCode, ROOT, RRType
from repro.netsim import GAZETTEER, IPAddress, LatencyModel
from repro.resolver import (
    AuthorityNetwork,
    CyclicPair,
    ResolverBehavior,
    ResolverCache,
    SimResolver,
    SyntheticLeafAuthority,
)
from repro.server import AuthoritativeServer, ServerSet
from repro.workload import DiurnalPattern, WorkloadGenerator
from repro.zones import build_root_zone, domains_of


def make_resolver(behavior=None, site="FRA", v6=True, seed=11):
    return SimResolver(
        resolver_id="r1",
        site=GAZETTEER[site],
        v4=IPAddress.parse("192.0.2.10"),
        v6=IPAddress.parse("2001:db8::10") if v6 else None,
        behavior=behavior or ResolverBehavior(),
        seed=seed,
    )


def nl_domain(world, index=0):
    return domains_of(world["nl_zone"])[index]


class TestResolverCache:
    def test_positive_hit_until_expiry(self):
        from repro.dnscore import ARdata, ResourceRecord

        cache = ResolverCache()
        name = Name.from_text("x.nl")
        record = ResourceRecord(name, RRType.A, 100, ARdata(1))
        cache.put(0.0, name, RRType.A, [record], 100)
        assert cache.get(50.0, name, RRType.A) is not None
        assert cache.get(101.0, name, RRType.A) is None

    def test_ttl_clamped_to_max(self):
        from repro.dnscore import ARdata, ResourceRecord

        cache = ResolverCache()
        name = Name.from_text("x.nl")
        cache.put(
            0.0, name, RRType.A, [ResourceRecord(name, RRType.A, 99999, ARdata(1))], 99999
        )
        # MAX_TTL is a day.
        assert cache.get(86399.0, name, RRType.A) is not None
        assert cache.get(86401.0, name, RRType.A) is None

    def test_negative_cache(self):
        cache = ResolverCache()
        name = Name.from_text("gone.nl")
        cache.put_negative(0.0, name, RCode.NXDOMAIN)
        # NEGATIVE_TTL is 900 s when the answer carries none.
        assert cache.get_negative(899.0, name) is RCode.NXDOMAIN
        assert cache.get_negative(901.0, name) is None
        cache.put_negative(0.0, name, RCode.NXDOMAIN, ttl=60.0)
        assert cache.get_negative(61.0, name) is None

    def test_empty_put_rejected(self):
        with pytest.raises(ValueError):
            ResolverCache().put(0.0, Name.from_text("x.nl"), RRType.A, [], 60)

    def test_aggressive_nsec_synthesis(self):
        cache = ResolverCache(aggressive_nsec=True)
        zone = Name.from_text("nl")
        cache.add_nsec(zone, Name.from_text("alpha.nl"), Name.from_text("delta.nl"))
        assert cache.nsec_covers(zone, Name.from_text("bravo.nl"))
        assert not cache.nsec_covers(zone, Name.from_text("zulu.nl"))
        assert cache.stats.nsec_synthesised == 1

    def test_nsec_disabled_by_default(self):
        cache = ResolverCache()
        cache.add_nsec(Name.from_text("nl"), Name.from_text("a.nl"), Name.from_text("c.nl"))
        assert not cache.nsec_covers(Name.from_text("nl"), Name.from_text("b.nl"))


class TestBehaviorValidation:
    def test_unknown_family_policy_rejected(self):
        # A resolver's addresses decide a single family; no policy names one.
        for policy in ("both", "v4only", "v6only"):
            with pytest.raises(ValueError, match="unknown family policy"):
                ResolverBehavior(family_policy=policy)

    def test_bad_ratio_rejected(self):
        with pytest.raises(ValueError):
            ResolverBehavior(family_policy="fixed", fixed_v6_ratio=1.5)

    def test_no_addresses_rejected(self):
        with pytest.raises(ValueError):
            SimResolver("r", GAZETTEER["AMS"], None, None, ResolverBehavior())


class TestBasicResolution:
    def test_registered_domain_resolves(self, small_world):
        resolver = make_resolver()
        domain = nl_domain(small_world)
        rcode = resolver.resolve(small_world["network"], 1000.0, domain, RRType.A)
        assert rcode is RCode.NOERROR
        assert len(small_world["nl_capture"]) >= 1

    def test_unregistered_is_nxdomain_junk(self, small_world):
        resolver = make_resolver()
        rcode = resolver.resolve(
            small_world["network"], 1000.0,
            Name.from_text("definitely-not-registered.nl"), RRType.A,
        )
        assert rcode is RCode.NXDOMAIN
        view = small_world["nl_capture"].view()
        assert (view.rcode == int(RCode.NXDOMAIN)).any()

    def test_caching_suppresses_repeat_tld_queries(self, small_world):
        resolver = make_resolver()
        domain = nl_domain(small_world)
        resolver.resolve(small_world["network"], 1000.0, domain, RRType.A)
        first = len(small_world["nl_capture"])
        resolver.resolve(small_world["network"], 1001.0, domain, RRType.A)
        assert len(small_world["nl_capture"]) == first  # answer came from cache

    def test_sibling_subdomain_skips_tld_after_delegation_cached(self, small_world):
        resolver = make_resolver()
        domain = nl_domain(small_world)
        resolver.resolve(small_world["network"], 1000.0, domain.prepend(b"www"), RRType.A)
        count = len(small_world["nl_capture"])
        # Different subdomain of the same delegated cut: delegation cached.
        resolver.resolve(small_world["network"], 1001.0, domain.prepend(b"mail"), RRType.A)
        assert len(small_world["nl_capture"]) == count

    def test_root_primed_once_for_tld(self, small_world):
        resolver = make_resolver()
        resolver.resolve(small_world["network"], 1000.0, nl_domain(small_world, 0), RRType.A)
        resolver.resolve(small_world["network"], 1000.5, nl_domain(small_world, 1), RRType.A)
        root_view = small_world["root_capture"].view()
        nl_queries_at_root = sum(
            1 for q in root_view.qname if q.endswith("nl.") or q == "nl."
        )
        assert nl_queries_at_root == 1

    def test_junk_tld_nxdomain_at_root(self, small_world):
        resolver = make_resolver()
        rcode = resolver.resolve(
            small_world["network"], 1000.0,
            Name.from_text("kjhfaskdjfh"), RRType.A,
        )
        assert rcode is RCode.NXDOMAIN
        view = small_world["root_capture"].view()
        assert (view.rcode == int(RCode.NXDOMAIN)).any()

    def test_existing_foreign_tld_resolves_via_root_only(self, small_world):
        resolver = make_resolver()
        rcode = resolver.resolve(
            small_world["network"], 1000.0,
            Name.from_text("www.example.com"), RRType.A,
        )
        assert rcode is RCode.NOERROR
        assert len(small_world["nl_capture"]) == 0

    def test_client_query_counter(self, small_world):
        resolver = make_resolver()
        resolver.resolve(small_world["network"], 1.0, nl_domain(small_world), RRType.A)
        resolver.resolve(small_world["network"], 2.0, nl_domain(small_world), RRType.A)
        assert resolver.stats.client_queries == 2
        assert resolver.stats.auth_queries >= 1


def spelled_0x20(name):
    """``name`` with the case of every letter flipped (a 0x20 spelling)."""
    return Name([label.swapcase() for label in name.labels])


class TestCaseInsensitiveKeys:
    def test_0x20_spelling_hits_the_same_negative_entry_and_delegation(
        self, small_world
    ):
        """The resolver's tables are keyed by the casefolded labels: a 0x20
        spelling of a name already cached is the same negative entry, and a
        sibling under the re-spelled cut finds the delegation's expiry."""
        network = small_world["network"]
        domain = nl_domain(small_world)
        resolver = make_resolver()
        now = 1000.0
        for i in range(40):  # a subdomain the leaf says does not exist
            gone = domain.prepend(b"Gone%d" % i)
            now += 1.0
            if resolver.resolve(network, now, gone, RRType.A) is RCode.NXDOMAIN:
                break
        else:
            pytest.fail("no non-existent subdomain found")
        rows, hits = len(small_world["nl_capture"]), resolver.stats.cache_hits
        twin = spelled_0x20(gone)
        assert twin.labels != gone.labels and twin.key == gone.key

        assert resolver.cache.get_negative(now, twin) is RCode.NXDOMAIN
        assert resolver.resolve(network, now + 1.0, twin, RRType.A) is RCode.NXDOMAIN
        assert resolver.stats.cache_hits == hits + 1
        assert len(small_world["nl_capture"]) == rows

        expiry = resolver._delegation_expiry[domain.key]
        sibling = spelled_0x20(domain).prepend(b"www")
        assert resolver.resolve(network, now + 2.0, sibling, RRType.A) is RCode.NOERROR
        assert len(small_world["nl_capture"]) == rows  # no referral fetched
        assert resolver._delegation_expiry[spelled_0x20(domain).key] == expiry


class TestQnameMinimization:
    def test_qmin_sends_ns_for_subdomains(self, small_world):
        resolver = make_resolver(ResolverBehavior(qname_minimization=True))
        domain = nl_domain(small_world)
        resolver.resolve(small_world["network"], 1000.0, domain.prepend(b"www"), RRType.A)
        view = small_world["nl_capture"].view()
        assert int(RRType.NS) in set(view.qtype.tolist())
        # The minimised name, not the full one, reaches the TLD.
        assert domain.to_text() in set(view.qname.tolist())
        assert domain.prepend(b"www").to_text() not in set(view.qname.tolist())

    def test_qmin_exact_sld_uses_original_type(self, small_world):
        resolver = make_resolver(ResolverBehavior(qname_minimization=True))
        domain = nl_domain(small_world)
        resolver.resolve(small_world["network"], 1000.0, domain, RRType.A)
        view = small_world["nl_capture"].view()
        assert int(RRType.A) in set(view.qtype.tolist())

    def test_no_qmin_leaks_full_name(self, small_world):
        resolver = make_resolver(ResolverBehavior(qname_minimization=False))
        domain = nl_domain(small_world)
        resolver.resolve(small_world["network"], 1000.0, domain.prepend(b"www"), RRType.A)
        view = small_world["nl_capture"].view()
        assert domain.prepend(b"www").to_text() in set(view.qname.tolist())


class TestDNSSECValidation:
    def test_validator_queries_ds_and_dnskey(self, small_world):
        resolver = make_resolver(
            ResolverBehavior(
                validates_dnssec=True, set_do=True, explicit_ds_probability=1.0
            )
        )
        resolver.resolve(small_world["network"], 1000.0, nl_domain(small_world), RRType.A)
        view = small_world["nl_capture"].view()
        qtypes = set(view.qtype.tolist())
        assert int(RRType.DS) in qtypes
        assert int(RRType.DNSKEY) in qtypes

    def test_non_validator_sends_no_dnssec_queries(self, small_world):
        resolver = make_resolver(ResolverBehavior(validates_dnssec=False))
        resolver.resolve(small_world["network"], 1000.0, nl_domain(small_world), RRType.A)
        qtypes = set(small_world["nl_capture"].view().qtype.tolist())
        assert int(RRType.DS) not in qtypes
        assert int(RRType.DNSKEY) not in qtypes

    def test_dnskey_cached_across_domains(self, small_world):
        resolver = make_resolver(ResolverBehavior(validates_dnssec=True, set_do=True))
        resolver.resolve(small_world["network"], 1000.0, nl_domain(small_world, 0), RRType.A)
        view = small_world["nl_capture"].view()
        dnskey_count_first = int((view.qtype == int(RRType.DNSKEY)).sum())
        resolver.resolve(small_world["network"], 1001.0, nl_domain(small_world, 1), RRType.A)
        view = small_world["nl_capture"].view()
        assert int((view.qtype == int(RRType.DNSKEY)).sum()) == dnskey_count_first

    def test_ds_queried_per_distinct_domain(self, small_world):
        resolver = make_resolver(
            ResolverBehavior(
                validates_dnssec=True, set_do=True, explicit_ds_probability=1.0
            )
        )
        resolver.resolve(small_world["network"], 1000.0, nl_domain(small_world, 0), RRType.A)
        resolver.resolve(small_world["network"], 1001.0, nl_domain(small_world, 1), RRType.A)
        view = small_world["nl_capture"].view()
        ds_names = {
            q for q, t in zip(view.qname, view.qtype) if t == int(RRType.DS)
        }
        assert len(ds_names) == 2


class TestTransportAndFamily:
    def test_small_bufsize_validator_falls_back_to_tcp(self, small_world):
        behavior = ResolverBehavior(
            validates_dnssec=True, set_do=True, edns_bufsize=512
        )
        resolver = make_resolver(behavior)
        resolver.resolve(small_world["network"], 1000.0, nl_domain(small_world), RRType.A)
        view = small_world["nl_capture"].view()
        assert (view.transport == int(Transport.TCP)).any()
        assert resolver.stats.tcp_retries > 0

    def test_tcp_records_carry_rtt(self, small_world):
        behavior = ResolverBehavior(validates_dnssec=True, set_do=True, edns_bufsize=512)
        resolver = make_resolver(behavior)
        resolver.resolve(small_world["network"], 1000.0, nl_domain(small_world), RRType.A)
        view = small_world["nl_capture"].view()
        tcp_mask = view.transport == int(Transport.TCP)
        assert not np.isnan(view.tcp_rtt_ms[tcp_mask]).any()

    def test_v4only_never_uses_v6(self, small_world):
        resolver = make_resolver(
            ResolverBehavior(family_policy="fixed", fixed_v6_ratio=1.0), v6=False
        )
        for i in range(5):
            resolver.resolve(
                small_world["network"], 1000.0 + i, nl_domain(small_world, i), RRType.A
            )
        view = small_world["nl_capture"].view()
        assert (view.family == 4).all()

    def test_fixed_ratio_mixes_families(self, small_world):
        resolver = make_resolver(
            ResolverBehavior(family_policy="fixed", fixed_v6_ratio=0.5), seed=3
        )
        for i in range(20):
            resolver.resolve(
                small_world["network"], 1000.0 + i,
                nl_domain(small_world, i % 40), RRType.A,
            )
        families = set(small_world["nl_capture"].view().family.tolist())
        assert families == {4, 6}

    def test_rtt_policy_prefers_faster_family(self, small_world):
        # Make IPv6 brutally slow for this resolver.
        resolver = make_resolver(
            ResolverBehavior(
                family_policy="rtt", rtt_sharpness_ms=10.0, v6_extra_rtt_ms=400.0
            ),
            seed=5,
        )
        for i in range(20):
            resolver.resolve(
                small_world["network"], 1000.0 + i,
                nl_domain(small_world, i % 40), RRType.A,
            )
        view = small_world["nl_capture"].view()
        v4 = int((view.family == 4).sum())
        v6 = int((view.family == 6).sum())
        assert v4 > v6

    def test_no_edns_when_bufsize_zero(self, small_world):
        resolver = make_resolver(ResolverBehavior(edns_bufsize=0))
        resolver.resolve(small_world["network"], 1000.0, nl_domain(small_world), RRType.A)
        view = small_world["nl_capture"].view()
        assert (view.edns_bufsize == 0).all()


class TestAggressiveNSEC:
    def test_nsec_suppresses_repeat_junk(self, small_world):
        behavior = ResolverBehavior(
            validates_dnssec=True, set_do=True, aggressive_nsec=True
        )
        resolver = make_resolver(behavior)
        network = small_world["network"]
        resolver.resolve(network, 1000.0, Name.from_text("zzz-junk-a.nl"), RRType.A)
        count = len(small_world["nl_capture"])
        # A *different* junk name covered by the same NSEC gap: no new query.
        rcode = resolver.resolve(network, 1001.0, Name.from_text("zzz-junk-b.nl"), RRType.A)
        assert rcode is RCode.NXDOMAIN
        assert len(small_world["nl_capture"]) == count
        assert resolver.cache.stats.nsec_synthesised >= 1

    def test_nsec_suppresses_most_junk_at_a_root(self):
        """RFC 8198 at scale: 3,000 client queries, 80 % junk TLDs, against
        a root-only world — aggressive NSEC synthesises NXDOMAIN from
        cached ranges, so far fewer queries reach the root (section
        4.2.3's hypothesis for the 2020 drop in cloud junk)."""
        zone = build_root_zone(seed=11)

        def root_queries(aggressive):
            capture = CaptureStore()
            root = ServerSet(
                [AuthoritativeServer("b-root", zone, [GAZETTEER["LAX"]], capture=capture)],
                LatencyModel(),
            )
            network = AuthorityNetwork(root=root, tlds={})
            resolver = make_resolver(
                ResolverBehavior(
                    validates_dnssec=True, set_do=True, aggressive_nsec=aggressive
                ),
                v6=False, seed=5,
            )
            generator = WorkloadGenerator("root", [], tld_names=["com", "net", "org"], seed=3)
            for query in generator.generate(
                resolver_index=0, count=3000, pattern=DiurnalPattern(0.0, 86400.0),
                junk_fraction=0.8,
            ):
                resolver.resolve(network, query.timestamp, query.qname, query.qtype)
            return len(capture)

        with_nsec, without_nsec = root_queries(True), root_queries(False)
        assert with_nsec < without_nsec
        assert 1.0 - with_nsec / without_nsec > 0.3


class TestCyclicDependency:
    def test_cyclic_domains_storm_the_tld(self, small_world, latency):
        domains = domains_of(small_world["nz_zone"])
        pair = CyclicPair(domains[0], domains[1])
        network = small_world["network"]
        network.leaf = SyntheticLeafAuthority([pair])
        resolver = make_resolver()
        rcode = resolver.resolve(network, 1000.0, pair.first, RRType.A)
        assert rcode is RCode.SERVFAIL
        view = small_world["nz_capture"].view()
        # The chase generated several A/AAAA queries at the TLD.
        assert len(view) > 4
        assert int(RRType.AAAA) in set(view.qtype.tolist())

    def test_non_cyclic_untouched(self, small_world):
        domains = domains_of(small_world["nz_zone"])
        network = small_world["network"]
        network.leaf = SyntheticLeafAuthority([CyclicPair(domains[0], domains[1])])
        resolver = make_resolver()
        assert resolver.resolve(network, 1.0, domains[2], RRType.A) is RCode.NOERROR
