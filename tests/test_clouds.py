"""Unit tests for provider profiles, fleet construction, and PTR synthesis."""

import pytest

from repro.clouds import (
    FACEBOOK_SITES,
    PROVIDER_ASES,
    PROVIDERS,
    build_all_fleets,
    build_facebook_ptr_table,
    build_provider_fleet,
    build_registry,
    parse_ptr_embedded_v4,
    parse_ptr_site,
    qmin_enabled,
)
from repro.clouds.fleets import AddressAllocator
from repro.netsim import IPAddress, Prefix
from repro.paper import FIGURE1
from repro.workload import monthly_google_descriptor


class TestProfiles:
    def test_twenty_ases_total(self):
        # Table 1: 20 ASes across the five providers.
        assert sum(len(asns) for asns in PROVIDER_ASES.values()) == 20

    def test_microsoft_has_twelve(self):
        assert len(PROVIDER_ASES["Microsoft"]) == 12

    def test_qmin_rollout_matrix(self):
        # Paper: by w2020, NS jump at both ccTLDs for Google/Cloudflare/
        # Facebook; Amazon only at .nz; Microsoft never.
        for provider in ("Google", "Cloudflare", "Facebook"):
            assert not qmin_enabled(provider, "nl", 2019)
            assert qmin_enabled(provider, "nl", 2020)
            assert qmin_enabled(provider, "nz", 2020)
        assert qmin_enabled("Amazon", "nz", 2020)
        assert not qmin_enabled("Amazon", "nl", 2020)
        assert not qmin_enabled("Microsoft", "nl", 2020)

    def test_google_monthly_qmin_boundary(self):
        for vantage in ("nl", "nz"):
            assert not monthly_google_descriptor(vantage, 2019, 11).qmin_override
            assert monthly_google_descriptor(vantage, 2019, 12).qmin_override
            assert monthly_google_descriptor(vantage, 2020, 4).qmin_override

    def test_facebook_thirteen_sites_weights(self):
        assert len(FACEBOOK_SITES) == 13
        assert sum(s.weight for s in FACEBOOK_SITES) == pytest.approx(1.0)
        # Location 1 dominates and uses a large buffer (never TCP).
        site1 = FACEBOOK_SITES[0]
        assert site1.index == 1
        assert site1.weight == max(s.weight for s in FACEBOOK_SITES)
        assert site1.bufsize >= 4096

    def test_traffic_share_ordering(self):
        # ccTLD shares far above root shares; .nl Google > .nz Google.
        for year in (2018, 2019, 2020):
            nl = sum(FIGURE1[("nl", year)].values())
            root = sum(FIGURE1[("root", year)].values())
            assert nl > 2 * root
            assert FIGURE1[("nl", year)]["Google"] > FIGURE1[("nz", year)]["Google"]


class TestRegistry:
    def test_all_provider_ases_attributable(self):
        registry = build_registry()
        for provider, asns in PROVIDER_ASES.items():
            for asn in asns:
                assert registry.operator_of(asn) == provider

    def test_known_anchors(self):
        registry = build_registry()
        for text, provider in (
            ("8.8.8.8", "Google"),
            ("1.1.1.1", "Cloudflare"),
            ("52.1.2.3", "Amazon"),
            ("40.76.1.1", "Microsoft"),
            ("31.13.24.5", "Facebook"),
            ("2a03:2880::1", "Facebook"),
        ):
            asn = registry.origin(IPAddress.parse(text))
            assert registry.operator_of(asn) == provider, text


class TestAllocator:
    def test_unique_addresses(self):
        allocator = AddressAllocator([Prefix.parse("192.0.2.0/28")])
        seen = {allocator.allocate().to_text() for __ in range(5)}
        assert len(seen) == 5

    def test_exhaustion(self):
        prefix = Prefix.parse("192.0.2.0/28")
        allocator = AddressAllocator([prefix])
        for __ in range(AddressAllocator.capacity(prefix)):
            allocator.allocate()
        with pytest.raises(RuntimeError):
            allocator.allocate()

    def test_round_robin_across_prefixes(self):
        allocator = AddressAllocator(
            [Prefix.parse("192.0.2.0/24"), Prefix.parse("198.51.100.0/24")]
        )
        first, second = allocator.allocate(), allocator.allocate()
        assert first.to_text().startswith("192.0.2.")
        assert second.to_text().startswith("198.51.100.")

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            AddressAllocator([])


class TestFleets:
    def test_fleet_counts_and_weights(self):
        fleet, registry = build_all_fleets("nl", 2020, seed=3)
        providers = {m.provider for m in fleet}
        assert providers == set(PROVIDERS) | {"Background"}
        total = sum(m.weight for m in fleet)
        assert total > 0
        # Background dominates weight (paper: CPs ~1/3 of traffic).
        background = sum(m.weight for m in fleet if m.provider == "Background")
        assert background / total > 0.5

    def test_provider_addresses_attributable(self):
        fleet, registry = build_all_fleets("nz", 2020, seed=4)
        for member in fleet:
            if member.provider == "Background":
                continue
            asn = registry.origin(member.resolver.v4)
            assert registry.operator_of(asn) == member.provider

    def test_facebook_fleet_all_dual_stack(self):
        fleet = build_provider_fleet("Facebook", "nl", 2020, seed=5)
        assert all(m.resolver.v6 is not None for m in fleet)
        assert {m.site_index for m in fleet} == set(range(1, 14))

    def test_microsoft_mostly_v4only(self):
        fleet = build_provider_fleet("Microsoft", "nl", 2020, seed=6)
        v4only = sum(1 for m in fleet if m.resolver.v6 is None)
        assert v4only / len(fleet) > 0.9

    def test_google_pools(self):
        fleet = build_provider_fleet("Google", "nl", 2020, seed=7)
        pools = {m.pool for m in fleet}
        assert pools == {"public-dns", "cloud"}
        public_weight = sum(m.weight for m in fleet if m.is_public_dns)
        total = sum(m.weight for m in fleet)
        assert 0.8 < public_weight / total < 0.95  # Table 4: ~86-88%

    def test_year_scaling_grows_fleet(self):
        fleet_2018 = build_provider_fleet("Amazon", "nl", 2018, seed=8)
        fleet_2020 = build_provider_fleet("Amazon", "nl", 2020, seed=8)
        assert len(fleet_2020) > len(fleet_2018)

    def test_deterministic(self):
        a, _ = build_all_fleets("nl", 2020, seed=9)
        b, _ = build_all_fleets("nl", 2020, seed=9)
        assert [(m.provider, m.resolver.resolver_id, m.weight) for m in a] == [
            (m.provider, m.resolver.resolver_id, m.weight) for m in b
        ]


#: (vantage, year, seed) worlds whose largest background AS draws more
#: resolvers than its /22 holds; every one of them used to raise
#: "address pool exhausted".
OVERSIZED_AS_WORLDS = (
    [("nl", 2020, seed) for seed in (2, 15, 31, 34, 100)]
    + [("nz", 2020, 15)]
    + [("root", 2020, seed) for seed in (2, 3, 15, 17, 23, 28, 31, 32, 34, 100, 116)]
)

#: Block 0 of the background range: every background AS's primary /22.
PRIMARY_BLOCK = Prefix.parse("100.0.0.0/12")


class TestBackgroundOverflow:
    @pytest.mark.parametrize("vantage,year,seed", OVERSIZED_AS_WORLDS)
    def test_oversized_as_builds_and_attributes(self, vantage, year, seed):
        fleet, registry = build_all_fleets(vantage, year, seed)
        addresses = [m.resolver.v4 for m in fleet] + [
            m.resolver.v6 for m in fleet if m.resolver.v6 is not None
        ]
        assert len(set(addresses)) == len(addresses)
        overflow = [
            m for m in fleet
            if m.provider == "Background"
            and not PRIMARY_BLOCK.contains(m.resolver.v4)
        ]
        assert overflow
        for member in overflow:
            asn = registry.origin(member.resolver.v4)
            assert member.pool == f"as{asn}"
            assert registry.country_of(asn) == member.resolver.site.country

    def test_as_that_fits_announces_only_its_primary(self):
        fleet, registry = build_all_fleets("nl", 2020, seed=3)
        for pool in {m.pool for m in fleet if m.provider == "Background"}:
            v4 = [p for p in registry.announcements(int(pool[2:])) if p.family == 4]
            assert len(v4) == 1 and PRIMARY_BLOCK.contains_prefix(v4[0])


class TestPTR:
    @pytest.fixture(scope="class")
    def fb_fleet(self):
        return build_provider_fleet("Facebook", "nl", 2020, seed=10)

    def test_table_covers_fleet_minus_missing(self, fb_fleet):
        table = build_facebook_ptr_table(fb_fleet)
        total_addresses = sum(
            (1 if m.resolver.v4 else 0) + (1 if m.resolver.v6 else 0)
            for m in fb_fleet
        )
        assert len(table) == total_addresses - 3  # 1 v4 + 2 v6 without PTR

    def test_v4_and_v6_share_target(self, fb_fleet):
        table = build_facebook_ptr_table(fb_fleet)
        for member in fb_fleet:
            v4_name = table.lookup(member.resolver.v4)
            v6_name = table.lookup(member.resolver.v6)
            if v4_name is not None and v6_name is not None:
                assert v4_name == v6_name

    def test_parse_ptr_site(self, fb_fleet):
        table = build_facebook_ptr_table(fb_fleet)
        for member in fb_fleet:
            name = table.lookup(member.resolver.v4)
            if name is None:
                continue
            parsed = parse_ptr_site(name)
            assert parsed is not None
            code, index = parsed
            assert index == member.site_index
            assert code == member.resolver.site.code

    def test_embedded_v4_except_site_11(self, fb_fleet):
        table = build_facebook_ptr_table(fb_fleet)
        for member in fb_fleet:
            name = table.lookup(member.resolver.v6)
            if name is None:
                continue
            embedded = parse_ptr_embedded_v4(name)
            if member.site_index == 11:
                assert embedded is None
            else:
                assert embedded == member.resolver.v4

    def test_parse_rejects_foreign_names(self):
        assert parse_ptr_site("resolver.google.com.") is None
        assert parse_ptr_embedded_v4("edge-dns.sin11.facebook.com.") is None
