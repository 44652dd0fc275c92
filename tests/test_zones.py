"""Unit tests for the zone model and synthetic zone builders."""

import numpy as np
import pytest

from repro.dnscore import AAAARdata, ARdata, Name, NSRdata, ROOT, RRType
from repro.zones.zone import _fake_signature
from repro.zones import (
    LookupOutcome,
    RRset,
    Zone,
    ZoneSpec,
    build_registry_zone,
    build_root_zone,
    domains_of,
    synthetic_labels,
    ZipfSampler,
)


@pytest.fixture
def nl_zone():
    zone = Zone(Name.from_text("nl"), signed=True)
    zone.add_delegation(
        Name.from_text("example.nl"),
        [Name.from_text("ns1.hoster.net"), Name.from_text("ns2.hoster.net")],
        secure=True,
    )
    zone.add_delegation(
        Name.from_text("insecure.nl"),
        [Name.from_text("ns1.other.net")],
        secure=False,
    )
    return zone


class TestZoneLookup:
    def test_apex_soa_answer(self, nl_zone):
        result = nl_zone.lookup(Name.from_text("nl"), RRType.SOA)
        assert result.outcome is LookupOutcome.ANSWER
        assert result.answers[0].rrtype is RRType.SOA

    def test_apex_dnskey_present_when_signed(self, nl_zone):
        result = nl_zone.lookup(Name.from_text("nl"), RRType.DNSKEY)
        assert result.outcome is LookupOutcome.ANSWER
        assert len(result.answers) == 2  # KSK + ZSK

    def test_unsigned_zone_has_no_dnskey(self):
        zone = Zone(Name.from_text("test"), signed=False)
        result = zone.lookup(Name.from_text("test"), RRType.DNSKEY)
        assert result.outcome is LookupOutcome.NODATA

    def test_delegation_returns_referral(self, nl_zone):
        result = nl_zone.lookup(Name.from_text("example.nl"), RRType.A)
        assert result.outcome is LookupOutcome.DELEGATION
        assert any(r.rrtype is RRType.NS for r in result.authorities)
        assert not result.answers

    def test_below_delegation_also_referral(self, nl_zone):
        result = nl_zone.lookup(Name.from_text("www.example.nl"), RRType.A)
        assert result.outcome is LookupOutcome.DELEGATION

    def test_ds_at_cut_answered_by_parent(self, nl_zone):
        result = nl_zone.lookup(Name.from_text("example.nl"), RRType.DS, dnssec_ok=True)
        assert result.outcome is LookupOutcome.ANSWER
        assert result.answers[0].rrtype is RRType.DS

    def test_insecure_delegation_has_no_ds(self, nl_zone):
        result = nl_zone.lookup(Name.from_text("insecure.nl"), RRType.DS)
        assert result.outcome is LookupOutcome.NODATA

    def test_secure_referral_carries_ds_when_do_set(self, nl_zone):
        result = nl_zone.lookup(Name.from_text("example.nl"), RRType.A, dnssec_ok=True)
        assert any(r.rrtype is RRType.DS for r in result.authorities)

    def test_nxdomain_for_unregistered(self, nl_zone):
        result = nl_zone.lookup(Name.from_text("nope.nl"), RRType.A)
        assert result.outcome is LookupOutcome.NXDOMAIN
        assert any(r.rrtype is RRType.SOA for r in result.authorities)

    def test_nxdomain_with_do_carries_nsec(self, nl_zone):
        result = nl_zone.lookup(Name.from_text("nope.nl"), RRType.A, dnssec_ok=True)
        assert any(r.rrtype is RRType.NSEC for r in result.authorities)
        assert any(r.rrtype is RRType.RRSIG for r in result.authorities)

    def test_answer_with_do_carries_rrsig(self, nl_zone):
        result = nl_zone.lookup(Name.from_text("nl"), RRType.SOA, dnssec_ok=True)
        assert any(r.rrtype is RRType.RRSIG for r in result.answers)

    def test_out_of_bailiwick_raises(self, nl_zone):
        with pytest.raises(ValueError):
            nl_zone.lookup(Name.from_text("example.com"), RRType.A)

    def test_empty_non_terminal_is_nodata(self):
        zone = Zone(Name.from_text("nz"), signed=True)
        zone.add_delegation(
            Name.from_text("shop.co.nz"), [Name.from_text("ns1.x.net")]
        )
        result = zone.lookup(Name.from_text("co.nz"), RRType.A)
        assert result.outcome is LookupOutcome.NODATA

    def test_out_of_zone_rrset_rejected(self, nl_zone):
        with pytest.raises(ValueError):
            nl_zone.add_rrset(
                RRset(Name.from_text("example.com"), RRType.NS, 300,
                      [NSRdata(Name.from_text("ns.x.net"))])
            )


def records_text(result):
    """Every field a response is made of, spelled out."""
    return (
        result.outcome,
        [r.to_text() for r in result.answers],
        [r.to_text() for r in result.authorities],
        [r.to_text() for r in result.additionals],
        [r.name.labels for r in result.authorities + result.additionals],
        [r.rdata.to_wire() for r in result.authorities + result.additionals],
    )


@pytest.fixture
def zone(nl_zone):
    """``nl_zone`` plus an in-bailiwick delegation with glue.  In canonical
    order its names are nl, example.nl, insecure.nl, vanity.nl and
    ns1.vanity.nl."""
    vanity = Name.from_text("vanity.nl")
    nl_zone.add_delegation(
        vanity, [vanity.prepend(b"ns1"), vanity.prepend(b"ns2")], secure=True
    )
    nl_zone.add_rrset(
        RRset(vanity.prepend(b"ns1"), RRType.A, 3600, [ARdata(0xC6336401)])
    )
    return nl_zone


class TestReferralMemo:
    @pytest.mark.parametrize("dnssec_ok", [False, True])
    @pytest.mark.parametrize("cut", ["example.nl", "insecure.nl", "vanity.nl"])
    def test_memoised_referral_equals_a_fresh_build(self, zone, cut, dnssec_ok):
        cut = Name.from_text(cut)
        memoised = zone.lookup(cut.prepend(b"www"), RRType.A, dnssec_ok)
        fresh = zone._build_referral(cut, dnssec_ok)
        assert memoised is not fresh
        assert records_text(memoised) == records_text(fresh)
        assert memoised.anchor.labels == cut.labels

    def test_one_result_for_every_name_under_the_cut(self, zone):
        first = zone.lookup(Name.from_text("www.example.nl"), RRType.A, True)
        assert zone.lookup(Name.from_text("a.b.example.nl"), RRType.MX, True) is first
        assert zone.lookup(Name.from_text("example.nl"), RRType.NS, True) is first
        # DO is part of the key; a DS query at the cut is not a referral.
        assert zone.lookup(Name.from_text("www.example.nl"), RRType.A, False) is not first
        at_cut = zone.lookup(Name.from_text("example.nl"), RRType.DS, True)
        assert at_cut.outcome is LookupOutcome.ANSWER

    def test_add_rrset_drops_the_memo(self, zone):
        qname = Name.from_text("www.vanity.nl")
        before = zone.lookup(qname, RRType.A, True)
        assert len(before.additionals) == 1
        zone.add_rrset(
            RRset(
                Name.from_text("ns2.vanity.nl"), RRType.AAAA, 3600,
                [AAAARdata(0x20010DB8 << 96)],
            )
        )
        after = zone.lookup(qname, RRType.A, True)
        assert after is not before
        assert len(after.additionals) == 2
        assert records_text(after) == records_text(
            zone._build_referral(Name.from_text("vanity.nl"), True)
        )

    def test_add_delegation_drops_the_memo(self, zone):
        qname = Name.from_text("www.example.nl")
        before = zone.lookup(qname, RRType.A, False)
        zone.add_delegation(
            Name.from_text("example.nl"), [Name.from_text("ns9.elsewhere.net")]
        )
        after = zone.lookup(qname, RRType.A, False)
        assert [r.rdata.to_text() for r in after.authorities] == ["ns9.elsewhere.net."]
        assert before is not after

    def test_case_variant_cut_gets_its_own_spelling(self, zone):
        """The cut is derived from the query name, so its case shows in
        the RRSIG owner and in the signature hashed from it; a memo keyed
        on the casefolded cut would answer in the first asker's case."""
        lower = zone.lookup(Name.from_text("www.example.nl"), RRType.A, True)
        upper = zone.lookup(Name.from_text("www.EXAMPLE.nl"), RRType.A, True)
        assert upper is not lower
        assert upper.anchor.labels == (b"EXAMPLE", b"nl")
        fresh = zone._build_referral(Name.from_text("EXAMPLE.nl"), True)
        assert records_text(upper) == records_text(fresh)
        assert records_text(upper) != records_text(lower)
        # And the spelling is exact, not merely case-insensitive-equal.
        assert zone.lookup(Name.from_text("x.EXAMPLE.nl"), RRType.A, True) is upper

    def test_signature_memo_is_the_pure_function(self, zone):
        for name, rrtype in [("example.nl", RRType.DS), ("Example.NL", RRType.DS), ("nl", RRType.SOA)]:
            name = Name.from_text(name)
            memoised = zone._signature(name, rrtype)
            assert memoised == _fake_signature(name, rrtype, zone.origin)
            assert zone._signature(name, rrtype) is memoised

    def test_memo_is_bounded(self, zone, monkeypatch):
        import repro.zones.zone as zone_module

        monkeypatch.setattr(zone_module, "MEMO_LIMIT", 4)
        for i in range(32):
            spelling = "".join(
                c.upper() if (i >> bit) & 1 else c for bit, c in enumerate("example")
            )
            zone.lookup(Name.from_text(f"www.{spelling}.nl"), RRType.A, True)
            zone.lookup(Name.from_text(f"{spelling}.nl"), RRType.DS, True)
            zone.lookup(Name.from_text(f"{spelling}-{i}.nl"), RRType.A, bool(i & 1))
            assert len(zone._lookups) <= 4
            assert len(zone._signatures) <= 4


class TestLookupMemo:
    """Every outcome is memoised and anchored.  A negative is keyed by its
    NSEC interval, never by how the qname is spelled, so everything in one
    interval shares one result."""

    @pytest.mark.parametrize("dnssec_ok", [False, True])
    @pytest.mark.parametrize(
        "qname, qtype, outcome, anchor",
        [
            ("www.example.nl", RRType.A, LookupOutcome.DELEGATION, "example.nl"),
            ("nl", RRType.SOA, LookupOutcome.ANSWER, "nl"),
            ("nl", RRType.DNSKEY, LookupOutcome.ANSWER, "nl"),
            ("example.nl", RRType.DS, LookupOutcome.ANSWER, "example.nl"),
            ("nl", RRType.NS, LookupOutcome.NODATA, "nl"),
            ("insecure.nl", RRType.DS, LookupOutcome.NODATA, "nl"),
            ("a.missing.nl", RRType.A, LookupOutcome.NXDOMAIN, "nl"),
        ],
    )
    def test_every_outcome_is_anchored(self, zone, qname, qtype, outcome, anchor, dnssec_ok):
        result = zone.lookup(Name.from_text(qname), qtype, dnssec_ok)
        assert result.outcome is outcome
        assert result.anchor == Name.from_text(anchor)
        assert zone.lookup(Name.from_text(qname), qtype, dnssec_ok) is result

    def test_one_negative_per_nsec_interval_whatever_the_spelling(self, zone):
        # All between insecure.nl and vanity.nl.
        interval = ["junk.nl", "JUNK.nl", "Kite.NL", "other.nl", "x.OTHER.nl"]
        first = zone.lookup(Name.from_text(interval[0]), RRType.A, True)
        for qname in interval[1:]:
            assert zone.lookup(Name.from_text(qname), RRType.AAAA, True) is first
        assert first.anchor is zone.origin
        # Another interval, another proof.
        elsewhere = zone.lookup(Name.from_text("abc.nl"), RRType.A, True)
        assert elsewhere is not first
        assert records_text(elsewhere) != records_text(first)
        # NODATA and NXDOMAIN in one interval (both end at insecure.nl).
        nodata = zone.lookup(Name.from_text("insecure.nl"), RRType.DS, True)
        nxdomain = zone.lookup(Name.from_text("foo.nl"), RRType.A, True)
        assert nodata.outcome is LookupOutcome.NODATA
        assert nxdomain.outcome is LookupOutcome.NXDOMAIN
        # Without a proof the interval does not matter: one SOA for all.
        plain = zone.lookup(Name.from_text("abc.nl"), RRType.A, False)
        assert zone.lookup(Name.from_text("junk.nl"), RRType.MX, False) is plain

    @pytest.mark.parametrize("dnssec_ok", [False, True])
    def test_memoised_negative_equals_a_fresh_build(self, zone, dnssec_ok):
        # Pairs in one interval, every interval in turn on one zone.
        for first, then, qtype in [
            ("abc.nl", "ABD.nl", RRType.MX),           # after the apex
            ("foo.nl", "Fop.nl", RRType.A),            # up to insecure.nl
            ("junk.nl", "x.OTHER.nl", RRType.A),       # up to vanity.nl
            ("zz.nl", "ZZZ.nl", RRType.A),             # wraps to the apex
            ("insecure.nl", "INSECURE.nl", RRType.DS), # NODATA at a cut
            ("nl", "NL", RRType.A),                    # NODATA at the apex
        ]:
            memoised = zone.lookup(Name.from_text(first), qtype, dnssec_ok)
            assert zone.lookup(Name.from_text(then), qtype, dnssec_ok) is memoised
            fresh = zone._negative(Name.from_text(then), memoised.outcome, dnssec_ok)
            assert fresh is not memoised
            assert records_text(memoised) == records_text(fresh), (first, then)

    @pytest.mark.parametrize("dnssec_ok", [False, True])
    @pytest.mark.parametrize(
        "qname, qtype", [("nl", RRType.SOA), ("NL", RRType.DNSKEY), ("Example.nl", RRType.DS)]
    )
    def test_memoised_answer_equals_a_fresh_build(self, zone, qname, qtype, dnssec_ok):
        name = Name.from_text(qname)
        memoised = zone.lookup(name, qtype, dnssec_ok)
        assert memoised.outcome is LookupOutcome.ANSWER
        assert memoised.anchor.labels == name.labels
        fresh = zone._answer(name, zone.rrset(name, qtype), dnssec_ok)
        assert [r.to_text() for r in memoised.answers] == [r.to_text() for r in fresh.answers]
        # The RRSIG owner is the query's spelling, so the spelling is keyed.
        other = zone.lookup(Name.from_text(qname.swapcase()), qtype, dnssec_ok)
        assert other is not memoised

    def test_add_rrset_drops_every_outcome(self, zone):
        queries = [
            ("www.example.nl", RRType.A),   # referral
            ("nl", RRType.SOA),             # answer
            ("example.nl", RRType.DS),      # answer at a cut
            ("junk.nl", RRType.A),          # NXDOMAIN
            ("nl", RRType.A),               # NODATA
        ]
        before = [zone.lookup(Name.from_text(q), t, True) for q, t in queries]
        kite = Name.from_text("kite.nl")
        zone.add_delegation(kite, [Name.from_text("ns1.hoster.net")])
        after = [zone.lookup(Name.from_text(q), t, True) for q, t in queries]
        assert all(a is not b for a, b in zip(after, before))
        # kite.nl splits junk.nl's interval: the proof now ends there.
        junk = after[3]
        nsec = next(r for r in junk.authorities if r.rrtype is RRType.NSEC)
        assert nsec.rdata.next_name == kite
        assert records_text(junk) == records_text(
            zone._negative(Name.from_text("junk.nl"), LookupOutcome.NXDOMAIN, True)
        )


class TestNSECChain:
    def test_nsec_brackets_missing_name(self, nl_zone):
        nsec = nl_zone.nsec_for(Name.from_text("fake.nl"))
        assert nsec is not None
        assert nsec.rrtype is RRType.NSEC

    def test_unsigned_zone_has_no_nsec(self):
        zone = Zone(Name.from_text("test"), signed=False)
        assert zone.nsec_for(Name.from_text("x.test")) is None


class TestBuilders:
    def test_synthetic_labels_unique_and_count(self):
        labels = synthetic_labels(500)
        assert len(labels) == 500
        assert len(set(labels)) == 500

    def test_registry_zone_second_level_only(self):
        spec = ZoneSpec(origin="nl", second_level_count=100, seed=1)
        zone = build_registry_zone(spec)
        domains = domains_of(zone)
        assert len(domains) == 100
        assert all(d.label_count == 2 for d in domains)

    def test_registry_zone_with_third_level(self):
        spec = ZoneSpec(origin="nz", second_level_count=20, third_level_count=80, seed=1)
        zone = build_registry_zone(spec)
        domains = domains_of(zone)
        assert len(domains) == 100
        assert sum(1 for d in domains if d.label_count == 3) == 80

    def test_zone_spec_scale_factor(self):
        spec = ZoneSpec(
            origin="nl", second_level_count=1000, real_size=5_800_000
        )
        assert spec.scale_factor == pytest.approx(5800.0)

    def test_registry_zone_deterministic(self):
        spec = ZoneSpec(origin="nl", second_level_count=50, seed=7)
        a = build_registry_zone(spec)
        b = build_registry_zone(spec)
        assert domains_of(a) == domains_of(b)
        # DS presence (secure flags) must also match.
        for name in domains_of(a):
            assert (a.rrset(name, RRType.DS) is None) == (b.rrset(name, RRType.DS) is None)

    def test_domains_of_is_in_canonical_order(self):
        zone = build_registry_zone(
            ZoneSpec(origin="nz", second_level_count=20, third_level_count=30, seed=2)
        )
        by_comparison = sorted(zone.delegation_names)
        assert [n.labels for n in domains_of(zone)] == [n.labels for n in by_comparison]

    def test_hoster_nameservers_are_parsed_once(self):
        zone = build_registry_zone(ZoneSpec(origin="nl", second_level_count=200, seed=7))
        targets = {}
        for cut in domains_of(zone):
            for rdata in zone.rrset(cut, RRType.NS).rdatas:
                if not rdata.target.is_subdomain_of(zone.origin):
                    assert targets.setdefault(rdata.target, rdata.target) is rdata.target
        assert targets
        assert all(
            t.to_text().split(".", 1)[0] in ("ns1", "ns2", "ns3") for t in targets
        )

    def test_root_zone_delegates_tlds(self):
        root = build_root_zone()
        result = root.lookup(Name.from_text("example.nl"), RRType.A)
        assert result.outcome is LookupOutcome.DELEGATION

    def test_root_zone_nxdomain_for_junk_tld(self):
        root = build_root_zone()
        result = root.lookup(Name.from_text("wpad.local-junk-xyzzy"), RRType.A)
        assert result.outcome is LookupOutcome.NXDOMAIN

    def test_root_zone_has_glue_for_root_servers(self):
        root = build_root_zone()
        # Queries below the delegated "net" TLD get a referral, but the
        # root-server address records exist in zone data (priming glue).
        result = root.lookup(Name.from_text("a.root-servers.net"), RRType.A)
        assert result.outcome is LookupOutcome.DELEGATION
        assert root.rrset(Name.from_text("a.root-servers.net"), RRType.A) is not None


class TestZipf:
    def test_rank_zero_most_probable(self):
        sampler = ZipfSampler(100, exponent=1.0)
        assert sampler.probability(0) > sampler.probability(1) > sampler.probability(50)

    def test_probabilities_sum_to_one(self):
        sampler = ZipfSampler(50)
        total = sum(sampler.probability(i) for i in range(50))
        assert total == pytest.approx(1.0)

    def test_samples_in_range_and_skewed(self):
        sampler = ZipfSampler(1000, exponent=1.0)
        rng = np.random.default_rng(42)
        draws = sampler.sample_many(rng, 20_000)
        assert draws.min() >= 0 and draws.max() < 1000
        # Top-10 ranks should dominate uniform expectation by a wide margin.
        top10 = float(np.mean(draws < 10))
        assert top10 > 0.25

    def test_exponent_zero_is_uniform(self):
        sampler = ZipfSampler(10, exponent=0.0)
        for i in range(10):
            assert sampler.probability(i) == pytest.approx(0.1)

    def test_deterministic_given_seed(self):
        sampler = ZipfSampler(100)
        a = sampler.sample_many(np.random.default_rng(1), 100)
        b = sampler.sample_many(np.random.default_rng(1), 100)
        assert (a == b).all()

    def test_invalid_args_rejected(self):
        with pytest.raises(ValueError):
            ZipfSampler(0)
        with pytest.raises(ValueError):
            ZipfSampler(10, exponent=-1)
        with pytest.raises(ValueError):
            ZipfSampler(10).probability(10)
