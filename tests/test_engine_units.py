"""Focused unit tests for resolver-engine internals: minimisation targets,
server/family selection against its definition, the shared route table,
one-lookup location, the leaf outcomes, and session timing."""

import dataclasses
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.dnscore import Name, ROOT, RRType
from repro.netsim import GAZETTEER, IPAddress, LatencyModel
from repro.resolver import (
    CyclicPair,
    ResolverBehavior,
    SimResolver,
    SyntheticLeafAuthority,
    engine,
)
from repro.resolver.cache import MAX_TTL, CacheEntry
from repro.resolver.engine import _Session
from repro.server import AuthoritativeServer, ServerSet
from repro.sim import run_dataset
from repro.workload import monthly_google_descriptor
from repro.zones import Zone, domains_of

from .helpers import Outage


def make_resolver(**behavior_kwargs):
    return SimResolver(
        "r", GAZETTEER["AMS"],
        IPAddress.parse("192.0.2.1"), IPAddress.parse("2001:db8::1"),
        ResolverBehavior(**behavior_kwargs), seed=1,
    )


class TestMinimized:
    def test_disabled_passes_through(self):
        resolver = make_resolver(qname_minimization=False)
        qname = Name.from_text("www.example.nl")
        assert resolver._minimized(qname, RRType.A, Name.from_text("nl")) == (
            qname, RRType.A,
        )

    def test_below_zone_becomes_ns(self):
        resolver = make_resolver(qname_minimization=True)
        qname = Name.from_text("www.example.nl")
        sent, qtype = resolver._minimized(qname, RRType.A, Name.from_text("nl"))
        assert sent == Name.from_text("example.nl")
        assert qtype is RRType.NS

    def test_exact_cut_keeps_type(self):
        resolver = make_resolver(qname_minimization=True)
        qname = Name.from_text("example.nl")
        sent, qtype = resolver._minimized(qname, RRType.AAAA, Name.from_text("nl"))
        assert sent == qname
        assert qtype is RRType.AAAA

    def test_explicit_cut_overrides(self):
        resolver = make_resolver(qname_minimization=True)
        qname = Name.from_text("www.shop.co.nz")
        cut = Name.from_text("shop.co.nz")
        sent, qtype = resolver._minimized(qname, RRType.A, Name.from_text("nz"), cut)
        assert sent == cut
        assert qtype is RRType.NS

    def test_root_zone_minimisation(self):
        resolver = make_resolver(qname_minimization=True)
        qname = Name.from_text("www.example.com")
        sent, qtype = resolver._minimized(qname, RRType.A, ROOT)
        assert sent == Name.from_text("com")
        assert qtype is RRType.NS


class TestMarkerWrite:
    @settings(max_examples=200, derandomize=True)
    @given(st.floats(0.0, 1e7, allow_nan=False))
    @example(0.25)          # below one second
    @example(37.6)          # fractional
    @example(MAX_TTL)
    @example(MAX_TTL + 0.5)  # above the cap
    def test_marker_line_is_the_min_over_records_line(self, ttl):
        """The marker is written through ``put`` with its TTL; the line must
        be the one the min-over-records write left: the marker for
        ``int(max(ttl, 1))``, cached for its records' least TTL, capped."""
        resolver = make_resolver()
        qname = Name.from_text("www.example.nl")
        resolver._cache_positive_marker(12.5, qname, RRType.A, ttl)
        records = engine._positive_marker(int(max(ttl, 1.0)))
        line = resolver.cache._positive[(qname.key, RRType.A)]
        assert line == CacheEntry(
            list(records), 12.5 + min(min(r.ttl for r in records), MAX_TTL)
        )


class TestSession:
    def test_tick_accumulates_milliseconds(self):
        session = _Session(100.0)
        session.tick(250.0)
        session.tick(750.0)
        assert session.now == pytest.approx(101.0)


class TestRttMemo:
    def test_one_entry_per_server_and_site(self, small_world):
        """An RTT does not depend on the address family (the family's
        extra delay is the resolver's), so a dual-stack resolver's route
        holds one RTT per (server, site), and its v6 RTT adds the penalty."""
        network = small_world["network"]
        resolver = make_resolver(v6_extra_rtt_ms=7.0)
        resolver.resolve(network, 0.0, Name.from_text("www.example.nl"), RRType.A)
        __, nl_set, __ = network.locate(Name.from_text("nl"))
        for server_set in (network.root, nl_set):
            (key, route), = server_set.routes.items()
            assert key[0] == resolver.site.code
            assert [hop[0] for hop in route.hops] == server_set.servers
            for server, rtt4, rtt6, __ in route.hops:
                assert rtt4 == server_set.rtt_ms(server, resolver.site)
                assert rtt6 == rtt4 + 7.0


QNAME = Name.from_text("example.nl")


class _TickLog(_Session):
    """A resolution clock that records every advance, in milliseconds."""

    def __init__(self):
        super().__init__(0.0)
        self.ticks = []

    def tick(self, ms):
        self.ticks.append(ms)
        return super().tick(ms)


def attempts(resolver, server_set, faults):
    """One ``_send`` of ``QNAME`` under ``faults`` (an :class:`Outage`):
    ``(server_id, family, rtt)`` per attempt, the RTT read off the clock
    (a down server's timeout follows it)."""
    session = _TickLog()
    faults.asked.clear()
    resolver._send(session, server_set, QNAME, RRType.A, faults)
    ticks = iter(session.ticks)
    sent = []
    for server_id, family in faults.asked:
        sent.append((server_id, family, next(ticks)))
        if server_id in faults.down:
            next(ticks)
    return sent


def by_definition(resolver, server_set, down=frozenset()):
    """The attempts of one send by the deleted ``_choose_server`` /
    ``_choose_family`` / ``rtt_ms`` formulas: filter out what timed out
    (all, if nothing is left), maybe explore, else the minimum RTT; the
    family by policy, fixed ratio or logistic RTT gap; the message id; the
    RTT plus the v6 penalty; a server in ``down`` times out."""
    rng, behavior, site = resolver._rng, resolver.behavior, resolver.site

    def rtt_ms(server):
        return server_set.latency.rtt_ms(site, server.catchment_site(site))

    failed, sent = set(), []
    for __ in range(engine.MAX_RETRIES + 1):
        candidates = [
            s for s in server_set.servers if s.server_id not in failed
        ] or list(server_set.servers)
        if len(candidates) > 1 and rng.random() < engine.SERVER_EXPLORATION:
            server = candidates[int(rng.integers(len(candidates)))]
        else:
            server = min(candidates, key=rtt_ms)
        policy = behavior.family_policy
        if policy == "v4only" or resolver.v6 is None:
            family = 4
        elif policy == "v6only" or resolver.v4 is None:
            family = 6
        elif policy == "fixed":
            family = 6 if rng.random() < behavior.fixed_v6_ratio else 4
        else:
            rtt4 = rtt_ms(server)
            rtt6 = rtt4 + behavior.v6_extra_rtt_ms
            gap = (rtt4 - rtt6) / max(behavior.rtt_sharpness_ms, 1e-6)
            p6 = 1.0 / (1.0 + np.exp(-gap))
            family = 6 if rng.random() < p6 else 4
        rng.integers(65536)
        rtt = rtt_ms(server)
        if family == 6:
            rtt += behavior.v6_extra_rtt_ms
        sent.append((server.server_id, family, rtt))
        if server.server_id not in down:
            break
        failed.add(server.server_id)
    return sent


#: Family settings and the addresses they run with: every policy, and the
#: single-address resolvers that never draw a family.
FAMILIES = [
    ({"family_policy": "rtt"}, True, True),
    ({"family_policy": "rtt", "v6_extra_rtt_ms": 12.0, "rtt_sharpness_ms": 10.0}, True, True),
    ({"family_policy": "fixed", "fixed_v6_ratio": 0.3}, True, True),
    ({"family_policy": "v4only"}, True, True),
    ({"family_policy": "v6only"}, True, True),
    ({"family_policy": "rtt"}, True, False),
    ({"family_policy": "rtt", "v6_extra_rtt_ms": 3.0}, False, True),
]


def addressed_resolver(fields, has_v4, has_v6, seed=1):
    return SimResolver(
        "r", GAZETTEER["AMS"],
        IPAddress.parse("192.0.2.1") if has_v4 else None,
        IPAddress.parse("2001:db8::1") if has_v6 else None,
        ResolverBehavior(**fields), seed=seed,
    )


def make_server_set(sites=("AMS", "SYD")):
    """A set of unicast servers named ``near``, ``far``, ``mid`` at
    ``sites`` (AMS is the resolvers' own site), and its server list."""
    zone = Zone(Name.from_text("nl"), signed=False)
    servers = [
        AuthoritativeServer(name, zone, [GAZETTEER[site]])
        for name, site in zip(("near", "far", "mid"), sites)
    ]
    return ServerSet(servers, LatencyModel()), servers


class TestSelection:

    def test_no_exploration_always_fastest(self, monkeypatch):
        monkeypatch.setattr(engine, "SERVER_EXPLORATION", 0.0)
        server_set, __ = make_server_set()
        faults = Outage()
        resolver = make_resolver()
        for __ in range(10):
            assert [a[0] for a in attempts(resolver, server_set, faults)] == ["near"]

    def test_exclusion_skips_failed(self):
        server_set, __ = make_server_set()
        faults = Outage("near")
        resolver = make_resolver()
        for __ in range(20):
            asked_ids = [a[0] for a in attempts(resolver, server_set, faults)]
            assert asked_ids in (["far"], ["near", "far"])

    def test_all_excluded_falls_back(self):
        server_set, __ = make_server_set()
        faults = Outage("near", "far")
        resolver = make_resolver()
        sent = attempts(resolver, server_set, faults)
        assert len(sent) == engine.MAX_RETRIES + 1
        assert {a[0] for a in sent} <= {"near", "far"}

    def test_exploration_hits_both(self):
        server_set, __ = make_server_set()
        faults = Outage()
        resolver = make_resolver()
        chosen = {attempts(resolver, server_set, faults)[0][0] for __ in range(50)}
        assert chosen == {"near", "far"}

    def test_memoised_fastest_changes_no_choice_and_no_draw(self):
        """A send read off the shared route against the deleted formulas:
        for every family policy, for one- and three-server sets, with no
        server, one or every server timing out, the same server, family
        and RTT per attempt, and the same RNG state after."""
        for sites in (("AMS",), ("SYD", "AMS", "IAD")):
            for offline in (set(), {"near"}, {"near", "far", "mid"}):
                for fields, has_v4, has_v6 in FAMILIES:
                    server_set, __ = make_server_set(sites)
                    faults = Outage(*offline)
                    actual = addressed_resolver(fields, has_v4, has_v6)
                    expected = addressed_resolver(fields, has_v4, has_v6)
                    for __ in range(40):
                        assert attempts(actual, server_set, faults) == by_definition(
                            expected, server_set, offline
                        ), (sites, offline, fields, has_v4, has_v6)
                    assert (
                        actual._rng.bit_generator.state
                        == expected._rng.bit_generator.state
                    )

    def test_family_v6_extra_rtt_discourages_v6(self):
        server_set, __ = make_server_set()
        faults = Outage()
        resolver = make_resolver(
            family_policy="rtt", v6_extra_rtt_ms=500.0, rtt_sharpness_ms=10.0
        )
        families = {attempts(resolver, server_set, faults)[0][1] for __ in range(30)}
        assert families == {4}

    def test_family_fixed_extremes(self):
        server_set, __ = make_server_set()
        faults = Outage()

        def families(resolver):
            return {attempts(resolver, server_set, faults)[0][1] for __ in range(10)}

        assert families(make_resolver(family_policy="fixed", fixed_v6_ratio=1.0)) == {6}
        assert families(make_resolver(family_policy="fixed", fixed_v6_ratio=0.0)) == {4}


class TestRoutes:
    def test_one_route_per_site_and_family_fields(self):
        """Resolvers at one site with equal family fields share one route
        object, whatever else differs; another family field, another route."""
        server_set, __ = make_server_set()
        first = make_resolver(v6_extra_rtt_ms=4.0)
        twin = SimResolver(
            "twin", GAZETTEER["AMS"],
            IPAddress.parse("192.0.2.99"), IPAddress.parse("2001:db8::99"),
            ResolverBehavior(v6_extra_rtt_ms=4.0, qname_minimization=True), seed=9,
        )
        first._send(_Session(0.0), server_set, QNAME, RRType.A)
        (route,) = server_set.routes.values()
        twin._send(_Session(0.0), server_set, QNAME, RRType.A)
        assert list(server_set.routes.values()) == [route]
        assert next(iter(server_set.routes.values())) is route
        make_resolver(v6_extra_rtt_ms=5.0)._send(_Session(0.0), server_set, QNAME, RRType.A)
        assert len(server_set.routes) == 2

    def test_qmin_override_then_rewind_leaves_every_route_valid(self):
        """A Q-min override replaces the Google members' behaviours and the
        fleet's rewind puts the built ones back; a route is keyed by the
        family fields' values, so every route each run kept is the one a
        fresh set builds for its key."""
        override_on = monthly_google_descriptor("nz", 2019, 12)
        override_off = replace(
            override_on, dataset_id="nz-google-qmin-off", qmin_override=False
        )
        for descriptor in (override_on, override_off, override_on):
            run = run_dataset(descriptor, client_queries=300)
            sites = {m.resolver.site.code: m.resolver.site for m in run.fleet}
            kept = 0
            for server_set in run.server_sets.values():
                fresh = ServerSet(server_set.servers, server_set.latency)
                for key, route in server_set.routes.items():
                    assert route == engine.add_route(fresh, sites[key[0]], key)
                    kept += 1
            assert kept


class TestLocate:
    @staticmethod
    def deleted_lookups(tlds, qname):
        """``tld_of``, ``server_set_for`` and ``registered_cut`` as they were."""
        zones = {
            origin.key: server_set.servers[0].zone
            for origin, server_set in tlds.items() if origin.label_count == 1
        }
        if qname.canonical[:1] not in zones:
            return None
        tld = qname.ancestor_with_labels(1)
        tld_set = {origin.key: s for origin, s in tlds.items()}.get(tld.key)
        return tld, tld_set, zones[qname.canonical[:1]].covering_delegation(qname)

    def test_agrees_with_the_deleted_lookups(self, small_world):
        network = small_world["network"]
        tlds = {
            Name.from_text("nl"): network.locate(Name.from_text("nl"))[1],
            Name.from_text("nz"): network.locate(Name.from_text("nz"))[1],
        }
        delegated = domains_of(small_world["nl_zone"])
        names = [ROOT, Name.from_text("nl"), Name.from_text("NL"),
                 Name.from_text("com"), Name.from_text("www.example.com"),
                 Name.from_text("no-such-domain-xyz.nl"), Name.from_text("a.b.c.nl")]
        for domain in delegated:
            names += [domain, domain.prepend(b"www"),
                      Name.from_text(domain.prepend(b"Mail").to_text().upper())]
        for qname in names:
            expected = self.deleted_lookups(tlds, qname)
            located = network.locate(qname)
            if expected is None:
                assert located is None, qname
                continue
            (tld, tld_set, cut), (ref_tld, ref_set, ref_cut) = located, expected
            assert tld.labels == ref_tld.labels and tld_set is ref_set, qname
            assert (cut is None) == (ref_cut is None), qname
            if cut is not None:
                assert cut.labels == ref_cut.labels, qname
        assert sum(network.locate(d)[2] is not None for d in delegated) == len(delegated)


class TestLeafAuthority:
    def test_outcomes_are_shared_and_frozen(self, small_world):
        leaf = SyntheticLeafAuthority()
        domains = domains_of(small_world["nl_zone"])[:40]
        outcomes = {
            id(leaf.answer(domain, qname, qtype))
            for domain in domains
            for qname in (domain, domain.prepend(b"www"), domain.prepend(b"x1"))
            for qtype in (RRType.A, RRType.AAAA, RRType.MX, RRType.TXT, RRType.NS,
                          RRType.SRV)
        }
        assert len(outcomes) <= 4
        with pytest.raises(dataclasses.FrozenInstanceError):
            leaf.answer(domains[0], domains[0], RRType.A).ttl = 1.0

    def test_cyclic_partner_names_are_built_once(self, small_world):
        network = small_world["network"]
        first, second = domains_of(small_world["nz_zone"])[:2]
        network.leaf = SyntheticLeafAuthority([CyclicPair(first, second)])
        walk = network.cyclic_walk(first)
        assert [ns for ns, __ in walk] == [second.prepend(b"ns1"), second.prepend(b"ns2")]
        assert network.cyclic_walk(first) is walk
        assert all(ns is shared for (ns, __), shared in zip(walk, network.leaf.partner_ns[first.key]))
        for ns_name, located in walk:
            assert located == network.locate(ns_name)
            assert located[2].key == second.key
