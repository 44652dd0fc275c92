"""Focused unit tests for resolver-engine internals: minimisation targets,
server/family selection, and session timing."""

import numpy as np
import pytest

from repro.dnscore import Name, ROOT, RRType
from repro.netsim import GAZETTEER, IPAddress, LatencyModel
from repro.resolver import ResolverBehavior, SimResolver, engine
from repro.resolver.engine import _Session
from repro.server import AuthoritativeServer, ServerSet
from repro.zones import Zone


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


class TestSession:
    def test_tick_accumulates_milliseconds(self):
        session = _Session(100.0)
        session.tick(250.0)
        session.tick(750.0)
        assert session.now == pytest.approx(101.0)


class TestRttMemo:
    def test_one_entry_per_server_and_site(self, small_world):
        """An RTT does not depend on the address family (the family's
        extra delay is the resolver's), so a dual-stack resolver choosing
        its family by RTT memoises one RTT per (server, site)."""
        network = small_world["network"]
        resolver = make_resolver()
        resolver.resolve(network, 0.0, Name.from_text("www.example.nl"), RRType.A)
        for server_set in (network.root, network.server_set_for(Name.from_text("nl"))):
            pairs = {(s.server_id, resolver.site.code) for s in server_set}
            assert server_set._rtts and set(server_set._rtts) <= pairs


class TestSelection:
    def _server_set(self):
        latency = LatencyModel()
        zone = Zone(Name.from_text("nl"), signed=False)
        near = AuthoritativeServer("near", zone, [GAZETTEER["AMS"]])
        far = AuthoritativeServer("far", zone, [GAZETTEER["SYD"]])
        return ServerSet([near, far], latency), near, far

    def test_no_exploration_always_fastest(self, monkeypatch):
        monkeypatch.setattr(engine, "SERVER_EXPLORATION", 0.0)
        server_set, near, far = self._server_set()
        resolver = make_resolver()
        for __ in range(10):
            assert resolver._choose_server(server_set) is near

    def test_exclusion_skips_failed(self):
        server_set, near, far = self._server_set()
        resolver = make_resolver()
        assert resolver._choose_server(server_set, frozenset({"near"})) is far

    def test_all_excluded_falls_back(self):
        server_set, near, far = self._server_set()
        resolver = make_resolver()
        chosen = resolver._choose_server(server_set, frozenset({"near", "far"}))
        assert chosen in (near, far)

    def test_exploration_hits_both(self):
        server_set, near, far = self._server_set()
        resolver = make_resolver()
        chosen = {resolver._choose_server(server_set).server_id for __ in range(50)}
        assert chosen == {"near", "far"}

    def test_memoised_fastest_changes_no_choice_and_no_draw(self):
        """``_choose_server`` against its definition (filter, maybe
        explore, else the minimum RTT over the candidates): same servers,
        same RNG consumption, whatever is excluded."""

        def by_definition(resolver, server_set, exclude):
            candidates = [s for s in server_set.servers if s.server_id not in exclude]
            if not candidates:
                candidates = list(server_set.servers)
            if (
                len(candidates) > 1
                and resolver._rng.random() < engine.SERVER_EXPLORATION
            ):
                return candidates[int(resolver._rng.integers(len(candidates)))]
            return min(
                candidates, key=lambda s: server_set.rtt_ms(s, resolver.site)
            )

        server_set, near, far = self._server_set()
        actual = make_resolver()
        expected = make_resolver()
        excludes = [frozenset(), frozenset({"near"}), frozenset({"near", "far"}),
                    frozenset({"far"}), frozenset()]
        for i in range(200):
            exclude = excludes[i % len(excludes)]
            assert actual._choose_server(server_set, exclude) is by_definition(
                expected, server_set, exclude
            )
        assert actual._rng.random() == expected._rng.random()

    def test_family_v6_extra_rtt_discourages_v6(self):
        server_set, near, __ = self._server_set()
        resolver = make_resolver(
            family_policy="rtt", v6_extra_rtt_ms=500.0, rtt_sharpness_ms=10.0
        )
        families = {resolver._choose_family(server_set, near) for __ in range(30)}
        assert families == {4}

    def test_family_fixed_extremes(self):
        server_set, near, __ = self._server_set()
        always_v6 = make_resolver(family_policy="fixed", fixed_v6_ratio=1.0)
        assert {always_v6._choose_family(server_set, near) for __ in range(10)} == {6}
        never_v6 = make_resolver(family_policy="fixed", fixed_v6_ratio=0.0)
        assert {never_v6._choose_family(server_set, near) for __ in range(10)} == {4}
