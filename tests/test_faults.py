"""Tests for the fault-injection subsystem (``repro.faults``) and the
resolver-side resilience it exercises.

That a disabled :class:`FaultPlan` is no plan at all, and that a fixed
scenario and seed give the same bytes on every backend, is pinned in
``test_oracle`` (its null-plan row and its chaos cases).  Here: the plan,
the injector's verdicts, the scenarios, non-zero ``faults.*`` /
``resolver.retry.*`` counters, and the resolver-side resilience they
exercise.
"""

from dataclasses import replace

import pytest

from repro.capture import CaptureStore, Transport
from repro.dnscore import Message, Name, RCode, RRType
from repro.faults import (
    CHAOS_SCENARIOS,
    FamilyBlackout,
    FaultInjector,
    FaultPlan,
    LatencySpike,
    OutageWindow,
    RRLStorm,
    chaos_scenario,
    derive_fault_seed,
)
from repro.netsim import GAZETTEER, IPAddress, LatencyModel
from repro.resolver import AuthorityNetwork, ResolverBehavior, SimResolver
from repro.server import AuthoritativeServer, ServerSet
from repro.sim import run_dataset
from repro.telemetry import MetricsRegistry
from repro.workload import dataset
from repro.zones import Zone, build_root_zone

from .helpers import sim_counters

DATASET = "nz-w2018"
QUERIES = 400

QK = b"example.nz"


def make_injector(plan, seed=1, start=0.0, duration=100.0):
    return FaultInjector(plan, seed, start, duration)


class TestFaultPlan:
    def test_null_plan_is_disabled(self):
        assert not FaultPlan().enabled
        assert not FaultPlan(name="named-but-empty").enabled

    def test_any_fault_enables(self):
        assert FaultPlan(packet_loss=0.01).enabled
        assert FaultPlan(outages=(OutageWindow(),)).enabled
        assert FaultPlan(blackouts=(FamilyBlackout(6),)).enabled
        assert FaultPlan(latency=(LatencySpike(extra_ms=5.0),)).enabled
        assert FaultPlan(storms=(RRLStorm(0.1),)).enabled

    def test_lists_coerced_to_tuples(self):
        plan = FaultPlan(outages=[OutageWindow("nl-a")])
        assert isinstance(plan.outages, tuple)

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultPlan(packet_loss=1.5)
        with pytest.raises(ValueError):
            OutageWindow("x", 0.5, 0.5)       # empty window
        with pytest.raises(ValueError):
            OutageWindow("x", -0.1, 0.5)
        with pytest.raises(ValueError):
            FamilyBlackout(5)
        with pytest.raises(ValueError):
            LatencySpike(multiplier=0.5)
        with pytest.raises(ValueError):
            RRLStorm(1.5)

    def test_server_patterns(self):
        window = OutageWindow("*", 0.0, 1.0)
        assert window.covers("nl-a", 0.5) and window.covers("b-root", 0.5)
        prefix = OutageWindow("nl-*", 0.0, 1.0)
        assert prefix.covers("nl-a", 0.5)
        assert not prefix.covers("nz-a", 0.5)
        suffix = OutageWindow("*-a", 0.0, 1.0)
        assert suffix.covers("nl-a", 0.5) and suffix.covers("nz-a", 0.5)
        assert not suffix.covers("nl-b", 0.5)
        exact = OutageWindow("nl-a", 0.0, 1.0)
        assert exact.covers("nl-a", 0.5)
        assert not exact.covers("nl-ab", 0.5)

    def test_window_bounds_are_half_open(self):
        window = OutageWindow("*", 0.2, 0.8)
        assert not window.covers("x", 0.19)
        assert window.covers("x", 0.2)
        assert window.covers("x", 0.79)
        assert not window.covers("x", 0.8)


class TestFaultInjector:
    def test_window_frac_clamped(self):
        injector = make_injector(FaultPlan(), start=100.0, duration=100.0)
        assert injector.window_frac(50.0) == 0.0
        assert injector.window_frac(150.0) == 0.5
        assert injector.window_frac(500.0) == 1.0

    def test_verdicts_are_deterministic(self):
        plan = FaultPlan(packet_loss=0.5)
        a = make_injector(plan, seed=9)
        b = make_injector(plan, seed=9)
        fates_a = [a.udp_fate("s", 4, float(t), QK).dropped for t in range(200)]
        fates_b = [b.udp_fate("s", 4, float(t), QK).dropped for t in range(200)]
        assert fates_a == fates_b
        assert any(fates_a) and not all(fates_a)

    def test_seed_changes_verdicts(self):
        plan = FaultPlan(packet_loss=0.5)
        a = make_injector(plan, seed=1)
        b = make_injector(plan, seed=2)
        fates_a = [a.udp_fate("s", 4, float(t), QK).dropped for t in range(200)]
        fates_b = [b.udp_fate("s", 4, float(t), QK).dropped for t in range(200)]
        assert fates_a != fates_b

    def test_loss_extremes(self):
        never = make_injector(FaultPlan(packet_loss=0.0))
        assert not any(
            never.udp_fate("s", 4, float(t), QK).dropped for t in range(50)
        )
        always = make_injector(FaultPlan(packet_loss=1.0))
        verdicts = [always.udp_fate("s", 4, float(t), QK) for t in range(50)]
        assert all(v.dropped and v.cause == "loss" for v in verdicts)

    def test_outage_window_and_cause(self):
        plan = FaultPlan(outages=(OutageWindow("nl-a", 0.4, 0.6),))
        injector = make_injector(plan, duration=100.0)
        assert not injector.udp_fate("nl-a", 4, 10.0, QK).dropped
        verdict = injector.udp_fate("nl-a", 4, 50.0, QK)
        assert verdict.dropped and verdict.cause == "outage"
        assert not injector.udp_fate("nl-b", 4, 50.0, QK).dropped
        assert not injector.udp_fate("nl-a", 4, 90.0, QK).dropped

    def test_family_blackout(self):
        plan = FaultPlan(blackouts=(FamilyBlackout(6, 0.0, 1.0),))
        injector = make_injector(plan)
        assert injector.udp_fate("s", 6, 10.0, QK).cause == "blackout"
        assert not injector.udp_fate("s", 4, 10.0, QK).dropped

    def test_storm_is_probabilistic_within_window(self):
        plan = FaultPlan(storms=(RRLStorm(0.5, "*", 0.0, 0.5),))
        injector = make_injector(plan, duration=100.0)
        inside = [
            injector.udp_fate("s", 4, float(t), QK).dropped for t in range(50)
        ]
        outside = [
            injector.udp_fate("s", 4, float(t), QK).dropped for t in range(60, 100)
        ]
        assert any(inside) and not all(inside)
        assert not any(outside)

    def test_latency_spike_additive_and_multiplicative(self):
        plan = FaultPlan(
            latency=(LatencySpike("s", 0.0, 0.5, multiplier=3.0, extra_ms=10.0),)
        )
        injector = make_injector(plan, duration=100.0)
        assert injector.extra_latency_ms("s", 10.0, base_rtt_ms=20.0) == 50.0
        assert injector.extra_latency_ms("s", 90.0, base_rtt_ms=20.0) == 0.0
        assert injector.extra_latency_ms("other", 10.0, base_rtt_ms=20.0) == 0.0

    def test_stats_and_publish(self):
        plan = FaultPlan(
            outages=(OutageWindow("*", 0.0, 1.0),),
            latency=(LatencySpike("*", 0.0, 1.0, extra_ms=5.0),),
        )
        injector = make_injector(plan)
        injector.extra_latency_ms("s", 1.0, 10.0)
        injector.udp_fate("s", 4, 1.0, QK)
        injector.udp_fate("s", 4, 2.0, QK)
        metrics = MetricsRegistry()
        injector.publish_metrics(metrics)
        snap = metrics.snapshot()
        assert snap.counters["faults.checks"] == 2
        assert snap.counters["faults.dropped{cause=outage}"] == 2
        assert snap.counters["faults.latency_spikes"] == 1
        assert snap.counters["faults.extra_latency_ms"] == 5

    def test_invalid_window_duration(self):
        with pytest.raises(ValueError):
            FaultInjector(FaultPlan(), 1, 0.0, 0.0)


class TestScenariosAndSeeds:
    def test_registry_names_and_enabled(self):
        assert len(CHAOS_SCENARIOS) >= 8
        for name, plan in CHAOS_SCENARIOS.items():
            assert plan.enabled, name
            assert plan.name == name
            assert plan.seed is None  # scenarios never pin a seed themselves

    def test_lookup_and_seed_pinning(self):
        plan = chaos_scenario("default-loss")
        assert plan.packet_loss == pytest.approx(0.01)
        pinned = chaos_scenario("default-loss", seed=99)
        assert pinned.seed == 99
        assert chaos_scenario("default-loss").seed is None

    def test_unknown_scenario_lists_known(self):
        with pytest.raises(KeyError, match="default-loss"):
            chaos_scenario("nope")

    def test_derive_fault_seed(self):
        assert derive_fault_seed(1) == derive_fault_seed(1)
        assert derive_fault_seed(1) != derive_fault_seed(2)
        assert 0 <= derive_fault_seed(20201027) < 2**32


@pytest.fixture(scope="module")
def baseline_run():
    return run_dataset(dataset(DATASET), client_queries=QUERIES)


class TestZeroFaultIdentity:
    def test_no_fault_telemetry_without_plan(self, baseline_run):
        counters = baseline_run.telemetry.counters
        assert not any(key.startswith("faults.") for key in counters)


@pytest.fixture(scope="module")
def chaos_run():
    descriptor = replace(
        dataset(DATASET), fault_plan=chaos_scenario("heavy-loss")
    )
    return run_dataset(descriptor, client_queries=QUERIES)


class TestChaosDeterminism:
    def test_chaos_counters_nonzero(self, chaos_run):
        counters = chaos_run.telemetry.counters
        assert counters["faults.checks"] > 0
        assert counters["faults.dropped{cause=loss}"] > 0
        retransmits = sum(
            value for key, value in counters.items()
            if key.startswith("resolver.retry.retransmits{")
        )
        assert retransmits > 0
        timeouts = sum(
            value for key, value in counters.items()
            if key.startswith("resolver.retry.timeouts{")
        )
        assert timeouts > 0

    def test_chaos_seed_varies_placement(self, chaos_run):
        descriptor = replace(
            dataset(DATASET), fault_plan=chaos_scenario("heavy-loss", seed=4242)
        )
        other = run_dataset(descriptor, client_queries=QUERIES)
        assert (
            sim_counters(chaos_run.telemetry) != sim_counters(other.telemetry)
        )

    def test_total_outage_drops_capture_mid_window(self):
        descriptor = replace(
            dataset(DATASET), fault_plan=chaos_scenario("total-outage")
        )
        run = run_dataset(descriptor, client_queries=QUERIES)
        counters = run.telemetry.counters
        assert counters["faults.dropped{cause=outage}"] > 0
        # The NS set is dark for the middle fifth: some resolutions must
        # exhaust their retries.
        exhausted = sum(
            value for key, value in counters.items()
            if key.startswith("resolver.retry.exhausted{")
        )
        assert exhausted > 0


# -- resolver-side resilience (unit level) ----------------------------------

SRC = IPAddress.parse("192.0.2.99")


def make_world(n_servers=3):
    latency = LatencyModel()
    capture = CaptureStore()
    zone = Zone(Name.from_text("nl"), signed=True)
    zone.add_delegation(
        Name.from_text("example.nl"), [Name.from_text("ns1.h.net")], secure=True
    )
    sites = [["AMS"], ["LHR"], ["FRA"], ["IAD"]]
    servers = [
        AuthoritativeServer(
            f"nl-{i}", zone, [GAZETTEER[c] for c in sites[i]], capture=capture
        )
        for i in range(n_servers)
    ]
    tld_set = ServerSet(servers, latency)
    root_set = ServerSet(
        [AuthoritativeServer("root", build_root_zone(), [GAZETTEER["LAX"]])], latency
    )
    network = AuthorityNetwork(root=root_set, tlds={zone.origin: tld_set})
    return network, tld_set, capture


def make_resolver(behavior, seed=2):
    return SimResolver(
        "r", GAZETTEER["AMS"], IPAddress.parse("192.0.2.10"), None,
        behavior, seed=seed,
    )


class TestRetryBudget:
    def test_budget_caps_attempts_before_retry_limit(self):
        network, tld_set, __ = make_world(1)
        tld_set.servers[0].online = False
        behavior = ResolverBehavior(max_retries=10, retry_budget_ms=1000.0)
        resolver = make_resolver(behavior)
        rcode = resolver.resolve(
            network, 1.0, Name.from_text("example.nl"), RRType.A
        )
        assert rcode is RCode.SERVFAIL
        # 400ms + 800ms = 1200ms >= 1000ms budget: two drops, not eleven.
        assert resolver.stats.drops == 2
        assert resolver.stats.retry_exhausted >= 1

    def test_backoff_timeouts_grow_and_cap(self):
        network, tld_set, capture = make_world(2)
        for server in tld_set.servers:
            server.online = False
        behavior = ResolverBehavior(
            max_retries=5, retry_initial_timeout_ms=100.0, retry_backoff=2.0,
            retry_max_timeout_ms=300.0, retry_budget_ms=100000.0,
        )
        resolver = make_resolver(behavior)
        resolver.resolve(network, 1.0, Name.from_text("example.nl"), RRType.A)
        # 6 attempts: timeouts 100, 200, 300, 300, 300, 300 (capped).
        assert resolver.stats.drops == 6
        assert resolver.stats.retransmits == 5

    def test_failover_counted_on_server_change(self):
        network, tld_set, __ = make_world(3)
        tld_set.servers[0].online = False
        behavior = ResolverBehavior(max_retries=3, server_exploration=0.0)
        resolver = make_resolver(behavior, seed=3)
        rcode = resolver.resolve(
            network, 1.0, Name.from_text("example.nl"), RRType.A
        )
        assert rcode is RCode.NOERROR
        assert resolver.stats.failovers >= 1
        assert resolver.stats.retransmits >= resolver.stats.failovers


class TestServeStale:
    # The resolution retry at RETRY_AT must actually *fail*: past the
    # answer TTL (~3600s) and past the cached delegation (86400s), so the
    # resolver has to re-ask the — now offline — TLD servers.
    RETRY_AT = 100_000.0

    def _prime_then_kill(self, behavior):
        network, tld_set, __ = make_world(1)
        resolver = make_resolver(behavior)
        qname = Name.from_text("example.nl")
        assert resolver.resolve(network, 1.0, qname, RRType.A) is RCode.NOERROR
        for server in tld_set.servers:
            server.online = False
        return network, resolver, qname

    def test_stale_answer_on_servfail(self):
        behavior = ResolverBehavior(
            serve_stale=True, serve_stale_window=7 * 86400.0
        )
        network, resolver, qname = self._prime_then_kill(behavior)
        rcode = resolver.resolve(network, self.RETRY_AT, qname, RRType.A)
        assert rcode is RCode.NOERROR
        assert resolver.stats.stale_served == 1
        assert resolver.cache.stats.stale_hits >= 1
        assert resolver.stats.drops > 0  # it really did try the network

    def test_stale_disabled_by_default(self):
        behavior = ResolverBehavior()
        network, resolver, qname = self._prime_then_kill(behavior)
        rcode = resolver.resolve(network, self.RETRY_AT, qname, RRType.A)
        assert rcode is RCode.SERVFAIL
        assert resolver.stats.stale_served == 0

    def test_stale_window_expiry(self):
        behavior = ResolverBehavior(serve_stale=True, serve_stale_window=1000.0)
        network, resolver, qname = self._prime_then_kill(behavior)
        # TTL 3600 + window 1000 << RETRY_AT: the entry is too stale.
        rcode = resolver.resolve(network, self.RETRY_AT, qname, RRType.A)
        assert rcode is RCode.SERVFAIL
        assert resolver.stats.stale_served == 0

    def test_cache_get_stale_contract(self):
        from repro.resolver.cache import ResolverCache
        from repro.dnscore import ResourceRecord
        from repro.dnscore.rdata import ARdata

        cache = ResolverCache(serve_stale_window=100.0)
        qname = Name.from_text("a.nl")
        record = ResourceRecord(qname, RRType.A, ttl=10, rdata=ARdata(0xC0000201))
        cache.put(0.0, qname, RRType.A, [record])
        assert cache.get(5.0, qname, RRType.A) is not None       # fresh
        assert cache.get_stale(5.0, qname, RRType.A) is None     # not stale yet
        assert cache.get(50.0, qname, RRType.A) is None          # expired
        assert cache.get_stale(50.0, qname, RRType.A) is not None
        # Past TTL + window: evicted on the next regular lookup.
        assert cache.get(200.0, qname, RRType.A) is None
        assert cache.get_stale(200.0, qname, RRType.A) is None
