"""Unit tests for outage handling: servers down under a fault plan's
outage window, failover, retries; and the fault scenarios of the
``ext-outage`` / ``ext-resilience`` reports, which are dataset runs."""

from dataclasses import fields

import numpy as np

from repro.capture import CaptureStore
from repro.clouds import PROVIDERS
from repro.dnscore import Name, RCode, RRType
from repro.experiments import ExperimentContext, extension_outage
from repro.experiments.extension_outage import scenario
from repro.faults import FaultPlan, OutageWindow, chaos_scenario
from repro.netsim import GAZETTEER, IPAddress, LatencyModel
from repro.resolver import AuthorityNetwork, ResolverBehavior, SimResolver, engine
from repro.server import AuthoritativeServer, ServerSet
from repro.sim import run_dataset
from repro.workload import dataset
from repro.zones import Zone, build_root_zone

from .helpers import Outage


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


def make_resolver(seed=2):
    return SimResolver(
        "r", GAZETTEER["AMS"], IPAddress.parse("192.0.2.10"), None,
        ResolverBehavior(), seed=seed,
    )


class TestOfflineServer:
    def test_offline_server_captures_nothing(self):
        network, tld_set, capture = make_world(1)
        network.faults = Outage("nl-0")
        resolver = make_resolver()
        resolver.resolve(network, 1.0, Name.from_text("example.nl"), RRType.A)
        assert len(capture) == 0

    def test_failover_to_surviving_server(self):
        network, tld_set, capture = make_world(3)
        network.faults = Outage("nl-0", "nl-1")
        resolver = make_resolver()
        rcode = resolver.resolve(network, 1.0, Name.from_text("example.nl"), RRType.A)
        assert rcode is RCode.NOERROR
        survivors = {r.server_id for r in capture.view().iter_records()}
        assert survivors == {"nl-2"}

    def test_all_offline_means_servfail(self):
        network, tld_set, __ = make_world(2)
        network.faults = Outage("nl-*")
        resolver = make_resolver()
        rcode = resolver.resolve(network, 1.0, Name.from_text("example.nl"), RRType.A)
        assert rcode is RCode.SERVFAIL
        assert resolver.stats.drops > 0
        assert resolver.stats.servfails == 1

    def test_retries_bounded(self):
        network, tld_set, __ = make_world(1)
        network.faults = Outage("nl-0")
        resolver = make_resolver()
        resolver.resolve(network, 1.0, Name.from_text("example.nl"), RRType.A)
        # MAX_RETRIES (2) + 1 attempts, all dropped.
        assert resolver.stats.drops == 3

    def test_timeouts_advance_time(self, monkeypatch):
        network, tld_set, capture = make_world(2)
        network.faults = Outage("nl-0")
        # Force the dead server to be the preferred one by site proximity:
        # the AMS resolver prefers nl-0 (AMS); after a timeout it must ask
        # nl-1 with a visibly later timestamp.
        monkeypatch.setattr(engine, "SERVER_EXPLORATION", 0.0)
        resolver = make_resolver(seed=3)
        resolver.resolve(network, 1.0, Name.from_text("example.nl"), RRType.A)
        view = capture.view()
        assert len(view) >= 1
        assert view.timestamp.min() > 1.3  # at least one 400ms timeout first

    def test_recovery(self):
        # Down for the first 1000 s, back up at 2000 s.
        network, tld_set, __ = make_world(1)
        network.faults = Outage("nl-0", until=1000.0)
        resolver = make_resolver()
        assert resolver.resolve(
            network, 1.0, Name.from_text("example.nl"), RRType.A
        ) is RCode.SERVFAIL
        assert resolver.resolve(
            network, 2000.0, Name.from_text("example.nl"), RRType.A
        ) is RCode.NOERROR


class TestScenariosAreDatasetRuns:
    SEED = 20201027

    def test_a_scenario_changes_only_its_id_plan_and_providers(self):
        base = dataset("nl-w2020")
        plan = chaos_scenario("flaky-server")
        descriptor = scenario("flaky-server", plan, PROVIDERS)
        changed = {
            f.name for f in fields(base)
            if getattr(descriptor, f.name) != getattr(base, f.name)
        }
        assert changed == {"dataset_id", "fault_plan", "providers_only"}
        assert descriptor.dataset_id == "nl-w2020+flaky-server"
        assert descriptor.fault_plan is plan
        assert descriptor.providers_only == PROVIDERS

    def test_outage_series_are_the_scenario_runs_ratios(self):
        ctx = ExperimentContext(scale=0.005, seed=self.SEED)  # 400 queries
        report = extension_outage.run(ctx)
        servers = dataset("nl-w2020").servers
        for offline in report.series["offline"]:
            plan = FaultPlan(name=f"outage-{offline}", outages=tuple(
                OutageWindow(spec.server_id, 0.0, 1.0) for spec in servers[:offline]
            ))
            telemetry = run_dataset(
                scenario(f"outage-{offline}", plan, ("Google",)), self.SEED,
                client_queries=400,
            ).telemetry
            client = telemetry.total("resolver.client_queries")
            assert client == 400
            assert report.series["servfail"][offline] == (
                telemetry.total("resolver.servfails") / client
            )
            assert report.series["retry_load"][offline] == (
                telemetry.total("resolver.auth_queries") / client
            )

    def test_server_queries_count_the_captured_rows(self):
        """``ext-resilience``'s capture shares read ``server.queries``: under
        ``flaky-server`` it must still be each captured server's row count."""
        run = run_dataset(
            scenario("flaky-server", chaos_scenario("flaky-server"), PROVIDERS),
            self.SEED, client_queries=600,
        )
        server_ids = run.capture.view().server_id
        assert run.telemetry.counter("faults.dropped", cause="storm") > 0
        for server_id in run.vantage_server_ids:
            rows = int(np.count_nonzero(server_ids == server_id))
            assert rows > 0
            assert run.telemetry.counter("server.queries", server=server_id) == rows
