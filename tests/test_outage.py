"""Unit tests for outage handling: servers down under a fault plan's
outage window, failover, retries."""

from repro.capture import CaptureStore
from repro.dnscore import Name, RCode, RRType
from repro.netsim import GAZETTEER, IPAddress, LatencyModel
from repro.resolver import AuthorityNetwork, ResolverBehavior, SimResolver, engine
from repro.server import AuthoritativeServer, ServerSet
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
