"""Live service mode: topology, dispatch, and real-socket round trips.

The end-to-end tests bind ephemeral loopback sockets and drive them with
the built-in load generator inside ``asyncio.run`` (the suite does not
depend on an asyncio pytest plugin).  They assert the acceptance bar of
the live mode: byte-valid responses over both UDP and TCP, RRL and chaos
plans active on live traffic, Prometheus ``/metrics``, and a graceful
shutdown that yields a final telemetry snapshot.
"""

import asyncio
import errno
import gc
import json
import os
import random
import struct
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.service.app as service_app
import repro.service.dispatch as service_dispatch
from repro.__main__ import main
from repro.capture import Transport
from repro.dnscore import (
    EdnsRecord,
    Flags,
    Message,
    Name,
    Opcode,
    Question,
    RCode,
    RRType,
)
from repro.faults import FaultPlan, OutageWindow
from repro.netsim import IPAddress, SimClock
from repro.server import RRLConfig
from repro.service import (
    MAX_ROUTE_UPSTREAMS,
    MAX_TIER_HOPS,
    ClientGroup,
    DnsService,
    ForwardRule,
    ForwardingTier,
    LoadGenConfig,
    QueryDispatcher,
    ServiceConfig,
    ServiceTopology,
    TopologyError,
    classify_datagram,
    default_topology,
    formerr_response,
    run_loadgen,
)
from repro.sim import build_authority_world
from repro.telemetry import MetricsRegistry, TelemetrySnapshot, to_prometheus
from repro.workload import dataset

from .helpers import HAND_BUILT

CLIENT = IPAddress.parse("127.0.0.1")

#: Authority sets by key → server ids, as ``nl-w2020``'s world has them.
NL_SETS = {"nl": ("nl-a", "nl-b", "nl-c"), "root": ("root-x",)}
ROOT_SETS = {"root": ("b-root",)}


# ---------------------------------------------------------------------------
# topology


class TestTopology:
    def test_default_topology_validates(self):
        topo = default_topology("nl")
        topo.validate(NL_SETS)

    def test_default_root_topology_validates(self):
        default_topology("root").validate(ROOT_SETS)

    def test_resolver_spec_requires_frontend(self):
        topo = default_topology("nl", resolver=True)
        topo.validate(NL_SETS, resolver_available=True)
        with pytest.raises(TopologyError, match="resolver"):
            topo.validate(NL_SETS, resolver_available=False)

    def test_unknown_authority_rejected(self):
        topo = ServiceTopology(
            tiers=(ForwardingTier(name="edge", upstreams=("auth:nosuch",)),),
            default_tier="edge",
        )
        with pytest.raises(TopologyError, match="nosuch"):
            topo.validate(NL_SETS)

    def test_dangling_tier_rejected(self):
        topo = ServiceTopology(
            tiers=(ForwardingTier(name="edge", upstreams=("tier:ghost",)),),
            default_tier="edge",
        )
        with pytest.raises(TopologyError, match="ghost"):
            topo.validate(ROOT_SETS)

    def test_cycle_rejected(self):
        topo = ServiceTopology(
            tiers=(
                ForwardingTier(name="a", upstreams=("tier:b",)),
                ForwardingTier(name="b", upstreams=("tier:a",)),
            ),
            default_tier="a",
        )
        with pytest.raises(TopologyError, match="cycle"):
            topo.validate(ROOT_SETS)

    def test_unknown_server_id_rejected(self):
        """A server id is checked against the set it names: a typo used to
        validate, then fail every query it routed at dispatch."""
        def single(spec):
            return ServiceTopology(
                tiers=(ForwardingTier(name="edge", upstreams=(spec,)),),
                default_tier="edge",
            )

        single("auth:nl/nl-a").validate(NL_SETS)
        with pytest.raises(TopologyError, match="ns-typo"):
            single("auth:nl/ns-typo").validate(NL_SETS)
        with pytest.raises(TopologyError, match="nl-a"):
            single("auth:root/nl-a").validate(NL_SETS)

    def test_chain_of_max_hops_rejected(self):
        ladder(MAX_TIER_HOPS - 1).validate(ROOT_SETS)
        with pytest.raises(
            TopologyError, match=f"takes {MAX_TIER_HOPS} tier: hops"
        ):
            ladder(MAX_TIER_HOPS).validate(ROOT_SETS)

    def test_route_wider_than_the_limit_rejected(self):
        """Hops that each list two ``tier:`` upstreams double the route per
        level: 2^6 = 64 upstreams pass, 2^7 fail at the widest tier — within
        the hop limit, before anything is compiled."""
        assert 2 ** 6 == MAX_ROUTE_UPSTREAMS
        ladder(6, fan_out=2).validate(ROOT_SETS)
        with pytest.raises(
            TopologyError, match="'t0' routes a query to as many as 128 upstreams"
        ):
            ladder(7, fan_out=2).validate(ROOT_SETS)

    def test_malformed_spec_rejected(self):
        topo = ServiceTopology(
            tiers=(ForwardingTier(name="edge", upstreams=("bogus",)),),
            default_tier="edge",
        )
        with pytest.raises(TopologyError, match="bogus"):
            topo.validate(ROOT_SETS)

    def test_suffix_rule_beats_default_chain(self):
        tier = ForwardingTier(
            name="edge",
            rules=(ForwardRule(Name.from_text("nl"), "auth:nl"),),
            upstreams=("auth:root",),
        )
        assert tier.chain_for(Name.from_text("example.nl")) == ("auth:nl",)
        assert tier.chain_for(Name.from_text("example.org")) == ("auth:root",)

    def test_client_group_routing(self):
        topo = ServiceTopology.from_dict(
            {
                "default_tier": "wan",
                "tiers": [
                    {"name": "lan", "upstreams": ["auth:root"]},
                    {"name": "wan", "upstreams": ["auth:root"]},
                ],
                "groups": [
                    {"name": "lan", "prefixes": ["10.0.0.0/8"], "tier": "lan"}
                ],
            }
        )
        topo.validate(ROOT_SETS)
        assert topo.tier_for(IPAddress.parse("10.1.2.3")).name == "lan"
        assert topo.tier_for(IPAddress.parse("192.0.2.1")).name == "wan"
        # v6 sources never match a v4 prefix; they fall to the default.
        assert topo.tier_for(IPAddress.parse("2001:db8::1")).name == "wan"

    def test_dict_round_trip(self):
        topo = default_topology("nl", resolver=True)
        clone = ServiceTopology.from_dict(topo.to_dict())
        assert clone == topo

    def test_json_file_round_trip(self, tmp_path):
        topo = default_topology("nz")
        path = tmp_path / "topology.json"
        path.write_text(json.dumps(topo.to_dict()))
        assert ServiceTopology.from_json_file(str(path)) == topo

    def test_malformed_payload_raises_topology_error(self):
        with pytest.raises(TopologyError):
            ServiceTopology.from_dict({"tiers": [{}]})


def ladder(hops, fan_out=1):
    """Tiers ``t0`` → ``t1`` → … → ``t<hops>``, the last one answering
    from the root set: a chain of ``hops`` ``tier:`` hops, each tier listing
    its successor ``fan_out`` times (a route of ``fan_out ** hops``
    upstreams)."""
    return ServiceTopology(
        tiers=tuple(
            ForwardingTier(name=f"t{i}", upstreams=(f"tier:t{i + 1}",) * fan_out)
            for i in range(hops)
        ) + (ForwardingTier(name=f"t{hops}", upstreams=("auth:root",)),),
        default_tier="t0",
    )


class TestServeCommand:
    TOPOLOGIES = {
        "unknown-set": {"default_tier": "edge", "tiers": [
            {"name": "edge", "upstreams": ["auth:nosuch"]}]},
        "unknown-server": {"default_tier": "edge", "tiers": [
            {"name": "edge", "upstreams": ["auth:nl/ns-typo"]}]},
        "cycle": {"default_tier": "a", "tiers": [
            {"name": "a", "upstreams": ["tier:b"]},
            {"name": "b", "upstreams": ["tier:a"]}]},
        "too-deep": ladder(MAX_TIER_HOPS).to_dict(),
        # Seven hops within the depth limit, ten tier: upstreams each: a
        # route of 10^7 upstreams if it were compiled.
        "too-wide": ladder(MAX_TIER_HOPS - 1, fan_out=10).to_dict(),
        "not-an-object": [1, 2],
    }

    @pytest.mark.parametrize(
        "content", ["missing", "not-json", *TOPOLOGIES]
    )
    def test_bad_topology_is_a_usage_error(self, capsys, tmp_path, content):
        """Whatever is wrong with ``--topology``, ``repro serve`` says so in
        one ``repro: error:`` line naming the file and exits 2 before
        binding anything — no traceback."""
        path = tmp_path / f"{content}.json"
        if content == "not-json":
            path.write_text('{"tiers": [')
        elif content != "missing":
            path.write_text(json.dumps(self.TOPOLOGIES[content]))
        argv = ["serve", "--topology", str(path), "--udp-port", "0", "--no-metrics"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"repro: error: {path}: ")


# ---------------------------------------------------------------------------
# dispatcher (no sockets)


@pytest.fixture(scope="module")
def live_world():
    descriptor = dataset("nl-w2020")
    metrics = MetricsRegistry()
    world = build_authority_world(descriptor, 20201027, metrics)
    return descriptor, world, metrics


@pytest.fixture()
def dispatcher(live_world):
    descriptor, world, _ = live_world
    clock = SimClock(now=descriptor.start)
    return QueryDispatcher(
        default_topology(descriptor.vantage),
        world.server_sets,
        clock,
        network=world.network,
    )


def _query_for(world, qtype=RRType.A):
    zone = world.vantage_zone
    from repro.zones import domains_of

    qname = domains_of(zone)[0]
    return Message.make_query(qname, qtype, msg_id=4242)


class TestDispatcher:
    def test_answers_in_bailiwick_query(self, live_world, dispatcher):
        _, world, _ = live_world
        query = _query_for(world)
        response = dispatcher.dispatch(CLIENT, Transport.UDP, query)
        assert response is not None
        assert response.msg_id == 4242
        assert response.flags.qr
        assert response.rcode is RCode.NOERROR
        assert response.questions == query.questions
        # And it round-trips through the wire codec (byte-valid).
        decoded = Message.from_wire(response.to_wire(max_size=65535))
        assert decoded.msg_id == 4242

    def test_nxdomain_for_junk_name(self, dispatcher):
        query = Message.make_query(
            Name.from_text("no-such-name-zzz.nl"), RRType.A, msg_id=7
        )
        response = dispatcher.dispatch(CLIENT, Transport.UDP, query)
        assert response.rcode is RCode.NXDOMAIN

    def test_policy_sink_refuses_internal_suffix(self, dispatcher):
        query = Message.make_query(
            Name.from_text("db.internal.invalid."), RRType.A, msg_id=9
        )
        response = dispatcher.dispatch(CLIENT, Transport.UDP, query)
        assert response.rcode is RCode.REFUSED

    def test_non_query_opcode_notimp(self, dispatcher):
        query = Message(
            msg_id=11,
            flags=Flags(opcode=Opcode.STATUS),
            questions=[Question(Name.from_text("example.nl"), RRType.A)],
        )
        response = dispatcher.dispatch(CLIENT, Transport.UDP, query)
        assert response.rcode is RCode.NOTIMP

    def test_question_less_query_formerr(self, dispatcher):
        query = Message(msg_id=13, flags=Flags())
        response = dispatcher.dispatch(CLIENT, Transport.UDP, query)
        assert response.rcode is RCode.FORMERR

    def test_exhausted_chain_udp_silence_tcp_servfail(self, live_world):
        descriptor, world, _ = live_world
        # A tier whose only upstream is a single offline server.
        topo = ServiceTopology(
            tiers=(ForwardingTier(name="edge", upstreams=("auth:nl/nl-a",)),),
            default_tier="edge",
        )
        clock = SimClock(now=descriptor.start)
        dispatcher = QueryDispatcher(
            topo, world.server_sets, clock, network=world.network
        )
        server = world.server_sets["nl"].by_id("nl-a")
        server.online = False
        try:
            query = _query_for(world)
            assert dispatcher.dispatch(CLIENT, Transport.UDP, query) is None
            tcp = dispatcher.dispatch(CLIENT, Transport.TCP, query)
            assert tcp is not None and tcp.rcode is RCode.SERVFAIL
        finally:
            server.online = True

    def test_rrl_fallback_to_next_server(self, live_world):
        descriptor, world, _ = live_world
        clock = SimClock(now=descriptor.start)
        dispatcher = QueryDispatcher(
            default_topology(descriptor.vantage),
            world.server_sets,
            clock,
            network=world.network,
        )
        nl_set = world.server_sets["nl"]
        first = nl_set.servers[0]
        saved = first._rrl_config
        first.configure_rrl(
            RRLConfig(responses_per_second=0.0, burst=0.0, slip=0)
        )
        try:
            response = dispatcher.dispatch(
                CLIENT, Transport.UDP, _query_for(world)
            )
            # The NS set has more than one member; the chain falls through.
            assert response is not None
        finally:
            first.configure_rrl(saved)


# ---------------------------------------------------------------------------
# real sockets, end to end


def _serve_config(**overrides):
    base = dict(udp_port=0, metrics_port=None, drain_timeout_s=2.0)
    base.update(overrides)
    return ServiceConfig(**base)


async def _with_service(config, fn):
    service = DnsService(config)
    await service.start()
    try:
        return await fn(service)
    finally:
        await service.stop()


class TestLiveService:
    def test_udp_and_tcp_round_trip(self):
        async def scenario(service):
            report = await run_loadgen(
                LoadGenConfig(
                    udp_port=service.udp_port,
                    tcp_port=service.tcp_port,
                    queries=120,
                    tcp_fraction=0.25,
                    concurrency=16,
                    timeout_s=5.0,
                )
            )
            return report

        report = asyncio.run(_with_service(_serve_config(), scenario))
        assert report.sent == 120
        assert report.answered_fraction >= 0.99
        assert report.udp_sent > 0 and report.tcp_sent > 0
        assert report.decode_errors == 0
        assert "NOERROR" in report.rcodes

    def test_single_udp_exchange_bytes(self):
        async def scenario(service):
            loop = asyncio.get_running_loop()

            class OneShot(asyncio.DatagramProtocol):
                def __init__(self):
                    self.reply = loop.create_future()

                def connection_made(self, transport):
                    self.transport = transport

                def datagram_received(self, data, addr):
                    if not self.reply.done():
                        self.reply.set_result(data)

            transport, protocol = await loop.create_datagram_endpoint(
                OneShot, remote_addr=("127.0.0.1", service.udp_port)
            )
            try:
                query = Message.make_query(
                    Name.from_text("no-such-name-zzz.nl"), RRType.A, msg_id=99
                )
                transport.sendto(query.to_wire())
                wire = await asyncio.wait_for(protocol.reply, timeout=5.0)
            finally:
                transport.close()
            return wire

        wire = asyncio.run(_with_service(_serve_config(), scenario))
        response = Message.from_wire(wire)
        assert response.msg_id == 99
        assert response.flags.qr
        assert response.rcode is RCode.NXDOMAIN

    def test_udp_garbage_gets_formerr(self):
        async def scenario(service):
            loop = asyncio.get_running_loop()

            class OneShot(asyncio.DatagramProtocol):
                def __init__(self):
                    self.reply = loop.create_future()

                def connection_made(self, transport):
                    self.transport = transport

                def datagram_received(self, data, addr):
                    if not self.reply.done():
                        self.reply.set_result(data)

            transport, protocol = await loop.create_datagram_endpoint(
                OneShot, remote_addr=("127.0.0.1", service.udp_port)
            )
            try:
                # Valid header claiming one question, then garbage.
                garbage = (
                    b"\x12\x34" b"\x00\x00" b"\x00\x01"
                    b"\x00\x00" b"\x00\x00" b"\x00\x00" b"\xff\xff\xff"
                )
                transport.sendto(garbage)
                wire = await asyncio.wait_for(protocol.reply, timeout=5.0)
            finally:
                transport.close()
            return wire

        wire = asyncio.run(_with_service(_serve_config(), scenario))
        response = Message.from_wire(wire)
        assert response.msg_id == 0x1234
        assert response.rcode is RCode.FORMERR

    def test_udp_short_and_response_datagrams_ignored(self):
        async def scenario(service):
            loop = asyncio.get_running_loop()

            class Sink(asyncio.DatagramProtocol):
                def __init__(self):
                    self.replies = []

                def connection_made(self, transport):
                    self.transport = transport

                def datagram_received(self, data, addr):
                    self.replies.append(data)

            transport, protocol = await loop.create_datagram_endpoint(
                Sink, remote_addr=("127.0.0.1", service.udp_port)
            )
            try:
                transport.sendto(b"\x01\x02\x03")  # short
                # QR=1 response packet: must never be answered.
                reflected = Message(
                    msg_id=5, flags=Flags(qr=True)
                ).to_wire(max_size=512)
                transport.sendto(reflected)
                await asyncio.sleep(0.3)
            finally:
                transport.close()
            snapshot = service.snapshot()
            ignored = sum(
                value
                for key, value in snapshot.counters.items()
                if "service.ignored" in str(key)
            )
            return protocol.replies, ignored

        replies, ignored = asyncio.run(_with_service(_serve_config(), scenario))
        assert replies == []
        assert ignored == 2

    def test_tcp_framing_and_close(self):
        async def scenario(service):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", service.tcp_port
            )
            query = Message.make_query(
                Name.from_text("no-such-name-zzz.nl"), RRType.A, msg_id=21
            )
            wire = query.to_wire()
            writer.write(len(wire).to_bytes(2, "big") + wire)
            await writer.drain()
            prefix = await asyncio.wait_for(reader.readexactly(2), timeout=5.0)
            payload = await asyncio.wait_for(
                reader.readexactly(int.from_bytes(prefix, "big")), timeout=5.0
            )
            # A zero-length frame ends the conversation.
            writer.write(b"\x00\x00")
            await writer.drain()
            eof = await asyncio.wait_for(reader.read(1), timeout=5.0)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
            return payload, eof

        payload, eof = asyncio.run(_with_service(_serve_config(), scenario))
        response = Message.from_wire(payload)
        assert response.msg_id == 21
        assert response.rcode is RCode.NXDOMAIN
        assert eof == b""

    def test_rrl_drops_live_udp(self):
        async def scenario(service):
            return await run_loadgen(
                LoadGenConfig(
                    udp_port=service.udp_port,
                    queries=80,
                    concurrency=32,
                    timeout_s=0.4,
                )
            )

        # One-shot bucket with slip disabled: after the first response per
        # prefix the limiter drops everything (every client is 127.0.0.1).
        config = _serve_config(
            rrl=RRLConfig(responses_per_second=0.001, burst=1.0, slip=0)
        )
        report = asyncio.run(_with_service(config, scenario))
        assert report.timeouts > 0
        assert report.answered < report.sent

    def test_chaos_with_fallback_keeps_answering(self):
        async def scenario(service):
            report = await run_loadgen(
                LoadGenConfig(
                    udp_port=service.udp_port,
                    queries=150,
                    concurrency=16,
                    timeout_s=5.0,
                )
            )
            snapshot = service.snapshot()
            drops = sum(
                value
                for key, value in snapshot.counters.items()
                if "service.fault_drops" in str(key)
            )
            return report, drops

        # flaky-server halts *-a for the whole window; the NS set's other
        # members keep the answered fraction at the acceptance bar.
        config = _serve_config(chaos="flaky-server", chaos_seed=11)
        report, drops = asyncio.run(_with_service(config, scenario))
        assert drops > 0, "chaos plan never fired on live traffic"
        assert report.answered_fraction >= 0.99

    def test_metrics_endpoint_serves_prometheus(self):
        async def scenario(service):
            await run_loadgen(
                LoadGenConfig(
                    udp_port=service.udp_port, queries=25, timeout_s=5.0
                )
            )
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", service.metrics_port
            )
            writer.write(b"GET /metrics HTTP/1.0\r\n\r\n")
            await writer.drain()
            raw = await asyncio.wait_for(reader.read(-1), timeout=5.0)
            writer.close()
            return raw.decode()

        raw = asyncio.run(
            _with_service(_serve_config(metrics_port=0), scenario)
        )
        head, _, body = raw.partition("\r\n\r\n")
        assert head.startswith("HTTP/1.0 200")
        assert "text/plain; version=0.0.4" in head
        assert "# TYPE repro_service_queries_total counter" in body
        assert "repro_service_answered_total" in body
        assert "repro_server_queries_total" in body

    def test_metrics_endpoint_404_and_healthz(self):
        async def scenario(service):
            async def get(path):
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", service.metrics_port
                )
                writer.write(f"GET {path} HTTP/1.0\r\n\r\n".encode())
                await writer.drain()
                raw = await asyncio.wait_for(reader.read(-1), timeout=5.0)
                writer.close()
                return raw.decode()

            return await get("/healthz"), await get("/nope")

        health, missing = asyncio.run(
            _with_service(_serve_config(metrics_port=0), scenario)
        )
        assert health.startswith("HTTP/1.0 200") and "state: ready" in health
        assert missing.startswith("HTTP/1.0 404")

    def test_graceful_shutdown_final_snapshot(self):
        async def scenario():
            service = DnsService(_serve_config())
            await service.start()
            await run_loadgen(
                LoadGenConfig(
                    udp_port=service.udp_port, queries=30, timeout_s=5.0
                )
            )
            first = await service.stop()
            second = await service.stop()  # idempotent
            return service, first, second

        service, first, second = asyncio.run(scenario())
        assert first is second is service.final_snapshot
        queries = sum(
            value
            for key, value in first.counters.items()
            if "service.queries" in str(key)
        )
        assert queries == 30
        shutdowns = sum(
            value
            for key, value in first.counters.items()
            if "service.shutdowns" in str(key)
        )
        assert shutdowns == 1

    def test_ephemeral_bind_draws_again_when_the_tcp_twin_is_taken(self):
        """``udp_port=0, tcp_port=None`` asks for one number on both
        protocols, and the kernel only picked it for UDP."""
        real_start_server = asyncio.start_server
        refused = []

        async def first_number_taken(callback, host=None, port=None, **kwargs):
            if not refused:
                refused.append(port)
                raise OSError(
                    errno.EADDRINUSE,
                    f"error while attempting to bind on address ({host!r}, {port})",
                )
            return await real_start_server(callback, host=host, port=port, **kwargs)

        async def scenario(service):
            report = await run_loadgen(
                LoadGenConfig(
                    udp_port=service.udp_port,
                    tcp_port=service.tcp_port,
                    queries=8,
                    tcp_fraction=0.5,
                    timeout_s=5.0,
                )
            )
            return service.udp_port, service.tcp_port, report

        with mock.patch.object(asyncio, "start_server", first_number_taken):
            udp, tcp, report = asyncio.run(_with_service(_serve_config(), scenario))
        assert len(refused) == 1 and refused[0] > 0
        assert udp == tcp
        assert report.answered == 8
        assert report.udp_sent > 0 and report.tcp_sent > 0

    def test_named_tcp_port_in_use_fails_at_once(self):
        async def scenario():
            blocker = await asyncio.start_server(
                lambda reader, writer: writer.close(), host="127.0.0.1", port=0
            )
            taken = blocker.sockets[0].getsockname()[1]
            service = DnsService(_serve_config(tcp_port=taken))
            try:
                with pytest.raises(OSError) as refusal:
                    await service.start()
            finally:
                blocker.close()
                await blocker.wait_closed()
            return refusal.value.errno, service._udp_transport.is_closing()

        assert asyncio.run(scenario()) == (errno.EADDRINUSE, True)

    def test_resolver_frontend_answers(self):
        async def scenario(service):
            return await run_loadgen(
                LoadGenConfig(
                    udp_port=service.udp_port,
                    queries=60,
                    concurrency=8,
                    timeout_s=5.0,
                )
            )

        config = _serve_config(resolver_frontend=True)
        report = asyncio.run(_with_service(config, scenario))
        assert report.answered_fraction >= 0.99
        assert "NOERROR" in report.rcodes


# ---------------------------------------------------------------------------
# classification helpers


class TestClassify:
    def test_classifies_valid_query(self):
        wire = Message.make_query(
            Name.from_text("example.nl"), RRType.A, msg_id=3
        ).to_wire()
        kind, payload = classify_datagram(wire)
        assert kind == "query"
        assert payload.msg_id == 3

    def test_short_ignored(self):
        assert classify_datagram(b"123")[0] == "ignore"

    def test_response_ignored(self):
        wire = Message(msg_id=8, flags=Flags(qr=True)).to_wire(max_size=512)
        assert classify_datagram(wire) == ("ignore", "response")

    def test_formerr_echoes_id(self):
        # Header claims one question but the question is truncated.
        garbage = b"\xab\xcd\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\xff"
        kind, msg_id = classify_datagram(garbage)
        assert kind == "formerr"
        assert msg_id == 0xABCD
        reply = Message.from_wire(formerr_response(msg_id))
        assert reply.msg_id == 0xABCD
        assert reply.rcode is RCode.FORMERR


# ---------------------------------------------------------------------------
# the live hot path: cached encodings, held counters, the capture window
#
# These drive ``handle_datagram`` / ``handle_stream_query`` directly (the
# sockets are bound but idle), so every byte and every capture row can be
# compared between two services.

_PEER = ("127.0.0.1", 5353)


class _Sink:
    """Stands in for the UDP transport: keeps the last datagram sent."""

    def __init__(self):
        self.sent = None

    def sendto(self, data, addr):
        self.sent = data


def _exchange(service, wire, tcp=False):
    """The octets ``service`` answers ``wire`` with (``None`` = nothing)."""
    if tcp:
        return service.handle_stream_query(wire, CLIENT)
    sink = _Sink()
    service.handle_datagram(sink, wire, _PEER)
    return sink.sent


def _offline_service(loop, clock=None, plan_cache=True, **overrides):
    """A started service that is only ever driven in-process."""
    config = _serve_config(watchdog_interval_s=0, **overrides)
    with mock.patch.dict(
        os.environ, {"REPRO_PLAN_CACHE": "1" if plan_cache else "0"}
    ):
        service = DnsService(config, clock=clock)
        loop.run_until_complete(service.start())
    return service


def _servers(service):
    return [s for ss in service.world.server_sets.values() for s in ss]


def _plans(service):
    return [plan for server in _servers(service) for plan in server._plans.values()]


@pytest.fixture(scope="module")
def service_pair():
    """Two services on one injected clock: ``fast`` as shipped, and
    ``reference`` whose servers have no plan cache — every response built
    and encoded in full (the ``REPRO_PLAN_CACHE=0`` path)."""
    loop = asyncio.new_event_loop()
    clock = SimClock(now=dataset("nl-w2020").start)
    fast = _offline_service(loop, clock)
    reference = _offline_service(loop, clock, plan_cache=False)
    assert all(server._plans is not None for server in _servers(fast))
    assert all(server._plans is None for server in _servers(reference))
    yield fast, reference
    for service in (fast, reference):
        loop.run_until_complete(service.stop())
    loop.close()


def _flip_case(label: bytes, mask: int) -> bytes:
    return bytes(
        (b ^ 0x20) if (mask >> i) & 1 and chr(b).isalpha() else b
        for i, b in enumerate(label)
    )


def _query_wire(
    labels, qtype=1, qclass=1, msg_id=0, rd=False, edns=None, do=False,
    shape="plain", other=(b"nl",),
):
    """A hand-assembled query.  ``shape``: ``plain``; ``pointer`` — the
    qname ends in a compression pointer at a zero octet of the header
    instead of its root octet; ``none`` / ``two`` / ``two-pointer`` — no
    question, a second question for ``other``, a second question whose name
    is a pointer at the first."""
    name = b"".join(bytes([len(label)]) + label for label in labels)
    fixed = struct.pack("!HH", qtype, qclass)
    if shape == "pointer":
        questions = [name + b"\xc0\x06" + fixed]
    else:
        questions = [name + b"\x00" + fixed]
    if shape == "none":
        questions = []
    elif shape == "two":
        second = b"".join(bytes([len(label)]) + label for label in other)
        questions.append(second + b"\x00" + fixed)
    elif shape == "two-pointer":
        questions.append(b"\xc0\x0c" + fixed)
    opt = b"" if edns is None else EdnsRecord(edns, do).to_wire()
    header = struct.pack(
        "!HHHHHH", msg_id, 0x0100 if rd else 0, len(questions), 0, 0,
        0 if edns is None else 1,
    )
    return header + b"".join(questions) + opt


def _name_pool(service):
    from repro.zones import domains_of

    delegated = [name.labels for name in domains_of(service.world.vantage_zone)[:3]]
    return delegated + [
        (b"www",) + delegated[0],
        (b"ns1",) + delegated[1],
        (b"nl",),
        (b"no-such-name-zzz", b"nl"),
        (b"a", b"b", b"c", b"also-missing", b"nl"),
        (b"example", b"com"),
        (b"db", b"internal", b"invalid"),
        (),
    ]


_QTYPES = [1, 28, 2, 43, 6, 15, 16, 48, 65]

query_spec_st = st.fixed_dictionaries({
    "name": st.integers(0, 10),
    "case": st.one_of(st.just(0), st.integers(0, 2**16 - 1)),
    "qtype": st.sampled_from(_QTYPES),
    "qclass": st.sampled_from([1, 1, 1, 3]),
    "shape": st.sampled_from(
        ["plain"] * 5 + ["pointer", "pointer", "none", "two", "two-pointer"]
    ),
    "edns": st.sampled_from([None, 512, 1232, 4096]),
    "do": st.booleans(),
    "rd": st.booleans(),
    "tcp": st.sampled_from([False, False, False, True]),
    "ids": st.lists(st.integers(0, 65535), min_size=1, max_size=3),
})


def _spec_wires(pool, spec):
    labels = tuple(_flip_case(label, spec["case"]) for label in pool[spec["name"]])
    return [
        _query_wire(
            labels, spec["qtype"], spec["qclass"], msg_id, spec["rd"],
            spec["edns"], spec["do"], spec["shape"],
        )
        for msg_id in spec["ids"]
    ]


def _assert_same_exchange(fast, reference, wire, tcp=False):
    got, expected = _exchange(fast, wire, tcp), _exchange(reference, wire, tcp)
    assert got == expected, (wire.hex(), tcp)
    return got


class TestCachedEncoding:
    """A replayed plan is encoded once; afterwards the endpoint answers
    with those octets under the new id.  Whatever the traffic, the bytes on
    the wire and the rows in the capture are the reference path's."""

    def test_random_streams_match_the_uncached_service(self, service_pair):
        fast, reference = service_pair
        pool = _name_pool(fast)

        @settings(max_examples=250, derandomize=True, deadline=None)
        @given(specs=st.lists(query_spec_st, min_size=1, max_size=12))
        def stream(specs):
            marks = [len(service.world.capture) for service in service_pair]
            for spec in specs:
                for wire in _spec_wires(pool, spec):
                    _assert_same_exchange(fast, reference, wire, spec["tcp"])
            rows = [
                service.world.capture.view().to_rows()[mark:]
                for service, mark in zip(service_pair, marks)
            ]
            # By repr: a UDP row's tcp_rtt_ms is NaN, which equals nothing.
            assert repr(rows[0]) == repr(rows[1])

        before = sum(server.stats.plan_hits for server in _servers(fast))
        stream()
        # The streams did reach what they are here for: plans of every
        # qtype (the unnamed one included) replayed from cached octets.
        cached = [plan for plan in _plans(fast) if plan.wire is not None]
        assert len(cached) > 50
        assert {plan.qtype for plan in cached} >= set(_QTYPES)
        hits = sum(server.stats.plan_hits for server in _servers(fast)) - before
        assert hits > 2 * len(cached)
        assert sum(server.stats.plan_hits for server in _servers(reference)) == 0

    def test_question_spelling_guard(self, service_pair):
        """One plan, every way a query can reach it without spelling the
        question like the cached octets do."""
        fast, reference = service_pair
        labels = _name_pool(fast)[0][:-1] + (b"NL",)   # a spelling of its own
        common = dict(qtype=2, edns=1232, do=True)
        plain = lambda msg_id, **kw: _query_wire(labels, msg_id=msg_id, **common, **kw)

        _assert_same_exchange(fast, reference, plain(1))           # miss
        (plan,) = [p for p in _plans(fast) if p.qname_labels == labels]
        assert plan.wire is None                                   # never on a miss
        first = _assert_same_exchange(fast, reference, plain(2))   # replay: fill
        assert plan.wire == first
        assert plan.question_end == 12 + len(Name(labels).to_wire()) + 4
        third = _assert_same_exchange(fast, reference, plain(0xBEEF))
        assert third == b"\xbe\xef" + plan.wire[2:]
        for wire in (
            plain(3, qclass=3),
            plain(4, shape="pointer"),
            plain(5, shape="two"),
            plain(6, shape="two-pointer"),
            plain(7, qclass=3),
            plain(8),
        ):
            _assert_same_exchange(fast, reference, wire)
            assert plan.wire == first                              # first fill stays
        # The other transport is another plan with its own octets.
        for msg_id in (9, 10, 11):
            _assert_same_exchange(fast, reference, plain(msg_id), tcp=True)
        assert len([p for p in _plans(fast) if p.qname_labels == labels]) == 2

    def test_a_name_seen_once_pins_no_bytes(self, service_pair):
        fast, reference = service_pair
        labels = (b"seen-exactly-once", b"nl")
        _assert_same_exchange(fast, reference, _query_wire(labels, edns=1232))
        (plan,) = [p for p in _plans(fast) if p.qname_labels == labels]
        assert plan.wire is None and plan.question_end == 0

    def test_no_plan_no_cached_encoding(self, service_pair):
        """Policy sinks, refused opcodes and question-less queries are
        answered locally, multi-question queries are never planned, and
        the reference service plans nothing: all encode in full."""
        fast, reference = service_pair
        before = len(_plans(fast))
        labels = (b"db", b"internal", b"invalid")
        for msg_id in (1, 2, 3):
            _assert_same_exchange(fast, reference, _query_wire(labels, msg_id=msg_id))
            _assert_same_exchange(
                fast, reference, _query_wire((b"nl",), msg_id=msg_id, shape="none")
            )
            _assert_same_exchange(
                fast, reference,
                _query_wire((b"multi", b"nl"), msg_id=msg_id, shape="two"),
            )
        assert len(_plans(fast)) == before

    def test_endpoint_truncation_is_inside_the_cached_octets(
        self, service_pair, monkeypatch
    ):
        """The cached octets are what ``to_wire(max_size=limit)`` gave.
        With the endpoint's limit forced below the server's, the first
        replay is truncated at the endpoint — TC, then without the OPT,
        then without the question — and that is what later replays send."""
        fast, reference = service_pair
        for limit, labels in (
            (60, (b"truncated-at-60", b"nl")),     # TC, question and OPT fit
            (40, (b"truncated-at-40", b"nl")),     # OPT dropped
            (20, (b"truncated-at-20", b"nl")),     # question dropped too
        ):
            monkeypatch.setattr(service_app, "effective_udp_limit", lambda edns: limit)
            answers = [
                _assert_same_exchange(
                    fast, reference, _query_wire(labels, msg_id=msg_id, edns=4096, do=True)
                )
                for msg_id in (1, 2, 3, 4)
            ]
            (plan,) = [p for p in _plans(fast) if p.qname_labels == labels]
            assert plan.wire == answers[1] and len(plan.wire) <= limit
            assert plan.wire[2] & 0x02                         # TC
            assert not plan.truncated                          # not the server's doing
            assert [a[2:] for a in answers] == [plan.wire[2:]] * 4

    def test_unnamed_qtype_is_answered_from_the_zone(self, service_pair):
        """HTTPS (65) and friends used to die in the codec and come back
        FORMERR; they get what the zone says about a type it has no data
        for, with the qtype echoed and captured as the integer."""
        fast, reference = service_pair
        pool = _name_pool(fast)
        expectations = (
            (pool[0], RCode.NOERROR, False),                  # under a cut: referral
            ((b"nl",), RCode.NOERROR, True),                  # apex: NODATA
            ((b"no-such-name-zzz", b"nl"), RCode.NXDOMAIN, True),
        )
        for qtype in (65, 64, 99):
            for labels, rcode, authoritative in expectations:
                wire = _query_wire(labels, qtype=qtype, msg_id=qtype, edns=1232)
                assert classify_datagram(wire)[0] == "query"
                for tcp in (False, True):
                    answer = Message.from_wire(
                        _assert_same_exchange(fast, reference, wire, tcp)
                    )
                    assert answer.rcode is rcode
                    assert answer.flags.aa is authoritative
                    assert not answer.answers
                    assert bool(answer.authorities)
                    assert answer.question.qtype == qtype
                    assert answer.question.qtype.to_text() == f"TYPE{qtype}"
                    row = fast.world.capture.view().to_rows()[-1]
                    assert row[7] == qtype and type(row[7]) is int
                    assert row[8] == int(rcode)


# ---------------------------------------------------------------------------
# the decode memo: each distinct query body is decoded once
#
# The reference for a memoised service is its twin on the same clock whose
# memo is cleared before every datagram: every datagram decoded afresh.


def _with_id(wire, msg_id):
    return struct.pack("!H", msg_id) + wire[2:]


def _kept(wire):
    """Would the memo keep this query's body?"""
    body = wire[2:]
    return len(body) <= service_app.QUERY_BODY_LIMIT and b"\xc0" not in body


def _padded_query(labels, size):
    """A one-question query whose body (the octets after the id) is
    ``size`` octets, filled out with an EDNS padding option."""
    head = _query_wire(labels)
    fill = size - (len(head) - 2) - 15
    opt = b"\x00" + struct.pack("!HHIHHH", 41, 1232, 0, 4 + fill, 12, fill)
    return head[:10] + b"\x00\x01" + head[12:] + opt + bytes(fill)


def _cold_exchange(service, wire, tcp=False):
    service._decoded.clear()
    return _exchange(service, wire, tcp)


def _assert_memo_is_invisible(warm, cold, wire, tcp=False):
    """``warm`` answers ``wire`` as a cold decode does, under its id."""
    got, expected = _exchange(warm, wire, tcp), _cold_exchange(cold, wire, tcp)
    assert got == expected, (wire.hex(), tcp)
    assert got is None or got[:2] == wire[:2]
    return got


class _Twins:
    """A warm service and its cold twin, started on one injected clock."""

    def __init__(self, **overrides):
        self.loop = asyncio.new_event_loop()
        clock = SimClock(now=dataset("nl-w2020").start)
        self.warm = _offline_service(self.loop, clock, **overrides)
        self.cold = _offline_service(self.loop, clock, **overrides)

    def __enter__(self):
        return self.warm, self.cold

    def __exit__(self, *exc):
        for service in (self.warm, self.cold):
            self.loop.run_until_complete(service.stop())
        self.loop.close()


@pytest.fixture(scope="module")
def memo_twins():
    with _Twins() as twins:
        yield twins


def _repeat(warm, cold, wire, ids, tcp=False):
    """``wire``'s body under each of ``ids`` in turn: the first fills the
    memo, every later one is answered from it."""
    answers = []
    for msg_id in ids:
        answers.append(_assert_memo_is_invisible(warm, cold, _with_id(wire, msg_id), tcp))
        assert wire[2:] in warm._decoded
    return answers


class TestDecodeMemo:
    def test_repeats_under_fresh_ids_match_a_cold_decode(self, memo_twins):
        """Every datagram twice, the second time under another id: the
        bytes on the wire and the capture rows are the cold twin's, and the
        repeat of a kept body is never decoded."""
        warm, cold = memo_twins
        pool = _name_pool(warm)
        sent = []
        kept = 0

        @settings(max_examples=150, derandomize=True, deadline=None)
        @given(specs=st.lists(
            st.tuples(query_spec_st, st.integers(1, 65535)), min_size=1, max_size=10,
        ))
        def stream(specs):
            nonlocal kept
            marks = [len(service.world.capture) for service in (warm, cold)]
            for spec, shift in specs:
                for wire in _spec_wires(pool, spec):
                    again = _with_id(wire, (wire[0] << 8 | wire[1]) ^ shift)
                    for each in (wire, again):
                        _assert_memo_is_invisible(warm, cold, each, spec["tcp"])
                        sent.append(each)
                    kept += _kept(wire)
            rows = [
                service.world.capture.view().to_rows()[mark:]
                for service, mark in zip((warm, cold), marks)
            ]
            # By repr: a UDP row's tcp_rtt_ms is NaN, which equals nothing.
            assert repr(rows[0]) == repr(rows[1])

        with mock.patch.object(
            service_app, "classify_datagram", wraps=classify_datagram
        ) as decode:
            stream()
        # The cold twin decoded every datagram; the warm one at most the
        # first of each pair whose body it keeps (fewer where an earlier
        # example sent the body), and a pointer-spelled body every time.
        assert decode.call_count - len(sent) <= len(sent) - kept
        assert len(sent) > 500 and kept > len(sent) // 4
        assert not any(w[2:] in warm._decoded for w in sent if not _kept(w))
        # Nothing downstream wrote to a shared query: each memoised one is
        # still what its octets decode to.
        for key, (_, query, _) in warm._decoded.items():
            assert Message.from_wire(struct.pack("!H", query.msg_id) + key) == query

    def test_every_answer_carries_the_datagrams_id(self, memo_twins):
        """Each answer path, reached on a memo hit: a plan's miss, first
        fill and replays, UDP and TCP; a multi-question query, a refused
        opcode, a question-less query and the default topology's sink."""
        warm, cold = memo_twins
        labels = (b"memo-stamped", b"nl")
        status = bytearray(_query_wire(labels, edns=1232))
        status[2] |= 0x10                                       # opcode STATUS
        cases = {
            "plan": _query_wire(labels, qtype=28, edns=1232, do=True),
            "two": _query_wire(labels, shape="two"),
            "notimp": bytes(status),
            "no-question": _query_wire((b"nl",), shape="none"),
            "refused": _query_wire((b"db", b"internal", b"invalid")),
        }
        ids = (1, 2, 0xBEEF, 0xFFFF)
        for name, wire in cases.items():
            for tcp in (False, True):
                answers = _repeat(warm, cold, wire, ids, tcp)
                assert [a[:2] for a in answers] == [struct.pack("!H", i) for i in ids]
                assert len({a[2:] for a in answers}) == 1, name
                if name == "plan" and not tcp:
                    # Kept at its first fill (the second datagram, the first
                    # answered from the memo) under that datagram's id.
                    assert [
                        p.wire for p in _plans(warm) if p.qname_labels == labels
                    ] == [answers[1]]
        rcode = lambda wire: Message.from_wire(_exchange(warm, wire)).rcode
        assert rcode(cases["notimp"]) is RCode.NOTIMP
        assert rcode(cases["no-question"]) is RCode.FORMERR
        assert rcode(cases["refused"]) is RCode.REFUSED

    def test_sinks_and_the_resolver_frontend(self):
        topology = ServiceTopology(
            tiers=(ForwardingTier(
                name="edge",
                rules=(
                    ForwardRule(Name.from_text("internal.invalid."), "refused"),
                    ForwardRule(Name.from_text("blocked.nl."), "nxdomain"),
                    ForwardRule(Name.from_text("nl."), "auth:nl"),
                ),
                upstreams=("resolver",),
            ),),
            default_tier="edge",
        )
        with _Twins(topology=topology, resolver_frontend=True) as (warm, cold):
            for labels, rcode in (
                ((b"db", b"internal", b"invalid"), RCode.REFUSED),
                ((b"ads", b"blocked", b"nl"), RCode.NXDOMAIN),
                ((b"example", b"com"), None),
            ):
                for tcp in (False, True):
                    answers = _repeat(warm, cold, _query_wire(labels), (7, 8, 9), tcp)
                    got = Message.from_wire(answers[-1])
                    assert got.msg_id == 9
                    if rcode is None:                           # the frontend
                        assert got.flags.ra
                    else:
                        assert got.rcode is rcode
            counters = warm.snapshot().counters
            assert counters["service.policy_sink{sink=refused}"] == 6
            assert counters["service.policy_sink{sink=nxdomain}"] == 6
            assert sum(
                value for key, value in counters.items()
                if key.startswith("service.resolved{")
            ) == 6

    def test_deadline_servfail(self):
        blackout = FaultPlan(
            name="total-blackout",
            outages=(OutageWindow(server_id="*", start_frac=0.0, end_frac=1.0),),
        )
        with _Twins(fault_plan=blackout, chaos_seed=7) as (warm, cold):
            wire = _query_wire((b"memo-blackout", b"nl"))
            answers = _repeat(warm, cold, wire, (21, 22, 23))
            assert all(Message.from_wire(a).rcode is RCode.SERVFAIL for a in answers)
            counters = warm.snapshot().counters
            assert counters["service.deadline.exhausted{transport=udp}"] == 3

    def test_the_memo_clears_whole_at_its_limit(self, memo_twins, monkeypatch):
        limit = 4
        monkeypatch.setattr(service_app, "QUERY_MEMO_LIMIT", limit)
        warm, cold = memo_twins
        warm._decoded.clear()
        sizes = []
        for index in range(2 * limit + 1):
            wire = _query_wire((b"memo-bound-%d" % index, b"nl"), msg_id=index)
            _assert_memo_is_invisible(warm, cold, wire)
            sizes.append(len(warm._decoded))
        assert sizes == [1, 2, 3, 4, 1, 2, 3, 4, 1]

    def test_only_queries_are_kept(self, memo_twins):
        """A short, a response, an undecodable datagram, a query longer
        than ``QUERY_BODY_LIMIT`` and one spelling a name with a compression
        pointer (into the header or the message id) are decoded afresh
        every time."""
        warm, cold = memo_twins
        warm._decoded.clear()
        labels = (b"memo-kept", b"nl")
        query = _query_wire(labels, msg_id=0)
        # The qname is a pointer at offset 0: under id 0 it reads the root
        # name, under id 0x0300 a three-octet label spelled from the header.
        into_id = struct.pack("!HHHHHH", 0, 0, 1, 0, 0, 0) + b"\xc0\x00\x00\x01\x00\x01"
        for wire in (
            query[:11],                                          # short
            query[:2] + bytes([query[2] | 0x80]) + query[3:],    # QR set
            query[:-3],                                          # FORMERR
            _padded_query(labels, service_app.QUERY_BODY_LIMIT + 1),
            _query_wire(labels, shape="pointer"),
            _query_wire(labels, shape="two-pointer"),
            into_id,
        ):
            answers = [
                _assert_memo_is_invisible(warm, cold, _with_id(wire, msg_id), tcp)
                for msg_id in (0, 0x0300, 0x0300)
                for tcp in (False, True)
            ]
            assert warm._decoded == {}
        qnames = [Message.from_wire(a).question.qname.labels for a in answers[:4:2]]
        assert qnames == [(), (b"\x00\x00\x00",)]
        _repeat(warm, cold, _padded_query(labels, service_app.QUERY_BODY_LIMIT), (1, 2))

    def test_hostile_bodies_stay_small(self, memo_twins, monkeypatch):
        """Distinct long bodies, over UDP and TCP, are answered as a cold
        decode answers them and never kept.  The worst bodies short enough
        to keep (many questions, many short labels, many EDNS options)
        hold a few kB each, and the memo holds no more than
        ``QUERY_MEMO_LIMIT`` of them."""
        warm, cold = memo_twins
        warm._decoded.clear()
        cap = service_app.QUERY_BODY_LIMIT
        for size in (cap + 1, 600, 4096, 65000):
            for index in range(3):
                for tcp in (False, True):
                    wire = _padded_query((b"hostile-%d" % index, b"nl"), size)
                    _assert_memo_is_invisible(warm, cold, wire, tcp)
        assert warm._decoded == {}

        def header(questions, additionals=0):
            return struct.pack("!HHHHHH", 0, 0, questions, 0, 0, additionals)

        def tag(index):
            return b"\x03%03d\x00\x00\x01\x00\x01" % index

        root = b"\x00\x00\x01\x00\x01"
        labels = b"\x02ab" * ((cap - 10 - 4 - 1 - 4) // 3)
        fill = (cap - 10 - 9 - 11) // 4
        opt = b"\x00" + struct.pack("!HHIH", 41, 1232, 0, 4 * fill)
        shapes = (
            lambda i: header(1 + (cap - 19) // 5) + tag(i) + root * ((cap - 19) // 5),
            lambda i: header(1) + b"\x03%03d" % i + labels + root,
            lambda i: header(1, 1) + tag(i) + opt + b"\x00\x0a\x00\x00" * fill,
        )
        limit = 200
        monkeypatch.setattr(service_app, "QUERY_MEMO_LIMIT", limit)
        for shape in shapes:
            assert len(shape(0)) - 2 > cap - 5 and _kept(shape(0))
            warm._decoded.clear()
            gc.collect()
            tracemalloc.start()
            for index in range(limit):
                assert warm._decode(shape(index))[0] == "query"
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.stop()
            assert len(warm._decoded) == limit
            assert held / limit < 8192
            warm._decode(shape(limit))
            assert len(warm._decoded) == 1


class TestHeldCounters:
    """Fetching the per-datagram counters once must not change what
    ``/metrics`` and ``snapshot()`` list: a series appears with the first
    event that touches it, never before."""

    #: What a service that has seen no traffic lists under ``service.``:
    #: the breaker board's totals, published at every snapshot.
    IDLE = {
        "service.breaker.closed": 0,
        "service.breaker.opened": 0,
        "service.breaker.probes": 0,
        "service.breaker.skipped": 0,
    }

    #: ``service.*`` counters after :meth:`_burst`, recorded from the commit
    #: before the counters were held (``counter()`` looked up per datagram)
    #: on this same burst.
    EXPECTED = {
        **IDLE,
        "service.answered{transport=udp}": 6,
        "service.formerr": 1,
        "service.ignored{cause=response}": 1,
        "service.ignored{cause=short}": 1,
        "service.policy_sink{sink=refused}": 1,
        "service.queries{transport=tcp}": 1,
        "service.queries{transport=udp}": 6,
        "service.refused{cause=opcode}": 1,
        "service.tcp_frames": 1,
        "service.tcp_response_bytes": 26,
        "service.udp_datagrams": 9,
        "service.udp_response_bytes": 567,
    }

    @staticmethod
    def _burst(service):
        pool = _name_pool(service)
        udp = [
            _query_wire(pool[0], msg_id=1, edns=1232),
            _query_wire(pool[0], msg_id=2, edns=1232),
            _query_wire(pool[0], msg_id=3, edns=1232),
            _query_wire(pool[1], msg_id=4, qtype=28),
            _query_wire((b"no-such-name-zzz", b"nl"), msg_id=5, edns=512, do=True),
            _query_wire((b"db", b"internal", b"invalid"), msg_id=6),
            _query_wire(pool[2], msg_id=7)[:-3],                      # FORMERR
            b"\x00\x01\x02",                                          # short
            _query_wire(pool[2], msg_id=8)[:2] + b"\x80" + _query_wire(pool[2])[3:],
        ]
        for wire in udp:
            _exchange(service, wire)
        # Over TCP only a STATUS query: counted, never "answered".
        status = bytearray(_query_wire(pool[0], msg_id=9))
        status[2] |= 0x10
        _exchange(service, bytes(status), tcp=True)

    @staticmethod
    def _service_series(service):
        counters = service.snapshot().counters
        return {k: v for k, v in counters.items() if k.startswith("service.")}

    def test_series_are_the_parents(self):
        loop = asyncio.new_event_loop()
        service = _offline_service(loop, SimClock(now=dataset("nl-w2020").start))
        try:
            assert self._service_series(service) == self.IDLE
            self._burst(service)
            assert self._service_series(service) == self.EXPECTED
            # /metrics: exactly those series, rendered by the (unchanged)
            # exposition code.
            samples = lambda text: sorted(
                line for line in text.splitlines()
                if line.startswith("repro_service_") and "_total" in line
            )
            exposed = samples(service.render_metrics())
            assert len(exposed) == len(self.EXPECTED)
            assert exposed == samples(
                to_prometheus(TelemetrySnapshot(counters=self.EXPECTED))
            )
            # Held counters are the registry's own objects: a second burst
            # doubles every series and adds none.
            self._burst(service)
            assert self._service_series(service) == {
                key: 2 * value for key, value in self.EXPECTED.items()
            }
        finally:
            loop.run_until_complete(service.stop())
            loop.close()


class TestLiveCaptureWindow:
    def test_resident_rows_stay_within_the_window(self, monkeypatch):
        window = 32
        monkeypatch.setattr(service_app, "LIVE_CAPTURE_WINDOW", window)
        loop = asyncio.new_event_loop()
        service = _offline_service(loop)
        try:
            pool = _name_pool(service)
            capture = service.world.capture
            answered = 0
            high_water = 0
            for index in range(3 * window + 5):
                wire = _query_wire(pool[index % 3], msg_id=index, edns=1232)
                tcp = index % 7 == 0
                assert _exchange(service, wire, tcp) is not None
                answered += 1
                high_water = max(high_water, len(capture))
                assert len(capture) <= window
            assert high_water > window // 2          # rows do stay for a while
            assert capture.rows_appended == answered
            assert len(capture) == answered % window
            snapshot = service.snapshot()
            assert snapshot.total("service.answered") == answered
        finally:
            loop.run_until_complete(service.stop())
            loop.close()


# ---------------------------------------------------------------------------
# the compiled live path: route table, source memos, one clock read


class CountingClock:
    """A :class:`SimClock` that counts its reads."""

    def __init__(self, now):
        self.inner = SimClock(now=now)
        self.reads = 0

    def read(self):
        self.reads += 1
        return self.inner.read()


def _reference_route(topology, src, qname):
    """The upstream specs the recursive walk visits: ``tier_for``, then
    ``chain_for`` with every ``tier:`` hop followed in place."""
    def walk(tier):
        for spec in tier.chain_for(qname):
            if spec.startswith("tier:"):
                yield from walk(topology.tier(spec[5:]))
            else:
                yield spec

    return tuple(walk(topology.tier_for(src)))


def _as_specs(route, server_sets):
    """A compiled route spelled as the specs it was compiled from."""
    whole = {tuple(servers): key for key, servers in server_sets.items()}
    specs = []
    for kind, target in route:
        if kind == service_dispatch.AUTH:
            key = whole.get(target)
            if key is None:
                (server,) = target
                (key,) = [k for k, servers in server_sets.items() if server in servers]
                key = f"{key}/{server.server_id}"
            specs.append(f"auth:{key}")
        else:
            specs.append(target if kind == service_dispatch.SINK else "resolver")
    return tuple(specs)


def _test_topologies():
    nested = ServiceTopology(
        tiers=(
            ForwardingTier(
                name="edge",
                rules=(
                    ForwardRule(Name.from_text("deep.example.nl."), "nxdomain"),
                    ForwardRule(Name.from_text("example.nl."), "tier:inner"),
                    ForwardRule(Name.from_text("."), "tier:inner"),
                ),
            ),
            ForwardingTier(
                name="inner",
                rules=(
                    ForwardRule(Name.from_text("nl."), "auth:nl/nl-c"),
                    ForwardRule(Name.from_text("deep.example.nl."), "refused"),
                ),
                upstreams=("auth:root", "auth:nl"),
            ),
        ),
        default_tier="edge",
    )
    return {
        "default": default_topology("nl"),
        "default+resolver": default_topology("nl", resolver=True),
        "hand-built": HAND_BUILT,
        "nested": nested,
        "ladder": ladder(MAX_TIER_HOPS - 1),
    }


_SOURCES = [
    IPAddress.parse(text) for text in (
        "127.0.0.1", "198.51.100.7", "203.0.113.9", "2001:db8::53", "fe80::1",
    )
]

_QNAMES = [
    Name.from_text(text) for text in (
        ".", "nl.", "NL.", "example.nl.", "www.Example.NL.", "deep.example.nl.",
        "a.deep.example.nl.", "blocked.nl.", "ads.blocked.nl.", "internal.invalid.",
        "db.Internal.Invalid.", "invalid.", "example.com.", "nl.example.com.",
    )
]


class TestCompiledRoutes:
    @pytest.mark.parametrize("name", list(_test_topologies()))
    def test_compiled_route_is_the_recursive_walk(self, live_world, name):
        _, world, _ = live_world
        topology = _test_topologies()[name]
        # Routing never calls the frontend; it only has to exist for the
        # ``resolver`` spec to validate.
        dispatcher = QueryDispatcher(
            topology, world.server_sets, SimClock(), network=world.network,
            resolver=object() if name == "default+resolver" else None,
        )
        for src in _SOURCES:
            tier = dispatcher.entry_tier(src)
            for qname in _QNAMES:
                assert _as_specs(
                    dispatcher.route_for(tier, qname), world.server_sets
                ) == _reference_route(topology, src, qname), (name, src, qname)

    def test_randomised_case_adds_no_route(self, live_world):
        """10k 0x20 spellings: each routes like its lowercase form, and the
        table is the one compiled — bounded by the topology, not traffic."""
        _, world, _ = live_world
        dispatcher = QueryDispatcher(
            HAND_BUILT, world.server_sets, SimClock(), network=world.network
        )
        compiled = dict(dispatcher.routes)
        rng = random.Random(5)
        for index in range(10_000):
            qname = _QNAMES[index % len(_QNAMES)]
            spelled = Name(
                bytes(b ^ 0x20 if chr(b).isalpha() and rng.random() < 0.5 else b
                      for b in label)
                for label in qname.labels
            )
            tier = dispatcher.entry_tier(_SOURCES[index % len(_SOURCES)])
            assert dispatcher.route_for(tier, spelled) is dispatcher.route_for(
                tier, Name(label.lower() for label in qname.labels)
            )
        suffixes = {rule.suffix for tier in HAND_BUILT.tiers for rule in tier.rules}
        assert dispatcher.routes == compiled
        assert len(dispatcher.routes) <= len(HAND_BUILT.tiers) * 2 ** len(suffixes)


class TestSourceMemo:
    def _wire(self, service, msg_id=1):
        return _query_wire(_name_pool(service)[0], msg_id=msg_id, edns=1232)

    def test_one_host_on_random_ports_is_one_entry(self):
        loop = asyncio.new_event_loop()
        service = _offline_service(loop, SimClock(now=dataset("nl-w2020").start))
        try:
            rng = random.Random(7)
            sink = _Sink()
            for msg_id in range(1000):
                sink.sent = None
                service.handle_datagram(
                    sink, self._wire(service, msg_id), ("198.51.100.7", rng.randrange(1024, 65536))
                )
                assert sink.sent is not None
            assert service._peers == {
                "198.51.100.7": (IPAddress.parse("198.51.100.7"), "edge"),
            }
        finally:
            loop.run_until_complete(service.stop())
            loop.close()

    def test_the_memo_clears_at_its_limit(self, monkeypatch):
        limit = 4
        monkeypatch.setattr(service_app, "SOURCE_MEMO_LIMIT", limit)
        loop = asyncio.new_event_loop()
        service = _offline_service(loop, SimClock(now=dataset("nl-w2020").start))
        try:
            sizes = []
            for host in range(1, 2 * limit + 2):
                service.handle_datagram(_Sink(), self._wire(service), (f"10.0.0.{host}", 53))
                sizes.append(len(service._peers))
            assert sizes == [1, 2, 3, 4, 1, 2, 3, 4, 1]
        finally:
            loop.run_until_complete(service.stop())
            loop.close()

    def test_unparseable_peer_is_counted_not_memoised(self):
        loop = asyncio.new_event_loop()
        service = _offline_service(loop, SimClock(now=dataset("nl-w2020").start))
        try:
            sink = _Sink()
            for _ in range(2):
                service.handle_datagram(sink, self._wire(service), ("not-an-address", 53))
            assert sink.sent is None
            assert service._peers == {}
            counters = service.snapshot().counters
            assert counters["service.ignored{cause=unparseable_peer}"] == 2
        finally:
            loop.run_until_complete(service.stop())
            loop.close()


class TestOneClockRead:
    def test_fair_weather_reads_the_clock_once(self):
        """Every answered datagram, UDP or TCP, costs one read — the
        dispatch's, which also starts the deadline and feeds the breakers."""
        loop = asyncio.new_event_loop()
        clock = CountingClock(dataset("nl-w2020").start)
        service = _offline_service(loop, clock)
        try:
            pool = _name_pool(service)
            for index in range(60):
                wire = _query_wire(pool[index % 6], msg_id=index, edns=1232)
                clock.reads = 0
                assert _exchange(service, wire, tcp=index % 5 == 0) is not None
                assert clock.reads == 1, index
        finally:
            loop.run_until_complete(service.stop())
            loop.close()

    def test_retry_and_failover_read_again(self, live_world):
        """``nl-a`` offline: its first attempt rides on the dispatch's
        reading; the retry's deadline check, the breaker's failure record,
        the failover's breaker verdict, its deadline check and its success
        record each read the clock again."""
        descriptor, world, _ = live_world
        clock = CountingClock(descriptor.start)
        dispatcher = QueryDispatcher(
            ServiceTopology(
                tiers=(ForwardingTier(
                    name="edge", upstreams=("auth:nl/nl-a", "auth:nl/nl-b")
                ),),
                default_tier="edge",
            ),
            world.server_sets, clock, network=world.network,
        )
        server = world.server_sets["nl"].by_id("nl-a")
        server.online = False
        try:
            response = dispatcher.dispatch(CLIENT, Transport.UDP, _query_for(world))
        finally:
            server.online = True
        assert response is not None and response.rcode is not RCode.SERVFAIL
        assert clock.reads == 1 + 5
