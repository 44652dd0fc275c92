"""The live service under stress: supervise, bound, fail over.

Dispatcher-level tests drive a real authority world through a full
blackout fault plan without sockets; live-socket tests exercise the
endpoint watchdog, the ``/healthz`` state machine, and the slow-loris
guards on the TCP and metrics listeners; the load generator's own
robustness is checked against stub servers.
"""

import asyncio
import time

import pytest

from repro.capture import Transport
from repro.dnscore import Message, Name, RCode, RRType
from repro.faults import FaultInjector, FaultPlan, OutageWindow
from repro.netsim import IPAddress, SimClock
from repro.service import (
    DnsService,
    LoadGenConfig,
    QueryDispatcher,
    ServiceConfig,
)
from repro.service import app as service_app, endpoints, loadgen
from repro.service.loadgen import LoadReport, _drive_tcp, _UdpClient
from repro.sim import build_authority_world
from repro.telemetry import MetricsRegistry
from repro.workload import dataset

CLIENT = IPAddress.parse("127.0.0.1")


def _counter_total(snapshot, name):
    return sum(
        value
        for key, value in snapshot.counters.items()
        if name in str(key)
    )


# ---------------------------------------------------------------------------
# dispatcher under a full blackout (no sockets)


def test_blackout_tries_each_server_once():
    """Every UDP exchange of the chain is dropped: each server is tried
    once, and the query ends in silence.  The blackout models UDP loss, so
    a TCP query still reaches the first server and gets its answer."""
    descriptor = dataset("nl-w2020")
    world = build_authority_world(descriptor, 20201027, MetricsRegistry())
    clock = SimClock(now=descriptor.start)
    plan = FaultPlan(
        name="total-blackout",
        outages=(OutageWindow(server_id="*", start_frac=0.0, end_frac=1.0),),
    )
    world.network.faults = FaultInjector(plan, 7, clock.read(), 3600.0)
    metrics = MetricsRegistry()
    dispatcher = QueryDispatcher(
        world.server_sets, clock, network=world.network, metrics=metrics
    )
    query = Message.make_query(
        Name.from_text("example-blackout.nl"), RRType.A, msg_id=99
    )
    assert dispatcher.dispatch(CLIENT, Transport.UDP, query) is None
    snap = metrics.snapshot()
    assert _counter_total(snap, "service.fault_drops") == len(dispatcher.chain)
    assert _counter_total(snap, "service.unanswered") == 1
    response = dispatcher.dispatch(CLIENT, Transport.TCP, query)
    assert response is not None and response.rcode is RCode.NXDOMAIN


# ---------------------------------------------------------------------------
# live service: watchdog, health, slow-loris


def _serve_config(**overrides):
    base = dict(udp_port=0, metrics_port=None)
    base.update(overrides)
    return ServiceConfig(**base)


async def _with_service(config, fn):
    service = DnsService(config)
    await service.start()
    try:
        return await fn(service)
    finally:
        await service.stop()


class TestWatchdogAndHealth:
    def test_udp_endpoint_restarts_on_same_port(self, monkeypatch):
        monkeypatch.setattr(service_app, "WATCHDOG_BACKOFF_S", 0.05)
        monkeypatch.setattr(loadgen, "QUERY_TIMEOUT_S", 5.0)
        config = _serve_config(watchdog_interval_s=0.05, metrics_port=0)

        async def scenario(service):
            port = service.udp_port
            service._udp_transport.close()
            deadline = time.monotonic() + 3.0
            while time.monotonic() < deadline:
                await asyncio.sleep(0.05)
                if (
                    service._udp_transport is not None
                    and not service._udp_transport.is_closing()
                ):
                    break
            assert service.udp_port == port
            state, code = service.health()
            # A fresh restart keeps /healthz in degraded (still 200).
            assert state == "degraded" and code == 200
            # And the revived endpoint actually answers queries.
            from repro.service import run_loadgen

            report = await run_loadgen(LoadGenConfig(udp_port=port, queries=10))
            return report, service.snapshot()

        report, snap = asyncio.run(_with_service(config, scenario))
        assert report.answered == 10
        assert _counter_total(snap, "service.watchdog.restarts") >= 1
        assert _counter_total(snap, "service.watchdog.checks") >= 1

    def test_health_state_machine(self):
        service = DnsService(_serve_config(watchdog_interval_s=0.0))
        assert service.health() == ("starting", 503)

        async def scenario(running):
            assert running.health() == ("ready", 200)
            # An endpoint restarted just now: degraded, still serving.
            running._last_restart_at = running.clock.read()
            state, code = running.health()
            assert state == "degraded" and code == 200
            status, body = running.render_healthz()
            assert status.startswith("200")
            assert b"state: degraded" in body
            assert b"last_restart_s_ago: " in body
            snap = running.snapshot()
            assert any(
                "service.health_state" in str(key) and "degraded" in str(key)
                for key in snap.gauges
            )
            return True

        assert asyncio.run(_with_service(_serve_config(), scenario))

    def test_draining_after_stop(self):
        async def scenario():
            service = DnsService(_serve_config())
            await service.start()
            await service.stop()
            return service.health(), service.render_healthz()

        (state, code), (status, body) = asyncio.run(scenario())
        assert state == "draining" and code == 503
        assert status.startswith("503")

    def test_healthz_endpoint_serves_state(self):
        config = _serve_config(metrics_port=0)

        async def scenario(service):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", service.metrics_port
            )
            writer.write(b"GET /healthz HTTP/1.0\r\n\r\n")
            await writer.drain()
            raw = await asyncio.wait_for(reader.read(-1), timeout=5.0)
            writer.close()
            return raw.decode()

        body = asyncio.run(_with_service(config, scenario))
        assert body.startswith("HTTP/1.0 200")
        assert "state: ready" in body

    def test_snapshot_reports_clock_clamps(self):
        async def scenario(service):
            return service.snapshot()

        snap = asyncio.run(_with_service(_serve_config(), scenario))
        assert _counter_total(snap, "clock.monotonic_clamps") == 0


class TestSlowLoris:
    def test_half_prefix_times_out(self, monkeypatch):
        monkeypatch.setattr(endpoints, "TCP_IDLE_TIMEOUT_S", 5.0)
        monkeypatch.setattr(endpoints, "TCP_FRAME_TIMEOUT_S", 0.2)
        config = _serve_config()

        async def scenario(service):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", service.tcp_port
            )
            writer.write(b"\x00")  # half a length prefix, then stall
            await writer.drain()
            data = await asyncio.wait_for(reader.read(-1), timeout=5.0)
            writer.close()
            return data, service.snapshot()

        data, snap = asyncio.run(_with_service(config, scenario))
        assert data == b""  # server closed the pinned connection
        assert _counter_total(snap, "service.tcp_idle_timeouts") == 1

    def test_idle_connection_times_out(self, monkeypatch):
        monkeypatch.setattr(endpoints, "TCP_IDLE_TIMEOUT_S", 0.2)
        monkeypatch.setattr(endpoints, "TCP_FRAME_TIMEOUT_S", 5.0)
        config = _serve_config()

        async def scenario(service):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", service.tcp_port
            )
            data = await asyncio.wait_for(reader.read(-1), timeout=5.0)
            writer.close()
            return data, service.snapshot()

        data, snap = asyncio.run(_with_service(config, scenario))
        assert data == b""
        assert _counter_total(snap, "service.tcp_idle_timeouts") == 1


    def test_metrics_head_has_one_deadline(self, monkeypatch):
        """A client dribbling one header line at a time cannot keep a
        metrics connection open past the head's deadline."""
        monkeypatch.setattr(endpoints, "METRICS_HEAD_TIMEOUT_S", 0.3)
        config = _serve_config(metrics_port=0)

        async def scenario(service):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", service.metrics_port
            )

            async def dribble():
                writer.write(b"GET /healthz HTTP/1.0\r\n")
                for index in range(40):  # 4 s of headers, never the blank line
                    writer.write(b"X-Slow: %d\r\n" % index)
                    await writer.drain()
                    await asyncio.sleep(0.1)

            started = time.monotonic()
            sender = asyncio.ensure_future(dribble())
            try:
                data = await asyncio.wait_for(reader.read(-1), timeout=3.0)
            except ConnectionResetError:
                data = b""
            elapsed = time.monotonic() - started
            sender.cancel()
            await asyncio.gather(sender, return_exceptions=True)
            writer.close()
            return data, elapsed

        data, elapsed = asyncio.run(_with_service(config, scenario))
        assert data == b""  # closed unanswered
        assert elapsed < 2.0

    @pytest.mark.parametrize("head", [
        b"GET /" + b"a" * 70000,
        b"GET /healthz HTTP/1.0\r\nX-Long: " + b"a" * 70000,
    ], ids=["request-line", "header-line"])
    def test_metrics_line_past_the_limit_is_a_400(self, head):
        """A line longer than the stream reader's limit, with no newline,
        is answered 400 and closed; nothing reaches the loop's exception
        handler."""

        class Writer:
            def __init__(self):
                self.sent, self.closed = b"", False

            def write(self, data):
                self.sent += data

            async def drain(self):
                pass

            def close(self):
                self.closed = True

            async def wait_closed(self):
                pass

        async def scenario():
            raised = []
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: raised.append(context)
            )
            reader, writer = asyncio.StreamReader(), Writer()
            reader.feed_data(head)
            await endpoints.serve_metrics_connection(None, reader, writer)
            return writer, raised

        writer, raised = asyncio.run(scenario())
        assert writer.sent.startswith(b"HTTP/1.0 400 Bad Request\r\n")
        assert writer.closed and not raised


# ---------------------------------------------------------------------------
# loadgen robustness


class TestLoadgenRobustness:
    def test_late_udp_response_not_mismatched(self):
        async def scenario():
            client = _UdpClient()
            loop = asyncio.get_running_loop()
            # Query 7 timed out: its id is retired, not freed.
            client.lost.add(7)
            client.datagram_received(b"\x00\x07tail", None)
            assert client.late == 1
            assert 7 not in client.lost  # id is reusable again
            # A fresh pending query still resolves normally.
            future = loop.create_future()
            client.pending[8] = future
            client.datagram_received(b"\x00\x08tail", None)
            assert future.done() and not client.pending
            return True

        assert asyncio.run(scenario())

    def test_tcp_timeout_reconnects_and_continues(self, monkeypatch):
        monkeypatch.setattr(loadgen, "QUERY_TIMEOUT_S", 0.3)
        qname = Name.from_text("tcp-deadline-test.nl")
        queries = [(qname, RRType.A)] * 3
        modes = ["stall", "answer"]

        async def handler(reader, writer):
            mode = modes.pop(0) if modes else "answer"
            try:
                while True:
                    prefix = await reader.readexactly(2)
                    frame = await reader.readexactly(
                        int.from_bytes(prefix, "big")
                    )
                    if mode == "stall":
                        continue  # swallow the query, answer nothing
                    query = Message.from_wire(frame)
                    response = query.make_response_skeleton()
                    response.set_rcode(RCode.NOERROR)
                    wire = response.to_wire(max_size=65535)
                    writer.write(len(wire).to_bytes(2, "big") + wire)
                    await writer.drain()
            except (asyncio.IncompleteReadError, ConnectionResetError):
                pass
            finally:
                writer.close()

        async def scenario():
            server = await asyncio.start_server(handler, host="127.0.0.1")
            port = server.sockets[0].getsockname()[1]
            report = LoadReport()
            started = time.perf_counter()
            await _drive_tcp("127.0.0.1", port, queries, report, [])
            elapsed = time.perf_counter() - started
            server.close()
            await server.wait_closed()
            return report, elapsed

        report, elapsed = asyncio.run(scenario())
        assert report.sent == 3
        assert report.timeouts == 1       # the stalled first query
        assert report.answered == 2       # reconnect resumed the slice
        # One deadline spans prefix+payload: the stall costs one timeout,
        # not a fresh timeout per read.
        assert elapsed < 3 * 0.3 + 2.0

    def test_tcp_connect_failure_counts_aborted(self):
        async def scenario():
            # Bind-then-close yields a port with nothing listening.
            server = await asyncio.start_server(
                lambda r, w: None, host="127.0.0.1"
            )
            port = server.sockets[0].getsockname()[1]
            server.close()
            await server.wait_closed()
            report = LoadReport()
            await _drive_tcp(
                "127.0.0.1", port, [(Name.from_text("x.nl"), RRType.A)] * 2,
                report, [],
            )
            return report

        report = asyncio.run(scenario())
        assert report.aborted == 2
        assert report.sent == 0
