"""The resilience layer: shed, break, bound, supervise, soak.

Unit tests cover the primitives (token bucket, deadline budgets, circuit
breaker state machine) with synthetic time; dispatcher-level tests drive a
real authority world through a full blackout fault plan without sockets;
live-socket tests exercise admission shedding, the endpoint watchdog, the
``/healthz`` state machine, and the slow-loris TCP guards; the slow-marked
soak test runs the whole chaos harness end to end and asserts its SLOs.
"""

import asyncio
import math
import time

import pytest

from repro.capture import Transport
from repro.dnscore import Message, Name, RCode, RRType
from repro.faults import FaultInjector, FaultPlan, OutageWindow
from repro.netsim import IPAddress, SimClock
from repro.server import RRLConfig
from repro.service import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    CircuitBreaker,
    Deadline,
    DnsService,
    LoadGenConfig,
    QueryDispatcher,
    ResilienceConfig,
    ServiceConfig,
    SoakConfig,
    TokenBucket,
    parse_prometheus_text,
    run_soak_sync,
)
from repro.service import app as service_app, endpoints
from repro.service.loadgen import LoadReport, _drive_tcp, _UdpClient
from repro.service.resilience import (
    BREAKER_FAILURE_THRESHOLD,
    BREAKER_MIN_SAMPLES,
    backoff_ms,
)
from repro.service.soak import _evaluate
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
# primitives


class TestTokenBucket:
    def test_burst_then_refill(self):
        bucket = TokenBucket(rate=10.0, burst=2.0)
        assert bucket.try_take(0.0)
        assert bucket.try_take(0.0)
        assert not bucket.try_take(0.0)      # burst exhausted
        assert bucket.try_take(0.1)          # 0.1s * 10/s = 1 token back
        assert not bucket.try_take(0.1)

    def test_refill_caps_at_burst(self):
        bucket = TokenBucket(rate=100.0, burst=3.0)
        for _ in range(3):
            assert bucket.try_take(0.0)
        assert bucket.try_take(1000.0)       # long idle refills to burst...
        assert bucket.level == pytest.approx(2.0)  # ...not beyond

    def test_time_going_backwards_is_ignored(self):
        bucket = TokenBucket(rate=1.0, burst=1.0)
        assert bucket.try_take(100.0)
        assert not bucket.try_take(50.0)     # no negative refill

    def test_validation(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0.0, burst=1.0)
        with pytest.raises(ValueError):
            TokenBucket(rate=1.0, burst=0.5)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_rates_rejected(self, bad):
        with pytest.raises(ValueError, match="rate must be positive and finite"):
            TokenBucket(rate=bad, burst=1.0)
        with pytest.raises(ValueError, match="burst must be >= 1 and finite"):
            TokenBucket(rate=1.0, burst=bad)
        with pytest.raises(ValueError, match="admission_rate_qps"):
            ResilienceConfig(admission_rate_qps=bad)
        for field in ("responses_per_second", "burst"):
            with pytest.raises(ValueError, match=f"{field} must be finite"):
                RRLConfig(**{field: bad})


class TestDeadline:
    def test_virtual_charges_consume_budget(self):
        clock = SimClock(now=100.0)
        start = clock.read()
        deadline = Deadline(1000.0, start)
        assert not deadline.exhausted(start)
        deadline.charge_ms(375.0)
        assert deadline.virtual_offset_s() == 0.375
        # 625 ms remain: real time spends them at exactly +0.625 s (every
        # figure here is exact in binary), not a millisecond earlier.
        assert not deadline.exhausted(start + 0.624)
        assert deadline.exhausted(start + 0.625)
        deadline.charge_ms(700.0)
        assert deadline.exhausted(start)

    def test_real_elapsed_time_counts_too(self):
        clock = SimClock(now=100.0)
        deadline = Deadline(1000.0, clock.read())
        clock.advance(0.875)
        assert not deadline.exhausted(clock.read())
        assert deadline.virtual_offset_s() == 0.0     # real time is not virtual
        # 875 ms elapsed: a 125 ms charge spends the budget exactly.
        deadline.charge_ms(125.0)
        assert deadline.exhausted(clock.read())
        clock.advance(0.2)
        assert deadline.exhausted(clock.read())


class TestResilienceConfig:
    def test_backoff_is_capped_exponential(self):
        assert [backoff_ms(n) for n in range(5)] == [
            50.0, 100.0, 200.0, 400.0, 400.0
        ]

    def test_bucket_burst_defaults_to_twice_rate(self):
        bucket = ResilienceConfig(admission_rate_qps=25.0).make_bucket()
        assert bucket.rate == 25.0 and bucket.burst == 50.0
        assert ResilienceConfig().make_bucket() is None

    def test_validation(self):
        with pytest.raises(ValueError):
            ResilienceConfig(admission_rate_qps=-1.0)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_breaker_cooldown_is_checked(self, bad):
        """A breaker that never probes (inf, NaN) or never stays open (0,
        below) is a usage error, not a silent policy."""
        with pytest.raises(
            ValueError, match="breaker_cooldown_s must be positive and finite"
        ):
            ResilienceConfig(breaker_cooldown_s=bad)


class TestCircuitBreaker:
    def test_opens_on_consecutive_failures(self):
        breaker = CircuitBreaker()
        for _ in range(BREAKER_FAILURE_THRESHOLD - 1):
            breaker.record(False, 0.0)
        assert breaker.state == BREAKER_CLOSED
        breaker.record(False, 0.0)
        assert breaker.state == BREAKER_OPEN
        assert breaker.opened_count == 1

    def test_success_resets_the_streak(self):
        breaker = CircuitBreaker()
        for ok in [False] * (BREAKER_FAILURE_THRESHOLD - 1) + [True, False]:
            breaker.record(ok, 0.0)
        assert breaker.state == BREAKER_CLOSED

    def test_opens_on_window_error_rate(self):
        breaker = CircuitBreaker()
        # Alternate ok/fail: never a streak, but a 50% error rate once the
        # window holds enough samples.
        for i in range(BREAKER_MIN_SAMPLES - 1):
            breaker.record(i % 2 == 0, 0.0)
        assert breaker.state == BREAKER_CLOSED
        breaker.record(False, 0.0)
        assert breaker.state == BREAKER_OPEN

    def test_cooldown_probe_closes_on_success(self):
        breaker = CircuitBreaker(cooldown_s=5.0)
        for _ in range(BREAKER_FAILURE_THRESHOLD):
            breaker.record(False, 100.0)
        assert breaker.state == BREAKER_OPEN
        assert not breaker.allow(102.0)       # still cooling down
        assert breaker.allow(105.0)           # half-open probe admitted
        assert breaker.state == BREAKER_HALF_OPEN
        assert breaker.probe_count == 1
        breaker.record(True, 105.0)
        assert breaker.state == BREAKER_CLOSED
        assert breaker.closed_count == 1

    def test_failed_probe_reopens_and_restarts_cooldown(self):
        breaker = CircuitBreaker(cooldown_s=5.0)
        for _ in range(BREAKER_FAILURE_THRESHOLD):
            breaker.record(False, 100.0)
        assert breaker.allow(105.0)
        breaker.record(False, 105.0)
        assert breaker.state == BREAKER_OPEN
        assert breaker.opened_count == 2
        assert not breaker.allow(108.0)       # new cooldown from 105
        assert breaker.allow(110.0)


# ---------------------------------------------------------------------------
# dispatcher under a full blackout (no sockets)


@pytest.fixture(scope="module")
def blackout_world():
    descriptor = dataset("nl-w2020")
    world = build_authority_world(descriptor, 20201027, MetricsRegistry())
    return descriptor, world


def _blackout_dispatcher(blackout_world):
    descriptor, world = blackout_world
    clock = SimClock(now=descriptor.start)
    plan = FaultPlan(
        name="total-blackout",
        outages=(OutageWindow(server_id="*", start_frac=0.0, end_frac=1.0),),
    )
    world.network.faults = FaultInjector(plan, 7, clock.read(), 3600.0)
    metrics = MetricsRegistry()
    dispatcher = QueryDispatcher(
        world.server_sets,
        clock,
        network=world.network,
        metrics=metrics,
    )
    query = Message.make_query(
        Name.from_text("example-blackout.nl"), RRType.A, msg_id=99
    )
    return dispatcher, metrics, query


class TestDispatchUnderBlackout:
    def test_deadline_exhaustion_answers_servfail(self, blackout_world):
        dispatcher, metrics, query = _blackout_dispatcher(blackout_world)
        try:
            response = dispatcher.dispatch(CLIENT, Transport.UDP, query)
            assert response is not None
            assert response.rcode is RCode.SERVFAIL
            snap = metrics.snapshot()
            assert _counter_total(snap, "service.deadline.exhausted") == 1
            assert _counter_total(snap, "service.retry.retransmits") > 0
        finally:
            blackout_world[1].network.faults = None

    def test_breakers_open_then_short_circuit(self, blackout_world):
        dispatcher, metrics, query = _blackout_dispatcher(blackout_world)
        try:
            # Hammer the blackout until every breaker has tripped: each
            # query's budget reaches two of the four upstreams, so ten
            # queries open all of them.  (While only part of the fleet is
            # open a query can still end in UDP silence; once all breakers
            # are open the chain short-circuits in O(1).)
            for _ in range(16):
                response = dispatcher.dispatch(CLIENT, Transport.UDP, query)
            response = dispatcher.dispatch(CLIENT, Transport.UDP, query)
            assert response is not None
            assert response.rcode is RCode.SERVFAIL
            snap = metrics.snapshot()
            assert _counter_total(snap, "service.breaker.short_circuit") > 0
            # Every tracked upstream's breaker ended up open (SimClock never
            # advances, so the cooldown cannot elapse mid-test).
            states = dict(dispatcher.breakers.items())
            assert states and all(
                breaker.state == BREAKER_OPEN for breaker in states.values()
            )
            assert dispatcher.breakers.skipped > 0
            # publish_metrics exports the integer-encoded state gauges.
            roll = MetricsRegistry()
            dispatcher.breakers.publish_metrics(roll)
            exported = roll.snapshot()
            gauges = {
                str(key): value
                for key, value in exported.gauges.items()
                if "service.breaker_state" in str(key)
            }
            assert gauges and all(v == BREAKER_OPEN for v in gauges.values())
        finally:
            blackout_world[1].network.faults = None

    def test_tcp_rides_through_udp_blackout(self, blackout_world):
        # The outage models UDP packet loss, so the TC-retry escape hatch
        # stays alive: a TCP query reaches the authority and gets a real
        # answer (NXDOMAIN for a name outside the zone), never silence.
        dispatcher, metrics, query = _blackout_dispatcher(blackout_world)
        try:
            response = dispatcher.dispatch(CLIENT, Transport.TCP, query)
            assert response is not None
            assert response.rcode is RCode.NXDOMAIN
        finally:
            blackout_world[1].network.faults = None


# ---------------------------------------------------------------------------
# live service: admission, watchdog, health, slow-loris


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


class _FakeTransport:
    def __init__(self):
        self.sent = []

    def sendto(self, data, addr):
        self.sent.append((data, addr))


def _test_query(msg_id=1):
    return Message.make_query(
        Name.from_text("admission-test.nl"), RRType.A, msg_id=msg_id
    )


#: Half a query a second: the bucket holds one token and refills the next
#: in two seconds, so the first query is admitted and the rest shed.
_ONE_TOKEN = ResilienceConfig(admission_rate_qps=0.5)


class TestAdmissionControl:
    def test_drop_shed_is_silent(self):
        config = _serve_config(resilience=_ONE_TOKEN)

        async def scenario(service):
            transport = _FakeTransport()
            for msg_id in (1, 2, 3):
                service.handle_datagram(
                    transport, _test_query(msg_id).to_wire(), ("127.0.0.1", 9)
                )
            return transport.sent, service.snapshot()

        sent, snap = asyncio.run(_with_service(config, scenario))
        assert len(sent) == 1  # only the admitted query was answered
        assert _counter_total(snap, "service.shed.dropped") == 2
        assert snap.gauges.get("service.shed.bucket_level") is not None

    def test_tcp_shed_closes_the_connection(self):
        config = _serve_config(resilience=_ONE_TOKEN)

        async def scenario(service):
            first = service.handle_stream_query(
                _test_query(1).to_wire(), CLIENT
            )
            second = service.handle_stream_query(
                _test_query(2).to_wire(), CLIENT
            )
            return first, second, service.snapshot()

        first, second, snap = asyncio.run(_with_service(config, scenario))
        assert first is not None
        assert second is None  # no frame: the endpoint closes the stream
        assert _counter_total(snap, "service.shed.dropped") == 1


class TestWatchdogAndHealth:
    def test_udp_endpoint_restarts_on_same_port(self, monkeypatch):
        monkeypatch.setattr(service_app, "WATCHDOG_BACKOFF_S", 0.05)
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

            report = await run_loadgen(
                LoadGenConfig(udp_port=port, queries=10, timeout_s=5.0)
            )
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
            # Force a breaker open: self-healing engaged → degraded.
            breaker = running.dispatcher.breakers.get("nl-a")
            for _ in range(5):
                breaker.record(False, running.clock.read())
            state, code = running.health()
            assert state == "degraded" and code == 200
            status, body = running.render_healthz()
            assert status.startswith("200")
            assert b"state: degraded" in body
            assert b"breakers_open: 1" in body
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

    def test_tcp_timeout_reconnects_and_continues(self):
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
            config = LoadGenConfig(host="127.0.0.1", timeout_s=0.3)
            report = LoadReport()
            started = time.perf_counter()
            await _drive_tcp(config, port, queries, report, [])
            elapsed = time.perf_counter() - started
            server.close()
            await server.wait_closed()
            return report, elapsed

        report, elapsed = asyncio.run(scenario())
        assert report.sent == 3
        assert report.timeouts == 1       # the stalled first query
        assert report.answered == 2       # reconnect resumed the slice
        # One deadline spans prefix+payload: the stall costs ~timeout_s,
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
            config = LoadGenConfig(host="127.0.0.1", timeout_s=0.2)
            report = LoadReport()
            await _drive_tcp(
                config, port, [(Name.from_text("x.nl"), RRType.A)] * 2,
                report, [],
            )
            return report

        report = asyncio.run(scenario())
        assert report.aborted == 2
        assert report.sent == 0

    def test_open_loop_rate_paces_sends(self):
        # 20 queries at 200 q/s should take >= ~95ms even against a
        # server that answers instantly.
        config = _serve_config()

        async def scenario(service):
            from repro.service import run_loadgen

            started = time.perf_counter()
            report = await run_loadgen(
                LoadGenConfig(
                    udp_port=service.udp_port, queries=20,
                    rate_qps=200.0, timeout_s=5.0,
                )
            )
            return report, time.perf_counter() - started

        report, elapsed = asyncio.run(_with_service(config, scenario))
        assert report.sent == 20
        assert report.answered == 20
        assert elapsed >= 0.09


# ---------------------------------------------------------------------------
# soak harness


class TestSoakEvaluation:
    def test_parse_prometheus_text(self):
        text = (
            "# HELP repro_x_total x\n"
            "# TYPE repro_x_total counter\n"
            'repro_x_total{a="b"} 3\n'
            "repro_y 1.5\n"
            "garbage line\n"
        )
        values = parse_prometheus_text(text)
        assert values['repro_x_total{a="b"}'] == 3.0
        assert values["repro_y"] == 1.5

    def test_evaluate_slos(self):
        load = LoadReport(
            sent=200, answered=99, timeouts=101, p50_ms=1.0, p99_ms=5.0
        )
        final = {
            'repro_service_shed_dropped_total{transport="udp"}': 100.0,
            "repro_service_breaker_opened_total": 2.0,
            "repro_service_breaker_closed_total": 2.0,
            'repro_service_breaker_state{upstream="nl-a"}': 2.0,
        }
        report = _evaluate(SoakConfig(), load, [final])
        assert report.shed == 100
        assert report.admitted == 100
        assert report.answered_or_graceful == pytest.approx(0.99)
        assert report.shed_ratio == pytest.approx(0.5)
        assert report.breaker_opened == 2 and report.breaker_closed == 2
        assert report.breaker_open_observed
        assert report.passed, report.failures

    def test_evaluate_flags_failures(self):
        load = LoadReport(sent=100, answered=50, p99_ms=9000.0)
        report = _evaluate(SoakConfig(), load, [{}])
        assert not report.passed
        assert "answered_or_graceful" in report.failures
        assert "p99_under_deadline" in report.failures
        assert "breaker_cycle" in report.failures


@pytest.mark.slow
class TestSoakEndToEnd:
    def test_blackout_plus_overload_meets_slos(self):
        report = run_soak_sync(
            SoakConfig(
                duration_s=6.0, offered_qps=120.0, admission_qps=60.0
            )
        )
        assert report.passed, report.failures
        # 2x-capacity offered load: a real share of queries was shed...
        assert report.shed > 0
        assert 0.0 < report.shed_ratio < 1.0
        # ...every admitted query got an answer or a graceful SERVFAIL...
        assert report.answered_or_graceful >= 0.99
        assert report.p99_ms <= report.config["deadline_ms"]
        # ...and the dead tier's breakers opened and re-closed, observed
        # through /metrics.
        assert report.breaker_open_observed
        assert report.breaker_opened > 0
        assert report.breaker_closed > 0
        payload = report.as_dict()
        assert payload["passed"] is True
        assert set(payload["slos"]) == {
            "answered_or_graceful", "p99_under_deadline", "breaker_cycle"
        }
