"""The ``repro serve`` application: real sockets over the simulated world.

:class:`DnsService` binds asyncio UDP/TCP endpoints (plus a Prometheus
``/metrics`` HTTP listener) on loopback or any interface, builds the same
deterministic authority world the simulation uses
(:func:`~repro.sim.driver.build_authority_world`), and answers real
clients — ``dig``, ``dnsperf``, or the built-in
:mod:`~repro.service.loadgen` — from the vantage's server chain.  Time
comes from a :class:`~repro.netsim.WallClock`; RRL, chaos fault plans, the
response-plan cache, and capture/telemetry taps all run live.

Shutdown is graceful: endpoints stop accepting, in-flight TCP/HTTP
connections drain (bounded), and a final telemetry snapshot is taken so
``--metrics-out`` / ``--telemetry-out`` record the life of the process.
"""

from __future__ import annotations

import asyncio
import errno
import logging
import os
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Optional, Tuple

from ..capture import Transport
from ..config import check_ports, check_positive
from ..dnscore import Message, RCode
from ..dnscore.edns import effective_udp_limit
from ..dnscore.message import HEADER_LENGTH
from ..faults import FaultInjector, FaultPlan, derive_fault_seed
from ..netsim import Clock, IPAddress, WallClock
from ..server import TCP_MAX_SIZE, RRLConfig
from ..sim.driver import (
    AuthorityWorld,
    build_authority_world,
    publish_server_metrics,
)
from ..telemetry import Counter, MetricsRegistry, TelemetrySnapshot, to_prometheus
from ..workload import dataset
from .dispatch import QueryDispatcher
from .endpoints import (
    UdpEndpoint,
    classify_datagram,
    formerr_response,
    peer_address,
    serve_metrics_connection,
    serve_tcp_connection,
)

logger = logging.getLogger("repro.service")

#: Draws of an ephemeral UDP number whose TCP twin must be free as well.
EPHEMERAL_BIND_ATTEMPTS = 8

#: Rows the live capture keeps resident before it releases them.  Nothing
#: consumes live rows yet, and every answered query appends one for as long
#: as the process runs, so the window exists to bound memory;
#: ``capture.rows_appended`` keeps counting rows ever observed.
LIVE_CAPTURE_WINDOW = 65536

#: Peer hosts the UDP endpoint remembers (host → parsed address) before it
#: clears the memo whole.  Keyed by host, not by host and port: resolvers
#: randomise source ports.  Sized from the simulated vantages' captures: at
#: full volume ``nl-w2020`` hears from 3,998 resolver addresses and
#: ``root-2020`` from 5,535, so at this size the memo never clears on either
#: and 97 % of their queries find their host in it; at 4,096 entries
#: ``root-2020`` falls to 85 %.
SOURCE_MEMO_LIMIT = 16384

#: Query bodies (the octets after the message id) the endpoints keep decoded
#: before they clear the memo whole, and the longest body kept (the captures'
#: longest is 50 octets); sized from the same captures (README).
QUERY_MEMO_LIMIT = 16384
QUERY_BODY_LIMIT = 128

#: Seconds :meth:`DnsService.stop` lets in-flight TCP/HTTP connections
#: drain before it cancels them.
DRAIN_TIMEOUT_S = 5.0

#: Base delay of the watchdog's restart backoff (doubles per failure).
WATCHDOG_BACKOFF_S = 0.5

#: A restart within this many seconds keeps ``/healthz`` in ``degraded``.
DEGRADED_WINDOW_S = 30.0


@dataclass
class ServiceConfig:
    """Everything ``repro serve`` needs to come up.

    Each setting has one field: a chaos scenario is its
    :class:`~repro.faults.FaultPlan` (``--chaos`` / ``--chaos-seed`` build
    it with :func:`~repro.faults.chaos_scenario`), and the plan's own
    ``seed`` places the faults."""

    dataset_id: str = "nl-w2020"
    host: str = "127.0.0.1"
    udp_port: int = 5300          #: 0 = ephemeral
    tcp_port: Optional[int] = None  #: None = same number as the bound UDP port
    metrics_port: Optional[int] = 0  #: 0 = ephemeral, None = no metrics listener
    seed: int = 20201027
    rrl: Optional[RRLConfig] = None
    #: The fault plan served live (a named chaos scenario); its ``seed``,
    #: else one derived from ``seed``, places the faults.
    fault_plan: Optional[FaultPlan] = None
    #: Live fault plans replay their capture-window choreography over this
    #: many seconds of service uptime (sim plans use the dataset window).
    fault_window_s: float = 3600.0
    #: Watchdog cadence for endpoint supervision (0 disables it).
    watchdog_interval_s: float = 1.0

    def __post_init__(self):
        check_ports(
            udp_port=self.udp_port, tcp_port=self.tcp_port,
            metrics_port=self.metrics_port,
        )
        check_positive("fault_window_s", self.fault_window_s)


class DnsService:
    """A running (or startable) live DNS frontend."""

    def __init__(self, config: ServiceConfig, clock: Optional[Clock] = None):
        self.config = config
        self.clock: Clock = WallClock() if clock is None else clock
        self.metrics = MetricsRegistry()
        self.final_snapshot: Optional[TelemetrySnapshot] = None
        self.world: Optional[AuthorityWorld] = None
        self.dispatcher: Optional[QueryDispatcher] = None
        self._started_at: Optional[float] = None
        self._udp_transport = None
        self._tcp_server: Optional[asyncio.AbstractServer] = None
        self._metrics_server: Optional[asyncio.AbstractServer] = None
        self._conn_tasks: set = set()
        self._shutdown = asyncio.Event()
        self._stopped = False
        self._draining = False
        self._watchdog_task: Optional[asyncio.Task] = None
        self._bound_ports: Dict[str, Optional[int]] = {}
        self._restart_backoff: Dict[str, float] = {}
        self._restart_not_before: Dict[str, float] = {}
        self._last_restart_at: Optional[float] = None
        #: ``capture.rows_appended`` when the live capture last released.
        self._capture_released = 0
        #: Peer host text → parsed address.
        self._peers: Dict[str, IPAddress] = {}
        #: Query octets after the message id → ("query", Message, UDP limit).
        self._decoded: Dict[bytes, Tuple[str, Message, int]] = {}

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        """Build the world and bind every endpoint."""
        config = self.config
        self.world = build_authority_world(
            dataset(config.dataset_id), config.seed, self.metrics
        )

        for server_set in self.world.server_sets.values():
            for server in server_set:
                server.clock = self.clock
                if config.rrl is not None:
                    server.configure_rrl(config.rrl)

        plan = config.fault_plan
        if plan is not None:
            fault_seed = (
                plan.seed if plan.seed is not None else derive_fault_seed(config.seed)
            )
            # Live mode anchors the plan's window choreography to service
            # uptime: outages scheduled at window fraction 0.3 hit 30% of
            # the way into ``fault_window_s``, not in April 2020.
            self.world.network.faults = FaultInjector(
                plan, fault_seed, self.clock.read(), config.fault_window_s
            )
            logger.info(
                "serving with fault plan %r over a %.0fs window",
                plan.name, config.fault_window_s,
            )

        self.dispatcher = QueryDispatcher(
            self.world.server_sets,
            self.clock,
            network=self.world.network,
            metrics=self.metrics,
        )

        try:
            await self._bind_dns_endpoints()
            if config.metrics_port is not None:
                self._metrics_server = await self._listen(
                    "metrics", config.metrics_port
                )
        except OSError:
            await self._close_listeners()
            raise
        # Pin the bound numbers so watchdog restarts reclaim the same
        # addresses even when the config asked for ephemeral ports.
        self._bound_ports = {
            "udp": self.udp_port,
            "tcp": self.tcp_port,
            "metrics": self.metrics_port,
        }
        if config.watchdog_interval_s > 0:
            self._watchdog_task = asyncio.ensure_future(self._watchdog_loop())
        self._started_at = self.clock.read()
        logger.info(
            "repro serve up: dataset=%s udp=%s:%d tcp=%s:%d metrics=%s",
            config.dataset_id, config.host, self.udp_port, config.host,
            self.tcp_port,
            f"{config.host}:{self.metrics_port}" if self._metrics_server else "off",
        )

    async def _listen(self, endpoint: str, port: int):
        """Bind ``endpoint`` (``udp``, ``tcp`` or ``metrics``) on ``port``:
        its datagram transport or its server.  An ``OSError`` comes back
        with a message naming the endpoint, the address and the OS error.
        """
        host = self.config.host
        try:
            if endpoint == "udp":
                loop = asyncio.get_running_loop()
                transport, _ = await loop.create_datagram_endpoint(
                    lambda: UdpEndpoint(self), local_addr=(host, port)
                )
                return transport
            connected = (
                self._tcp_connected if endpoint == "tcp" else self._metrics_connected
            )
            return await asyncio.start_server(connected, host=host, port=port)
        except OSError as error:
            # ``start_server`` rewords the OS error, so it is spelt from the
            # errno; a resolver error's errno is no OS error number.
            reason = (
                os.strerror(error.errno) if (error.errno or 0) > 0 else error.strerror
            )
            raise OSError(error.errno, f"{endpoint} {host}:{port}: {reason}") from error

    async def _bind_dns_endpoints(self) -> None:
        """Bind UDP, then TCP on ``tcp_port`` or, by default, the UDP number.

        A kernel-chosen UDP number promises nothing about the TCP port of
        the same number, so when both are ephemeral a taken twin means
        draw again; a port the caller named fails at once.
        """
        config = self.config
        both_ephemeral = config.udp_port == 0 and config.tcp_port is None
        attempts = EPHEMERAL_BIND_ATTEMPTS if both_ephemeral else 1
        for attempt in range(1, attempts + 1):
            self._udp_transport = await self._listen("udp", config.udp_port)
            tcp_port = self.udp_port if config.tcp_port is None else config.tcp_port
            try:
                self._tcp_server = await self._listen("tcp", tcp_port)
                return
            except OSError as error:
                self._udp_transport.close()
                if error.errno != errno.EADDRINUSE or attempt == attempts:
                    raise

    async def stop(self) -> TelemetrySnapshot:
        """Drain and shut down; returns (and stores) the final snapshot."""
        if self._stopped:
            return self.final_snapshot
        self._stopped = True
        self._draining = True
        if self._watchdog_task is not None:
            self._watchdog_task.cancel()
            try:
                await self._watchdog_task
            except asyncio.CancelledError:
                pass
            self._watchdog_task = None
        await self._close_listeners()
        # Drain in-flight TCP/HTTP connections, then cut the stragglers.
        if self._conn_tasks:
            _, pending = await asyncio.wait(
                self._conn_tasks, timeout=DRAIN_TIMEOUT_S
            )
            for task in pending:
                task.cancel()
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)
                self.metrics.counter("service.drain_cancelled").inc(len(pending))
        self.metrics.counter("service.shutdowns").inc()
        self.final_snapshot = self.snapshot()
        self._shutdown.set()
        logger.info("repro serve stopped cleanly")
        return self.final_snapshot

    async def _close_listeners(self) -> None:
        """Close every bound endpoint; connections already accepted stay."""
        if self._udp_transport is not None:
            self._udp_transport.close()
        servers = [s for s in (self._tcp_server, self._metrics_server) if s is not None]
        for server in servers:
            server.close()
        for server in servers:
            await server.wait_closed()

    def request_shutdown(self) -> None:
        """Signal-handler entry: unblocks :meth:`run_until_shutdown`."""
        self._shutdown.set()

    async def run_until_shutdown(self, duration: Optional[float] = None) -> None:
        """Serve until :meth:`request_shutdown` (or for ``duration`` s)."""
        if duration is not None:
            try:
                await asyncio.wait_for(self._shutdown.wait(), timeout=duration)
            except asyncio.TimeoutError:
                pass
        else:
            await self._shutdown.wait()

    # -- bound addresses ---------------------------------------------------

    @property
    def udp_port(self) -> int:
        if self._udp_transport is not None and not self._udp_transport.is_closing():
            return self._udp_transport.get_extra_info("sockname")[1]
        return self._bound_ports.get("udp")

    @property
    def tcp_port(self) -> int:
        if self._tcp_server is not None and self._tcp_server.sockets:
            return self._tcp_server.sockets[0].getsockname()[1]
        return self._bound_ports.get("tcp")

    @property
    def metrics_port(self) -> Optional[int]:
        if self._metrics_server is None:
            return self._bound_ports.get("metrics")
        if self._metrics_server.sockets:
            return self._metrics_server.sockets[0].getsockname()[1]
        return self._bound_ports.get("metrics")

    def ports(self) -> Dict[str, Optional[int]]:
        """The bound port numbers (for ``--port-file`` scripting)."""
        return {
            "udp": self.udp_port,
            "tcp": self.tcp_port,
            "metrics": self.metrics_port,
        }

    # -- supervision & health ----------------------------------------------

    async def _watchdog_loop(self) -> None:
        """Periodically revive dead endpoints (restart with backoff).

        An endpoint task that crashes — the UDP transport closing under an
        OS error, a listener dropping out — is rebound on its original
        port.  Failed restarts back off exponentially so a genuinely
        unavailable address doesn't turn the watchdog into a busy loop.
        """
        interval = self.config.watchdog_interval_s
        while not self._stopped:
            await asyncio.sleep(interval)
            if self._stopped:
                return
            self.metrics.counter("service.watchdog.checks").inc()
            now = self.clock.read()
            if self._udp_transport is None or self._udp_transport.is_closing():
                await self._revive("udp", now, self._restart_udp)
            if self._tcp_server is None or not self._tcp_server.is_serving():
                await self._revive("tcp", now, self._restart_tcp)
            if (
                self.config.metrics_port is not None
                and (self._metrics_server is None
                     or not self._metrics_server.is_serving())
            ):
                await self._revive("metrics", now, self._restart_metrics)

    async def _revive(self, endpoint: str, now: float, restart) -> None:
        if now < self._restart_not_before.get(endpoint, 0.0):
            return
        try:
            await restart()
        except OSError as exc:
            backoff = self._restart_backoff.get(endpoint, WATCHDOG_BACKOFF_S)
            self._restart_not_before[endpoint] = now + backoff
            self._restart_backoff[endpoint] = min(30.0, backoff * 2.0)
            self.metrics.counter(
                "service.watchdog.restart_failures", endpoint=endpoint
            ).inc()
            logger.warning(
                "watchdog: %s endpoint restart failed (%s); retrying in %.1fs",
                endpoint, exc, backoff,
            )
            return
        self._restart_backoff.pop(endpoint, None)
        self._restart_not_before.pop(endpoint, None)
        self._last_restart_at = now
        self.metrics.counter(
            "service.watchdog.restarts", endpoint=endpoint
        ).inc()
        logger.warning("watchdog: restarted the %s endpoint", endpoint)

    async def _restart_udp(self) -> None:
        self._udp_transport = await self._listen("udp", self._bound_ports["udp"])

    async def _restart_tcp(self) -> None:
        if self._tcp_server is not None:
            self._tcp_server.close()
        self._tcp_server = await self._listen("tcp", self._bound_ports["tcp"])

    async def _restart_metrics(self) -> None:
        if self._metrics_server is not None:
            self._metrics_server.close()
        self._metrics_server = await self._listen(
            "metrics", self._bound_ports["metrics"]
        )

    def health(self) -> Tuple[str, int]:
        """The live/ready/degraded state machine behind ``/healthz``.

        Contract (documented in the README): ``starting`` and ``draining``
        answer 503 (not ready for traffic); ``ready`` and ``degraded``
        answer 200 (still serving).  ``degraded`` means an endpoint was
        restarted within :data:`DEGRADED_WINDOW_S`, so operators should look
        even though clients are being answered.
        """
        if self._draining or self._stopped:
            return "draining", 503
        if self._started_at is None:
            return "starting", 503
        if (
            self._last_restart_at is not None
            and self.clock.read() - self._last_restart_at < DEGRADED_WINDOW_S
        ):
            return "degraded", 200
        return "ready", 200

    def render_healthz(self) -> Tuple[str, bytes]:
        """(HTTP status line, body) for the ``/healthz`` endpoint."""
        state, code = self.health()
        status = "200 OK" if code == 200 else "503 Service Unavailable"
        lines = [f"state: {state}"]
        if self._last_restart_at is not None:
            lines.append(
                f"last_restart_s_ago: "
                f"{self.clock.read() - self._last_restart_at:.1f}"
            )
        return status, ("\n".join(lines) + "\n").encode()

    # -- datagram / stream handlers ---------------------------------------

    def _decode(self, data: bytes) -> Tuple[str, object, int]:
        """:func:`classify_datagram` and the query's UDP limit, from the
        memo when the octets after the message id were decoded before.
        Kept: a query (the QR bit is in the key) of at most
        :data:`QUERY_BODY_LIMIT` octets and no ``c0`` octet, which in so
        short a body starts every compression pointer: its names are spelt
        out, so none reads the id and an entry grows only with its octets.
        A memoised query keeps the id it was decoded with."""
        key = data[2:]
        entry = self._decoded.get(key)
        if entry is not None:
            return entry
        kind, payload = classify_datagram(data)
        if kind != "query":
            return kind, payload, 0
        entry = (kind, payload, effective_udp_limit(payload.edns))
        if len(key) <= QUERY_BODY_LIMIT and b"\xc0" not in key:
            if len(self._decoded) >= QUERY_MEMO_LIMIT:
                self._decoded.clear()
            self._decoded[key] = entry
        return entry

    def _servfail(self, query):
        response = query.make_response_skeleton()
        response.set_rcode(RCode.SERVFAIL)
        return response

    # The per-datagram counters are fetched once and held: the registry
    # rebuilds the flat key on every ``counter()`` call.  Each binds on its
    # first use, so a series is listed only once traffic has touched it.

    @cached_property
    def _udp_datagrams(self) -> Counter:
        return self.metrics.counter("service.udp_datagrams")

    @cached_property
    def _udp_response_bytes(self) -> Counter:
        return self.metrics.counter("service.udp_response_bytes")

    @cached_property
    def _tcp_frames(self) -> Counter:
        return self.metrics.counter("service.tcp_frames")

    @cached_property
    def _tcp_response_bytes(self) -> Counter:
        return self.metrics.counter("service.tcp_response_bytes")

    def _answer(
        self, data: bytes, src: IPAddress, transport: Transport, query: Message,
        limit: int,
    ) -> Optional[bytes]:
        """Dispatch one query and encode what comes back within
        ``limit`` octets; ``None`` is the dispatcher's deliberate silence.
        A memoised ``query`` has an earlier datagram's id: the caller
        stamps ``data``'s.

        A response replayed from a server's plan cache is encoded once per
        plan: the octets sent for its first replay (under ``data``'s id)
        stay on the plan, and a later replay returns them.  Everything
        else the encoding depends on is in the plan key except the echoed
        question section — one question, or the server would not have
        replayed a plan — so the octets are reused only when the query
        spells its question octet for octet like the one they echo (which
        rules out a qname spelled with a compression pointer, another
        qclass, and octets whose question truncation dropped, in one
        compare).  Any other response is encoded in full.
        """
        try:
            response = self.dispatcher.dispatch(src, transport, query)
        except Exception:  # dispatch must never take the endpoint down
            label = transport.name
            logger.exception("dispatch failed for a %s query", label)
            self.metrics.counter(
                "service.dispatch_errors", transport=label.lower()
            ).inc()
            response = self._servfail(query)
        capture = self.world.capture
        if capture.rows_appended - self._capture_released >= LIVE_CAPTURE_WINDOW:
            self._capture_released = capture.rows_appended
            capture.release()
        if response is None:
            return None
        plan = response.plan
        if plan is not None:
            cached = plan.wire
            if cached is None:
                # First replay of this plan: what goes out now is kept.
                cached = plan.wire = data[:2] + response.to_wire(max_size=limit)[2:]
                plan.question_end = (
                    HEADER_LENGTH + len(query.questions[0].qname.to_wire()) + 4
                )
                return cached
            end = plan.question_end
            if data[HEADER_LENGTH:end] == cached[HEADER_LENGTH:end]:
                return cached
        return response.to_wire(max_size=limit)

    def handle_datagram(self, transport, data: bytes, addr) -> None:
        """Answer one UDP datagram (runs inline on the event loop)."""
        metrics = self.metrics
        self._udp_datagrams.inc()
        kind, payload, limit = self._decode(data)
        if kind == "ignore":
            metrics.counter("service.ignored", cause=payload).inc()
            return
        if kind == "formerr":
            metrics.counter("service.formerr").inc()
            transport.sendto(formerr_response(payload), addr)
            return
        src = self._peers.get(addr[0])
        if src is None:
            src = peer_address(addr)
            if src is None:  # exotic socket families: nothing to answer
                metrics.counter("service.ignored", cause="unparseable_peer").inc()
                return
            if len(self._peers) >= SOURCE_MEMO_LIMIT:
                self._peers.clear()
            self._peers[addr[0]] = src
        wire = self._answer(data, src, Transport.UDP, payload, limit)
        if wire is None:
            return  # deliberate silence (RRL / fault / all upstreams down)
        self._udp_response_bytes.inc(len(wire))
        transport.sendto(data[:2] + wire[2:], addr)

    def handle_stream_query(
        self, frame: bytes, src: Optional[IPAddress]
    ) -> Optional[bytes]:
        """Answer one TCP-framed query; ``None`` poisons the connection."""
        metrics = self.metrics
        self._tcp_frames.inc()
        kind, payload, _ = self._decode(frame)
        if kind == "ignore":
            metrics.counter("service.ignored", cause=payload).inc()
            return None
        if kind == "formerr":
            metrics.counter("service.formerr").inc()
            return formerr_response(payload)
        if src is None:  # pragma: no cover - exotic socket families only
            metrics.counter("service.ignored", cause="unparseable_peer").inc()
            return None
        # TCP dispatch degrades to SERVFAIL rather than silence.
        wire = self._answer(frame, src, Transport.TCP, payload, TCP_MAX_SIZE)
        self._tcp_response_bytes.inc(len(wire))
        return frame[:2] + wire[2:]

    def note_udp_error(self, exc) -> None:  # pragma: no cover - OS-dependent
        self.metrics.counter("service.udp_errors").inc()

    # -- connection tracking ----------------------------------------------

    async def _tcp_connected(self, reader, writer) -> None:
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        task.add_done_callback(self._conn_tasks.discard)
        self.metrics.counter("service.tcp_connections").inc()
        src = peer_address(writer.get_extra_info("peername"))
        await serve_tcp_connection(self, reader, writer, src)

    async def _metrics_connected(self, reader, writer) -> None:
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        task.add_done_callback(self._conn_tasks.discard)
        self.metrics.counter("service.metrics_scrapes").inc()
        await serve_metrics_connection(self, reader, writer)

    # -- telemetry ---------------------------------------------------------

    def snapshot(self) -> TelemetrySnapshot:
        """Roll service counters + live server/fault state up.

        Server and fault counters are *published* into a scratch registry on
        every call (publishing increments, so feeding the live registry
        repeatedly would double-count across scrapes).
        """
        roll = MetricsRegistry()
        roll.merge_snapshot(self.metrics.snapshot())
        if self.world is not None:
            publish_server_metrics(roll, self.world.server_sets)
            if self.world.network.faults is not None:
                self.world.network.faults.publish_metrics(roll)
        if self._started_at is not None:
            roll.gauge("service.uptime_seconds").set(
                self.clock.read() - self._started_at
            )
        # WallClock counts backwards-clamp events; surface them so time
        # anomalies during long runs are observable.
        roll.counter("clock.monotonic_clamps").inc(
            getattr(self.clock, "clamps", 0)
        )
        state, _ = self.health()
        roll.gauge("service.health_state", state=state).set(1)
        return roll.snapshot()

    def render_metrics(self) -> str:
        """The live ``/metrics`` body (Prometheus text format 0.0.4)."""
        return to_prometheus(self.snapshot())
