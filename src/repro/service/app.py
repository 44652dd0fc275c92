"""The live DNS frontend the ``serve_wire`` benchmark drives.

:class:`DnsService` builds the same deterministic authority world the
simulation uses (:func:`~repro.sim.driver.build_authority_world`) for
``nl-w2020``, binds one UDP endpoint on loopback, and answers DNS wire
format from the vantage's first server: :meth:`DnsService.handle_datagram`
for a datagram, :meth:`DnsService.handle_stream_query` for a TCP-framed
message.  Time comes from a :class:`~repro.netsim.WallClock` unless the
caller injects a clock; the response-plan cache and the capture tap run
live.
"""

from __future__ import annotations

import asyncio
import logging
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Optional, Tuple

from ..capture import Transport
from ..dnscore import Message, RCode
from ..dnscore.edns import effective_udp_limit
from ..dnscore.message import HEADER_LENGTH
from ..netsim import Clock, IPAddress, WallClock
from ..server import TCP_MAX_SIZE
from ..sim.driver import (
    AuthorityWorld,
    build_authority_world,
    publish_server_metrics,
)
from ..telemetry import Counter, MetricsRegistry, TelemetrySnapshot
from ..workload import dataset
from .dispatch import QueryDispatcher
from .endpoints import (
    UdpEndpoint,
    classify_datagram,
    formerr_response,
    peer_address,
)

logger = logging.getLogger("repro.service")

#: The one world the service serves, the address it binds and the seed
#: its world is built from.
DATASET_ID = "nl-w2020"
HOST = "127.0.0.1"
SEED = 20201027

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


@dataclass
class ServiceConfig:
    """The UDP port to bind (0 = ephemeral).

    ``metrics_port`` and ``watchdog_interval_s`` name a metrics listener
    and an endpoint watchdog that were removed; they accept only "off"
    (``None`` and 0), the values the frozen benchmark still passes."""

    udp_port: int = 0
    metrics_port: Optional[int] = None
    watchdog_interval_s: float = 0.0

    def __post_init__(self):
        if self.metrics_port is not None:
            raise ValueError(
                "the metrics listener was removed (snapshot() returns the "
                "counters); metrics_port must be None"
            )
        if self.watchdog_interval_s:
            raise ValueError(
                "the endpoint watchdog was removed; watchdog_interval_s must be 0"
            )


class DnsService:
    """A startable live DNS frontend over one UDP socket."""

    def __init__(self, config: ServiceConfig, clock: Optional[Clock] = None):
        self.config = config
        self.clock: Clock = WallClock() if clock is None else clock
        self.metrics = MetricsRegistry()
        self.world: Optional[AuthorityWorld] = None
        self.dispatcher: Optional[QueryDispatcher] = None
        self._udp_transport = None
        #: ``capture.rows_appended`` when the live capture last released.
        self._capture_released = 0
        #: Peer host text → parsed address.
        self._peers: Dict[str, IPAddress] = {}
        #: Query octets after the message id → ("query", Message, UDP limit).
        self._decoded: Dict[bytes, Tuple[str, Message, int]] = {}

    async def start(self) -> None:
        """Build the world and bind the UDP endpoint."""
        descriptor = dataset(DATASET_ID)
        self.world = build_authority_world(descriptor, SEED, self.metrics)
        self.dispatcher = QueryDispatcher(
            self.world.server_sets[descriptor.vantage].servers[0],
            self.clock,
            self.metrics,
        )
        loop = asyncio.get_running_loop()
        self._udp_transport, _ = await loop.create_datagram_endpoint(
            lambda: UdpEndpoint(self), local_addr=(HOST, self.config.udp_port)
        )

    async def stop(self) -> None:
        """Close the UDP endpoint."""
        self._udp_transport.close()

    @property
    def udp_port(self) -> int:
        return self._udp_transport.get_extra_info("sockname")[1]

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
    ) -> bytes:
        """Dispatch one query and encode what comes back within ``limit``
        octets.  A memoised ``query`` has an earlier datagram's id: the
        caller stamps ``data``'s.

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
            response = query.make_response_skeleton()
            response.set_rcode(RCode.SERVFAIL)
        capture = self.world.capture
        if capture.rows_appended - self._capture_released >= LIVE_CAPTURE_WINDOW:
            self._capture_released = capture.rows_appended
            capture.release()
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
        self._udp_response_bytes.inc(len(wire))
        transport.sendto(data[:2] + wire[2:], addr)

    def handle_stream_query(self, frame: bytes, src: IPAddress) -> Optional[bytes]:
        """Answer one TCP-framed query from ``src``; ``None`` for a frame
        that gets no answer (short, or a response)."""
        metrics = self.metrics
        self._tcp_frames.inc()
        kind, payload, _ = self._decode(frame)
        if kind == "ignore":
            metrics.counter("service.ignored", cause=payload).inc()
            return None
        if kind == "formerr":
            metrics.counter("service.formerr").inc()
            return formerr_response(payload)
        wire = self._answer(frame, src, Transport.TCP, payload, TCP_MAX_SIZE)
        self._tcp_response_bytes.inc(len(wire))
        return frame[:2] + wire[2:]

    # -- telemetry ---------------------------------------------------------

    def snapshot(self) -> TelemetrySnapshot:
        """The service counters with the live servers' counters rolled up.

        Server counters are *published* into a scratch registry on every
        call (publishing increments, so feeding the live registry
        repeatedly would double-count across calls).
        """
        roll = MetricsRegistry()
        roll.merge_snapshot(self.metrics.snapshot())
        if self.world is not None:
            publish_server_metrics(roll, self.world.server_sets)
        return roll.snapshot()
