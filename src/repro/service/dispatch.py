"""Query dispatch from a live socket to the simulated authority world.

The :class:`QueryDispatcher` is the synchronous core of ``repro serve``:
given a decoded query and its source address, it walks the vantage's one
server chain — the vantage's own servers in declared order, then the
root's (``root-2020`` serves the root alone) — and produces the response
message (or ``None`` for deliberate silence).  Everything the simulation
wired into :meth:`~repro.server.AuthoritativeServer.handle_query` stays
live on this path — RRL verdicts, the response-plan cache, capture rows,
tracing taps — and an attached :class:`~repro.faults.FaultInjector` drops
live UDP exchanges exactly as it drops simulated ones.

Every query runs under one resilience policy
(:mod:`~repro.service.resilience`): a :data:`DEADLINE_MS` budget, up to
``1 + RETRANSMITS`` attempts per server in chain order, each silent one
charged its :data:`ATTEMPT_CHARGES_MS` entry against the budget, and a
circuit breaker per upstream.

Dispatch runs inline on the event loop (sub-millisecond per query thanks to
the plan cache), so no locking is needed anywhere in the shared world.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional

from ..capture import Transport
from ..dnscore import Message, Opcode, RCode
from ..netsim import Clock, IPAddress
from ..resolver import AuthorityNetwork
from ..server import AuthoritativeServer
from ..telemetry import Counter, MetricsRegistry
from .resilience import (
    ATTEMPT_CHARGES_MS,
    BREAKER_COOLDOWN_S,
    DEADLINE_MS,
    BreakerBoard,
    Deadline,
)

#: Handshake RTT recorded for live TCP exchanges.  The capture schema wants
#: the RTT a passive pcap tap would infer from SYN/SYN-ACK timing; on the
#: loopback paths this mode serves, that is effectively zero.
LIVE_TCP_RTT_MS = 0.0


class _HeldByTransport(dict):
    """One counter family's members by ``transport`` label, each fetched
    from the registry the first time it is counted and held from then on
    (the registry rebuilds the flat key on every ``counter()`` call; a
    series must not be listed before traffic touches it)."""

    def __init__(self, metrics: MetricsRegistry, name: str):
        super().__init__()
        self._metrics = metrics
        self._name = name

    def __missing__(self, transport_label: str) -> Counter:
        counter = self[transport_label] = self._metrics.counter(
            self._name, transport=transport_label
        )
        return counter


class QueryDispatcher:
    """Answers one decoded query from the vantage's server chain.

    Parameters
    ----------
    server_sets:
        Authority sets by key, in chain order (the driver's
        ``server_sets`` mapping lists the vantage's set, then the root's):
        every query walks their servers in that order.
    clock:
        Time source stamped onto every exchange (a
        :class:`~repro.netsim.WallClock` in live mode).
    network:
        The :class:`~repro.resolver.AuthorityNetwork`; carries the optional
        fault injector.
    metrics:
        Registry receiving ``service.*`` counters.
    breaker_cooldown_s:
        How long an open circuit breaker waits before its probe (the one
        resilience value callers set; the rest are
        :mod:`~repro.service.resilience` constants).
    """

    def __init__(
        self,
        server_sets: Mapping[str, Iterable[AuthoritativeServer]],
        clock: Clock,
        network: Optional[AuthorityNetwork] = None,
        metrics: Optional[MetricsRegistry] = None,
        breaker_cooldown_s: float = BREAKER_COOLDOWN_S,
    ):
        self.chain = tuple(
            server for servers in server_sets.values() for server in servers
        )
        self._clock = clock
        self._network = network
        self._metrics = metrics if metrics is not None else MetricsRegistry()
        self._queries = _HeldByTransport(self._metrics, "service.queries")
        self._answered = _HeldByTransport(self._metrics, "service.answered")
        self.breakers = BreakerBoard(breaker_cooldown_s)

    def dispatch(
        self, src: IPAddress, transport: Transport, query: Message
    ) -> Optional[Message]:
        """Answer one query from ``src``: try the chain's servers in order,
        each up to ``1 + RETRANSMITS`` times.

        Returns the response message, or ``None`` when the query ends in
        deliberate silence (RRL drop, injected fault, or every upstream
        down) — the UDP endpoint sends nothing and the client times out,
        just like against a real rate-limited authority.  TCP callers never
        get silence: an exhausted chain degrades to SERVFAIL because a
        connected client expects *some* bytes back.

        Two graceful-degradation rules override UDP silence: a query whose
        deadline budget runs out mid chain answers SERVFAIL immediately (the
        client's stub would have given up anyway — tell it now), and a chain
        exhausted because open circuit breakers skipped every upstream
        answers SERVFAIL in O(1) (the blackhole is known; making the client
        wait teaches nothing).

        The clock is read once, here: the reading stamps every exchange,
        starts the deadline budget and feeds the breakers until an attempt
        of this query goes unanswered; from then on every breaker verdict
        and deadline check reads the clock again.
        """
        metrics = self._metrics
        transport_label = "tcp" if transport is Transport.TCP else "udp"
        self._queries[transport_label].inc()

        if query.flags.opcode is not Opcode.QUERY:
            metrics.counter("service.refused", cause="opcode").inc()
            return self._local_response(query, RCode.NOTIMP)
        if not query.questions:
            metrics.counter("service.refused", cause="no_question").inc()
            return self._local_response(query, RCode.FORMERR)

        now = self._clock.read()
        deadline = Deadline(DEADLINE_MS, now)
        breaker_skips = silent_attempts = 0
        faults = self._network.faults if self._network is not None else None
        qname_key = (
            query.questions[0].qname.to_text().encode() if faults is not None else b""
        )
        breakers = self.breakers
        read = self._clock.read
        tcp_rtt_ms = LIVE_TCP_RTT_MS if transport is Transport.TCP else None
        for server in self.chain:
            breaker = breakers.get(server.server_id)
            if not breaker.allow(read() if silent_attempts else now):
                breaker_skips += 1
                breakers.skipped += 1
                continue
            for attempt, charge_ms in enumerate(ATTEMPT_CHARGES_MS):
                if deadline.exhausted(read() if silent_attempts else now):
                    metrics.counter(
                        "service.deadline.exhausted", transport=transport_label
                    ).inc()
                    return self._local_response(query, RCode.SERVFAIL)
                # Retries happen later in virtual time: the charged waits
                # shift the timestamp, so hash-derived loss verdicts re-roll
                # exactly as the simulated resolver's retransmits do.
                attempt_ts = now + deadline.virtual_offset_s()
                if attempt > 0:
                    metrics.counter("service.retry.retransmits").inc()
                silent = False
                if faults is not None and transport is Transport.UDP:
                    verdict = faults.udp_fate(
                        server.server_id, src.family, attempt_ts, qname_key
                    )
                    if verdict.dropped:
                        metrics.counter(
                            "service.fault_drops", cause=verdict.cause or "loss"
                        ).inc()
                        silent = True
                if not silent:
                    response = server.handle_query(
                        attempt_ts, src, transport, query, tcp_rtt_ms=tcp_rtt_ms
                    )
                    if response is not None:
                        breaker.record(True, read() if silent_attempts else now)
                        self._answered[transport_label].inc()
                        return response
                    # None = RRL drop or offline server: silence, same as a
                    # lost packet.
                    metrics.counter(
                        "service.upstream_silent", server=server.server_id
                    ).inc()
                silent_attempts += 1
                deadline.charge_ms(charge_ms)
            # All attempts on this server went unanswered.
            breaker.record(False, read())
        if breaker_skips and not silent_attempts:
            # Every viable upstream was short-circuited by an open breaker:
            # fail fast and gracefully instead of replaying the blackout.
            metrics.counter(
                "service.breaker.short_circuit", transport=transport_label
            ).inc()
            return self._local_response(query, RCode.SERVFAIL)
        metrics.counter("service.unanswered", transport=transport_label).inc()
        if transport is Transport.TCP:
            return self._local_response(query, RCode.SERVFAIL)
        return None

    @staticmethod
    def _local_response(query: Message, rcode: RCode) -> Message:
        response = query.make_response_skeleton()
        response.set_rcode(rcode)
        return response
