"""Query routing from a live socket to the simulated authority world.

The :class:`QueryDispatcher` is the synchronous core of ``repro serve``:
given a decoded query and its source address, it walks the topology's
client-group → tier → upstream chain and produces the response message (or
``None`` for deliberate silence).  Everything the simulation wired into
:meth:`~repro.server.AuthoritativeServer.handle_query` stays live on this
path — RRL verdicts, the response-plan cache, capture rows, tracing taps —
and an attached :class:`~repro.faults.FaultInjector` drops live UDP
exchanges exactly as it drops simulated ones.

Dispatch runs inline on the event loop (sub-millisecond per query thanks to
the plan cache), so no locking is needed anywhere in the shared world.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..capture import Transport
from ..dnscore import Flags, Message, Opcode, RCode
from ..netsim import Clock, IPAddress
from ..resolver import AuthorityNetwork
from ..server import ServerSet
from ..telemetry import Counter, MetricsRegistry
from .resilience import BreakerBoard, Deadline, ResilienceConfig
from .topology import MAX_TIER_HOPS, POLICY_SINKS, ServiceTopology

#: Handshake RTT recorded for live TCP exchanges.  The capture schema wants
#: the RTT a passive pcap tap would infer from SYN/SYN-ACK timing; on the
#: loopback paths this mode serves, that is effectively zero.
LIVE_TCP_RTT_MS = 0.0


class DispatchError(Exception):
    """Internal dispatch failure (never raised for bad client input)."""


@dataclass
class _DispatchState:
    """Per-query bookkeeping threaded through the chain walk."""

    deadline: Optional[Deadline] = None
    deadline_hit: bool = False
    breaker_skips: int = 0
    silent_attempts: int = field(default=0)


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
    """Routes one decoded query through the forwarding topology.

    Parameters
    ----------
    topology:
        The validated :class:`~repro.service.topology.ServiceTopology`.
    server_sets:
        Authority sets by key (the driver's ``server_sets`` mapping).
    clock:
        Time source stamped onto every exchange (a
        :class:`~repro.netsim.WallClock` in live mode).
    network:
        The :class:`~repro.resolver.AuthorityNetwork`; carries the optional
        fault injector and backs the resolver frontend.
    resolver:
        Optional recursive frontend (a
        :class:`~repro.resolver.SimResolver`).
    metrics:
        Registry receiving ``service.*`` counters.
    resilience:
        Optional :class:`~repro.service.resilience.ResilienceConfig`
        enabling per-upstream circuit breakers, retransmit/backoff budget
        accounting, and graceful SERVFAIL on deadline exhaustion.  ``None``
        preserves the exact PR 7 semantics (single attempt per server,
        silence on an exhausted UDP chain).
    """

    def __init__(
        self,
        topology: ServiceTopology,
        server_sets: dict,
        clock: Clock,
        network: Optional[AuthorityNetwork] = None,
        resolver=None,
        metrics: Optional[MetricsRegistry] = None,
        resilience: Optional[ResilienceConfig] = None,
    ):
        topology.validate(server_sets.keys(), resolver_available=resolver is not None)
        self._topology = topology
        self._server_sets = server_sets
        self._clock = clock
        self._network = network
        self._resolver = resolver
        self._metrics = metrics if metrics is not None else MetricsRegistry()
        self._queries = _HeldByTransport(self._metrics, "service.queries")
        self._answered = _HeldByTransport(self._metrics, "service.answered")
        self._resilience = resilience
        self.breakers: Optional[BreakerBoard] = (
            BreakerBoard(resilience)
            if resilience is not None and resilience.breakers
            else None
        )

    # -- the entry point ---------------------------------------------------

    def dispatch(
        self,
        src: IPAddress,
        transport: Transport,
        query: Message,
        deadline: Optional[Deadline] = None,
    ) -> Optional[Message]:
        """Answer one query.

        Returns the response message, or ``None`` when the query ends in
        deliberate silence (RRL drop, injected fault, or every upstream
        down) — the UDP endpoint sends nothing and the client times out,
        just like against a real rate-limited authority.  TCP callers never
        get silence: an exhausted chain degrades to SERVFAIL because a
        connected client expects *some* bytes back.

        With a resilience config attached two graceful-degradation rules
        override UDP silence: a query whose deadline budget runs out mid
        chain answers SERVFAIL immediately (the client's stub would have
        given up anyway — tell it now), and a chain exhausted because open
        circuit breakers skipped every upstream answers SERVFAIL in O(1)
        (the blackhole is known; making the client wait teaches nothing).
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

        resilience = self._resilience
        if (
            deadline is None
            and resilience is not None
            and resilience.deadline_ms is not None
        ):
            deadline = Deadline(resilience.deadline_ms, self._clock)
        state = _DispatchState(deadline=deadline)

        timestamp = self._clock.read()
        tier = self._topology.tier_for(src)
        response = self._walk_tier(
            tier.name, src, transport, query, timestamp, hops=0, state=state
        )
        if response is not None:
            self._answered[transport_label].inc()
            return response
        if state.deadline_hit:
            metrics.counter(
                "service.deadline.exhausted", transport=transport_label
            ).inc()
            return self._local_response(query, RCode.SERVFAIL)
        if state.breaker_skips and not state.silent_attempts:
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

    # -- chain walking -----------------------------------------------------

    def _walk_tier(
        self,
        tier_name: str,
        src: IPAddress,
        transport: Transport,
        query: Message,
        timestamp: float,
        hops: int,
        state: _DispatchState,
    ) -> Optional[Message]:
        if hops >= MAX_TIER_HOPS:
            # validate() rejects static cycles; the depth bound also stops
            # pathological hand-built chains.
            self._metrics.counter("service.tier_hop_limit").inc()
            return None
        tier = self._topology.tier(tier_name)
        qname = query.question.qname
        for upstream in tier.chain_for(qname):
            if state.deadline_hit:
                return None
            response = self._try_upstream(
                upstream, src, transport, query, timestamp, hops, state
            )
            if response is not None:
                return response
        return None

    def _try_upstream(
        self,
        spec: str,
        src: IPAddress,
        transport: Transport,
        query: Message,
        timestamp: float,
        hops: int,
        state: _DispatchState,
    ) -> Optional[Message]:
        if spec in POLICY_SINKS:
            self._metrics.counter("service.policy_sink", sink=spec).inc()
            rcode = RCode.REFUSED if spec == "refused" else RCode.NXDOMAIN
            return self._local_response(query, rcode)
        if spec == "resolver":
            return self._via_resolver(query, timestamp)
        if spec.startswith("tier:"):
            return self._walk_tier(
                spec[5:], src, transport, query, timestamp, hops + 1, state
            )
        # Validated topology: anything else is auth:<key>[/<server_id>].
        key, _, server_id = spec[5:].partition("/")
        server_set: ServerSet = self._server_sets[key]
        servers = [server_set.by_id(server_id)] if server_id else server_set.servers
        return self._via_authority(servers, src, transport, query, timestamp, state)

    def _via_authority(
        self, servers, src, transport, query, timestamp, state
    ) -> Optional[Message]:
        faults = self._network.faults if self._network is not None else None
        question = query.question
        qname_key = question.qname.to_text().encode() if faults is not None else b""
        resilience = self._resilience
        deadline = state.deadline
        attempts_per_server = 1 + (
            resilience.retransmits if resilience is not None else 0
        )
        metrics = self._metrics
        for server in servers:
            breaker = (
                self.breakers.get(server.server_id)
                if self.breakers is not None
                else None
            )
            if breaker is not None and not breaker.allow(self._clock.read()):
                state.breaker_skips += 1
                self.breakers.skipped += 1
                continue
            for attempt in range(attempts_per_server):
                if deadline is not None and deadline.exhausted():
                    state.deadline_hit = True
                    return None
                # Retries happen later in virtual time: the charged waits
                # shift the timestamp, so hash-derived loss verdicts re-roll
                # exactly as the simulated resolver's retransmits do.
                attempt_ts = timestamp + (
                    deadline.virtual_offset_s() if deadline is not None else 0.0
                )
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
                        attempt_ts,
                        src,
                        transport,
                        query,
                        tcp_rtt_ms=(
                            LIVE_TCP_RTT_MS if transport is Transport.TCP else None
                        ),
                    )
                    if response is not None:
                        if breaker is not None:
                            breaker.record(True, self._clock.read())
                        return response
                    # None = RRL drop or offline server: silence, same as a
                    # lost packet from where the forwarder sits.
                    metrics.counter(
                        "service.upstream_silent", server=server.server_id
                    ).inc()
                state.silent_attempts += 1
                if deadline is not None and resilience is not None:
                    charge = resilience.attempt_timeout_ms
                    if resilience.hedge and attempt > 0:
                        # A hedged retry overlaps the previous wait, so only
                        # half a fresh attempt timeout is actually spent.
                        charge *= 0.5
                        metrics.counter("service.retry.hedged").inc()
                    deadline.charge_ms(charge + resilience.backoff_ms(attempt))
            # All attempts on this server went unanswered.
            if breaker is not None:
                breaker.record(False, self._clock.read())
        return None

    def _via_resolver(self, query: Message, timestamp: float) -> Optional[Message]:
        question = query.question
        rcode = self._resolver.resolve(
            self._network, timestamp, question.qname, question.qtype
        )
        self._metrics.counter("service.resolved", rcode=rcode.name).inc()
        # The engine reports the client-visible RCODE; the frontend wraps
        # it in a minimal recursive answer (RA set, empty sections) — the
        # authoritative data itself was exchanged, and captured, on the
        # resolver's back side.
        response = query.make_response_skeleton()
        response.flags = Flags(
            qr=True,
            opcode=query.flags.opcode,
            rd=query.flags.rd,
            ra=True,
            rcode=rcode,
        )
        return response

    @staticmethod
    def _local_response(query: Message, rcode: RCode) -> Message:
        response = query.make_response_skeleton()
        response.set_rcode(rcode)
        return response
