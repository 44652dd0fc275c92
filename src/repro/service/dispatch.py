"""Query routing from a live socket to the simulated authority world.

The :class:`QueryDispatcher` is the synchronous core of ``repro serve``:
given a decoded query and its source address, it runs the route the
topology's client-group → tier → upstream chain gives the query and
produces the response message (or ``None`` for deliberate silence).
Everything the simulation wired into
:meth:`~repro.server.AuthoritativeServer.handle_query` stays live on this
path — RRL verdicts, the response-plan cache, capture rows, tracing taps —
and an attached :class:`~repro.faults.FaultInjector` drops live UDP
exchanges exactly as it drops simulated ones.

Every query runs under one resilience policy
(:mod:`~repro.service.resilience`): a :data:`DEADLINE_MS` budget, up to
``1 + RETRANSMITS`` attempts per server in route order, each silent one
charged its :data:`ATTEMPT_CHARGES_MS` entry against the budget, and a
circuit breaker per upstream.

The topology is static once validated, so the dispatcher compiles it when
it is built: every route a query can take is one flat tuple of steps
(``tier:`` hops expanded, servers resolved), keyed by entry tier and the
deepest rule suffix the qname falls under.  Per query what is left is one
suffix test per distinct suffix length, one table lookup and one clock
read; the UDP endpoint hands in the entry tier it memoised for the peer.

Dispatch runs inline on the event loop (sub-millisecond per query thanks to
the plan cache), so no locking is needed anywhere in the shared world.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple

from ..capture import Transport
from ..dnscore import Flags, Message, Name, Opcode, RCode
from ..netsim import Clock, IPAddress
from ..resolver import AuthorityNetwork
from ..telemetry import Counter, MetricsRegistry
from .resilience import (
    ATTEMPT_CHARGES_MS,
    BREAKER_COOLDOWN_S,
    DEADLINE_MS,
    BreakerBoard,
    Deadline,
)
from .topology import POLICY_SINKS, ServiceTopology

#: Handshake RTT recorded for live TCP exchanges.  The capture schema wants
#: the RTT a passive pcap tap would infer from SYN/SYN-ACK timing; on the
#: loopback paths this mode serves, that is effectively zero.
LIVE_TCP_RTT_MS = 0.0

#: Step kinds of a compiled route: ``(AUTH, servers)``, ``(SINK, sink)``
#: with ``sink`` one of :data:`POLICY_SINKS`, ``(RESOLVER, None)``.
AUTH, SINK, RESOLVER = "auth", "sink", "resolver"

_SINK_RCODES = {"refused": RCode.REFUSED, "nxdomain": RCode.NXDOMAIN}


class _DispatchState:
    """Per-query bookkeeping threaded through the steps of a route.

    A plain class rather than a dataclass: profilers file every generated
    dataclass ``__init__`` under one ``<string>`` key, which would hide this
    one, built once per query, among the others.
    """

    __slots__ = ("deadline", "deadline_hit", "breaker_skips", "silent_attempts")

    def __init__(self, deadline: Deadline):
        self.deadline = deadline
        self.deadline_hit = False
        self.breaker_skips = 0
        self.silent_attempts = 0


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
    breaker_cooldown_s:
        How long an open circuit breaker waits before its probe (the one
        resilience value callers set; the rest are
        :mod:`~repro.service.resilience` constants).
    """

    def __init__(
        self,
        topology: ServiceTopology,
        server_sets: dict,
        clock: Clock,
        network: Optional[AuthorityNetwork] = None,
        resolver=None,
        metrics: Optional[MetricsRegistry] = None,
        breaker_cooldown_s: float = BREAKER_COOLDOWN_S,
    ):
        topology.validate(
            {key: [server.server_id for server in servers]
             for key, servers in server_sets.items()},
            resolver_available=resolver is not None,
        )
        self._topology = topology
        self._server_sets = server_sets
        self._clock = clock
        self._network = network
        self._resolver = resolver
        self._metrics = metrics if metrics is not None else MetricsRegistry()
        self._queries = _HeldByTransport(self._metrics, "service.queries")
        self._answered = _HeldByTransport(self._metrics, "service.answered")
        self.breakers = BreakerBoard(breaker_cooldown_s)
        #: Casefolded rule suffixes, and their distinct lengths, longest
        #: first: the tails of a qname worth testing.
        self._suffixes = {
            rule.suffix.key for tier in topology.tiers for rule in tier.rules
        }
        self._suffix_lengths = sorted(
            {len(key) for key in self._suffixes}, reverse=True
        )
        self.routes = self._compile()

    # -- the compiled topology ---------------------------------------------

    def _compile(self) -> Dict[Tuple[str, Optional[tuple]], Tuple[tuple, ...]]:
        """Every route a query can take: ``(entry tier, deepest matching
        rule suffix or None)`` → its steps.

        Which rule each tier applies depends only on which rule suffixes
        are ancestors of the qname, and those are exactly the suffixes that
        are tails of the deepest one; so one route per entry tier and
        suffix (and one for a qname under none) covers every query.
        """
        topology = self._topology
        entries = {topology.default_tier, *(group.tier for group in topology.groups)}
        routes = {}
        for deepest in (None, *self._suffixes):
            matched = set() if deepest is None else {
                key for key in self._suffixes
                if deepest[len(deepest) - len(key):] == key
            }
            for entry in entries:
                routes[entry, deepest] = tuple(
                    self._step(spec) for spec in self._flatten(entry, matched)
                )
        return routes

    def _flatten(self, tier_name: str, matched: set) -> Iterable[str]:
        """The upstream specs a query whose qname falls under exactly the
        ``matched`` suffixes walks from ``tier_name``, ``tier:`` hops
        expanded in place (validation bounds their depth and how many
        upstreams they expand to)."""
        tier = self._topology.tier(tier_name)
        chain = next(
            ((rule.upstream,) for rule in tier.rules if rule.suffix.key in matched),
            tier.upstreams,
        )
        for spec in chain:
            if spec.startswith("tier:"):
                yield from self._flatten(spec[5:], matched)
            else:
                yield spec

    def _step(self, spec: str) -> tuple:
        """One upstream spec as the step it compiles to."""
        if spec in POLICY_SINKS:
            return (SINK, spec)
        if spec == "resolver":
            return (RESOLVER, None)
        # Validated topology: anything else is auth:<key>[/<server_id>].
        key, _, server_id = spec[5:].partition("/")
        server_set = self._server_sets[key]
        servers = (server_set.by_id(server_id),) if server_id else tuple(server_set)
        return (AUTH, servers)

    def entry_tier(self, src: IPAddress) -> str:
        """The name of the tier queries from ``src`` enter at."""
        return self._topology.tier_for(src).name

    def route_for(self, tier: str, qname: Name) -> Tuple[tuple, ...]:
        """The compiled steps a query for ``qname`` entering at ``tier``
        runs."""
        key = qname.key
        labels = qname.label_count
        suffixes = self._suffixes
        for length in self._suffix_lengths:
            if length <= labels and key[labels - length:] in suffixes:
                return self.routes[tier, key[labels - length:]]
        return self.routes[tier, None]

    # -- the entry point ---------------------------------------------------

    def dispatch(
        self, src: IPAddress, transport: Transport, query: Message,
        tier: Optional[str] = None,
    ) -> Optional[Message]:
        """Answer one query from ``src``, entering at ``tier`` (looked up
        with :meth:`entry_tier` when the caller has not memoised it).

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
        starts the deadline budget and feeds the breakers until an upstream
        stays silent.
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

        if tier is None:
            tier = self.entry_tier(src)
        now = self._clock.read()
        state = _DispatchState(Deadline(DEADLINE_MS, now))
        response = None
        for kind, target in self.route_for(tier, query.questions[0].qname):
            if kind is AUTH:
                response = self._via_authority(target, src, transport, query, now, state)
            elif kind is SINK:
                metrics.counter("service.policy_sink", sink=target).inc()
                response = self._local_response(query, _SINK_RCODES[target])
            else:
                response = self._via_resolver(query, now)
            if response is not None or state.deadline_hit:
                break
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

    # -- the steps ---------------------------------------------------------

    def _via_authority(
        self, servers, src, transport, query, now, state
    ) -> Optional[Message]:
        """Try ``servers`` in order, each up to ``1 + RETRANSMITS`` times.

        ``now`` is the dispatch's clock reading.  It stands in for the
        clock until an attempt of this query goes unanswered; from then
        on every breaker verdict and deadline check reads the clock again.
        """
        faults = self._network.faults if self._network is not None else None
        qname_key = (
            query.questions[0].qname.to_text().encode() if faults is not None else b""
        )
        deadline = state.deadline
        breakers = self.breakers
        read = self._clock.read
        metrics = self._metrics
        tcp_rtt_ms = LIVE_TCP_RTT_MS if transport is Transport.TCP else None
        for server in servers:
            breaker = breakers.get(server.server_id)
            if not breaker.allow(read() if state.silent_attempts else now):
                state.breaker_skips += 1
                breakers.skipped += 1
                continue
            for attempt, charge_ms in enumerate(ATTEMPT_CHARGES_MS):
                if deadline.exhausted(read() if state.silent_attempts else now):
                    state.deadline_hit = True
                    return None
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
                        breaker.record(True, read() if state.silent_attempts else now)
                        return response
                    # None = RRL drop or offline server: silence, same as a
                    # lost packet from where the forwarder sits.
                    metrics.counter(
                        "service.upstream_silent", server=server.server_id
                    ).inc()
                state.silent_attempts += 1
                deadline.charge_ms(charge_ms)
            # All attempts on this server went unanswered.
            breaker.record(False, read())
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
