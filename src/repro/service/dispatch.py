"""Query dispatch from a live socket to the simulated authority world.

The :class:`QueryDispatcher` is the synchronous core of ``repro serve``:
given a decoded query and its source address, it walks the vantage's one
server chain — the vantage's own servers in declared order, then the
root's (``root-2020`` serves the root alone) — and produces the response
message (or ``None`` for deliberate silence).  Everything the simulation
wired into :meth:`~repro.server.AuthoritativeServer.handle_query` stays
live on this path — RRL verdicts, the response-plan cache, capture rows
— and an attached :class:`~repro.faults.FaultInjector` drops
live UDP exchanges exactly as it drops simulated ones.

A query tries each server of the chain once, in order, the way the
authority it stands for would see one exchange: when an exchange is lost
it is the *resolver* that retries, not the server.

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
    """

    def __init__(
        self,
        server_sets: Mapping[str, Iterable[AuthoritativeServer]],
        clock: Clock,
        network: Optional[AuthorityNetwork] = None,
        metrics: Optional[MetricsRegistry] = None,
    ):
        self.chain = tuple(
            server for servers in server_sets.values() for server in servers
        )
        self._clock = clock
        self._network = network
        self._metrics = metrics if metrics is not None else MetricsRegistry()
        self._queries = _HeldByTransport(self._metrics, "service.queries")
        self._answered = _HeldByTransport(self._metrics, "service.answered")

    def dispatch(
        self, src: IPAddress, transport: Transport, query: Message
    ) -> Optional[Message]:
        """Answer one query from ``src``: try each server of the chain
        once, in order, and return the first response.

        A server is passed over when an attached fault plan drops the UDP
        exchange (``service.fault_drops``) or when it stays silent itself —
        an RRL drop or an offline server (``service.upstream_silent``).
        Returns ``None`` when every server was passed over: the UDP
        endpoint sends nothing and the client times out, just like against
        a real rate-limited authority.  TCP callers never get silence: an
        exhausted chain answers SERVFAIL because a connected client expects
        *some* bytes back.

        The clock is read once, here; the reading stamps every exchange of
        this query.
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
        udp = transport is Transport.UDP
        # Fault plans drop UDP exchanges only.
        faults = self._network.faults if udp and self._network is not None else None
        tcp_rtt_ms = None if udp else LIVE_TCP_RTT_MS
        qname_key = (
            query.questions[0].qname.to_text().encode() if faults is not None else b""
        )
        for server in self.chain:
            if faults is not None:
                verdict = faults.udp_fate(server.server_id, src.family, now, qname_key)
                if verdict.dropped:
                    metrics.counter(
                        "service.fault_drops", cause=verdict.cause or "loss"
                    ).inc()
                    continue
            response = server.handle_query(
                now, src, transport, query, tcp_rtt_ms=tcp_rtt_ms
            )
            if response is not None:
                self._answered[transport_label].inc()
                return response
            # None = RRL drop or offline server: silence, same as a lost
            # packet.
            metrics.counter("service.upstream_silent", server=server.server_id).inc()
        metrics.counter("service.unanswered", transport=transport_label).inc()
        return None if udp else self._local_response(query, RCode.SERVFAIL)

    @staticmethod
    def _local_response(query: Message, rcode: RCode) -> Message:
        response = query.make_response_skeleton()
        response.set_rcode(rcode)
        return response
