"""Query dispatch from a live socket to the simulated authority world.

The :class:`QueryDispatcher` is the synchronous core of the live service:
given a decoded query and its source address, it asks one server — the
vantage's first — and returns its response message.  Everything the
simulation wired into :meth:`~repro.server.AuthoritativeServer.handle_query`
stays live on this path: the response-plan cache and the capture rows.
Nothing between the socket and the server drops an exchange, so every
query is answered.

Dispatch runs inline on the event loop (sub-millisecond per query thanks to
the plan cache), so no locking is needed anywhere in the shared world.
"""

from __future__ import annotations

from typing import Optional

from ..capture import Transport
from ..dnscore import Message, Opcode, RCode
from ..netsim import Clock, IPAddress
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
    """Answers one decoded query from ``server``, stamped by ``clock``
    (a :class:`~repro.netsim.WallClock` in live mode), counting
    ``service.*`` series into ``metrics``."""

    def __init__(
        self,
        server: AuthoritativeServer,
        clock: Clock,
        metrics: Optional[MetricsRegistry] = None,
    ):
        self.server = server
        self._clock = clock
        self._metrics = metrics if metrics is not None else MetricsRegistry()
        self._queries = _HeldByTransport(self._metrics, "service.queries")
        self._answered = _HeldByTransport(self._metrics, "service.answered")

    def dispatch(self, src: IPAddress, transport: Transport, query: Message) -> Message:
        """Answer one query from ``src``: a query the server cannot take
        (another opcode, no question) locally, any other from the server,
        on one clock reading."""
        metrics = self._metrics
        transport_label = "tcp" if transport is Transport.TCP else "udp"
        self._queries[transport_label].inc()

        if query.flags.opcode is not Opcode.QUERY:
            metrics.counter("service.refused", cause="opcode").inc()
            return self._local_response(query, RCode.NOTIMP)
        if not query.questions:
            metrics.counter("service.refused", cause="no_question").inc()
            return self._local_response(query, RCode.FORMERR)

        response = self.server.handle_query(
            self._clock.read(), src, transport, query,
            tcp_rtt_ms=None if transport is Transport.UDP else LIVE_TCP_RTT_MS,
        )
        self._answered[transport_label].inc()
        return response

    @staticmethod
    def _local_response(query: Message, rcode: RCode) -> Message:
        response = query.make_response_skeleton()
        response.set_rcode(rcode)
        return response
