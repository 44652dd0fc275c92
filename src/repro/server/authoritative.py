"""Authoritative DNS server simulation.

An :class:`AuthoritativeServer` wraps a :class:`~repro.zones.zone.Zone`,
answers :class:`~repro.dnscore.message.Message` queries with proper RCODE /
referral / truncation semantics, and taps every exchange into a
:class:`~repro.capture.store.CaptureStore` — the simulated equivalent of the
pcap collection the paper's vantage points ran.

A :class:`ServerSet` models a vantage point's NS set (e.g. `.nl`'s servers
"A" and "B"), each server possibly anycast across multiple sites.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace as dc_replace
from functools import lru_cache
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..capture import CaptureStore, QueryRecord, Transport, split_address
from ..config import plan_cache_enabled
from ..dnscore import Message, Name, Opcode, Question, RCode, RRType
from ..dnscore.edns import EdnsRecord, effective_udp_limit
from ..dnscore.names import MAX_NAME_LENGTH
from ..dnscore.rdata import ResourceRecord
from ..dnscore.message import HEADER_LENGTH, Flags
from ..netsim import Clock, IPAddress, LatencyModel, Site, nearest_site
from ..telemetry import tracing
from ..zones import LookupOutcome, LookupResult, Zone
from .rrl import RateLimiter, RRLConfig

#: Maximum TCP message size (2-octet length prefix bound).
TCP_MAX_SIZE = 65535

#: Distinct response plans retained per server before the cache is flushed
#: wholesale (epoch eviction — the plan population is zone-bounded, so a
#: flush only happens under adversarial key churn).
PLAN_CACHE_LIMIT = 65536

_NAN = math.nan

#: The OPT record a response carries — the server's own 4096-octet buffer,
#: echoing the query's DO bit (the index) — and its size on the wire.
_RESPONSE_EDNS = (
    EdnsRecord(udp_payload_size=4096, dnssec_ok=False),
    EdnsRecord(udp_payload_size=4096, dnssec_ok=True),
)
_OPT_SIZE = len(_RESPONSE_EDNS[0].to_wire())

#: Octets of a question after its name (QTYPE + QCLASS).
_QUESTION_FIXED = 4

#: A probe encoding longer than this sits close enough to the 0x4000
#: compression-pointer limit that a longer question could push one of its
#: names past it and change what later names compress against.
_SHIFT_SAFE_SIZE = 0x4000 - MAX_NAME_LENGTH - 1


@lru_cache(maxsize=256)
def _response_flags(opcode: Opcode, rd: bool, aa: bool, rcode: RCode) -> Flags:
    """Interned header flags of a built response (a dozen combinations)."""
    return Flags(qr=True, opcode=opcode, aa=aa, rd=rd, rcode=rcode)


def _calibrate(result: LookupResult) -> Tuple[Optional[int], FrozenSet[bytes]]:
    """Measure an anchored result's sections with one real encode.

    The probe's question is the anchor itself.  Returns the octets the
    three sections take after that question, and the casefolded labels
    directly below the anchor under which some section name sits — exactly
    the names a longer question under the anchor could offer a better
    compression target for.  The size is ``None`` when the probe is too
    close to the pointer limit for a shifted copy to encode alike.
    """
    anchor = result.anchor
    table: dict = {}
    probe = Message(
        questions=[Question(anchor, RRType.NS)],
        answers=result.answers,
        authorities=result.authorities,
        additionals=result.additionals,
    )
    size = probe.wire_size(table)
    if size > _SHIFT_SAFE_SIZE:
        return None, frozenset()
    depth = anchor.label_count
    anchor_key = anchor.canonical_key()[::-1]
    below = frozenset(
        suffix[-depth - 1]
        for suffix in table
        if len(suffix) > depth and suffix[len(suffix) - depth:] == anchor_key
    )
    question_size = len(anchor.to_wire()) + _QUESTION_FIXED
    return size - HEADER_LENGTH - question_size, below


def _anchored_size(
    result: LookupResult, qname: Name, edns: Optional[EdnsRecord]
) -> Optional[int]:
    """Exact wire size of the response to ``qname`` whose sections are the
    anchored ``result``, by arithmetic — or ``None`` when only the encoder
    can tell.

    With the anchor as the question, every section name compresses against
    the anchor's suffixes or against an earlier section name.  A longer
    question adds compression targets only for names under its own label
    just below the anchor, and otherwise shifts every offset by the same
    amount, which changes pointer values but not sizes.  So unless that
    label is one the sections use, the sections take the calibrated size.
    """
    sizing = result.sizing
    if sizing is None:
        sizing = result.sizing = _calibrate(result)
    body_size, below = sizing
    if body_size is None:
        return None
    depth = result.anchor.label_count
    if qname.label_count > depth and qname.canonical_key()[depth] in below:
        return None
    size = HEADER_LENGTH + len(qname.to_wire()) + _QUESTION_FIXED + body_size
    return size if edns is None else size + _OPT_SIZE


@dataclass(slots=True)
class ResponsePlan:
    """Memoised outcome of one ``(question, transport, EDNS profile)``.

    Everything here is a pure function of the (immutable-during-simulation)
    zone content plus the cache key, so a plan computed once answers every
    steady-state repeat of the same question without Message construction,
    zone lookup, or wire encoding.  The section lists are shared by every
    replayed response and must be treated as read-only by callers.
    """

    qname_labels: Tuple[bytes, ...]   #: exact spelling the plan was built from
    qname_text: str
    qtype: int
    flags: Flags                      #: post-truncation header flags
    edns: Optional[EdnsRecord]
    answers: List[ResourceRecord]
    authorities: List[ResourceRecord]
    additionals: List[ResourceRecord]
    rcode: int
    wire_size: int
    truncated: bool
    #: Live service only: the octets its endpoint sent the first time it
    #: *replayed* this plan (size-bounded, so any second-stage truncation
    #: is inside them), and the offset at which the echoed question ends.
    #: The endpoint owns both; a miss, the simulator and a server without a
    #: plan cache never fill them.  They go when the plan goes.
    wire: Optional[bytes] = None
    question_end: int = 0


@dataclass
class ServerStats:
    """Operational counters for one authoritative server."""

    queries: int = 0
    truncated: int = 0
    rrl_dropped: int = 0
    rrl_slipped: int = 0
    plan_hits: int = 0        #: queries answered from the response-plan cache
    plan_misses: int = 0      #: queries that built (and cached) a fresh plan
    plan_evictions: int = 0   #: wholesale plan-cache flushes (epoch eviction)
    by_rcode: Dict[int, int] = field(default_factory=dict)


class AuthoritativeServer:
    """One authoritative server (one NS-set entry), possibly anycast.

    Parameters
    ----------
    server_id:
        Capture identity, e.g. ``"nl-a"``.
    zone:
        The zone this server is authoritative for.
    sites:
        Anycast instance locations.  A single-entry list models unicast.
    capture:
        Store receiving one :class:`QueryRecord` per handled query.  Pass
        ``None`` for servers whose traffic is not collected (the paper
        analyses 2 of 4 `.nl` and 6 of 7 `.nz` servers).
    rrl:
        Optional response-rate-limiting configuration.
    clock:
        Optional :class:`~repro.netsim.Clock` consulted when
        :meth:`handle_query` is called without an explicit timestamp — the
        live service mode injects a ``WallClock`` here while the simulation
        keeps passing explicit sim-time stamps.
    """

    def __init__(
        self,
        server_id: str,
        zone: Zone,
        sites: Sequence[Site],
        capture: Optional[CaptureStore] = None,
        rrl: Optional[RRLConfig] = None,
        clock: Optional[Clock] = None,
    ):
        if not sites:
            raise ValueError("server needs at least one site")
        self.server_id = server_id
        self.zone = zone
        self.sites = list(sites)
        self.capture = capture
        self.clock = clock
        self.stats = ServerStats()
        self._rrl_config = rrl
        self._limiter = RateLimiter(rrl) if rrl is not None else None
        self._catchment_cache: Dict[str, Site] = {}
        self._plans: Optional[Dict[tuple, ResponsePlan]] = (
            {} if plan_cache_enabled() else None
        )
        #: When False, the server answers nothing (models a DoS outage —
        #: the paper's motivating scenario, section 1).  Queries sent to an
        #: offline server time out at the resolver; nothing is captured.
        self.online = True

    def configure_rrl(self, rrl: Optional[RRLConfig]) -> None:
        """Install (or clear, with ``None``) response rate limiting.

        Used by the live service mode, which builds the authority world
        through the environment builder and switches RRL on afterwards.
        """
        self._rrl_config = rrl
        self._limiter = RateLimiter(rrl) if rrl is not None else None

    @property
    def is_anycast(self) -> bool:
        return len(self.sites) > 1

    # -- telemetry -------------------------------------------------------------

    def publish_metrics(self, metrics) -> None:
        """Aggregate this server's counters into a
        :class:`~repro.telemetry.MetricsRegistry` (labelled by server id).

        Called once per run by the simulation driver — the per-query path
        keeps its cheap :class:`ServerStats` increments.
        """
        label = {"server": self.server_id}
        metrics.counter("server.queries", **label).inc(self.stats.queries)
        metrics.counter("server.truncated", **label).inc(self.stats.truncated)
        metrics.counter("server.rrl_dropped", **label).inc(self.stats.rrl_dropped)
        metrics.counter("server.rrl_slipped", **label).inc(self.stats.rrl_slipped)
        for rcode, count in self.stats.by_rcode.items():
            try:
                rcode_name = RCode(rcode).name
            except ValueError:
                rcode_name = str(rcode)
            metrics.counter(
                "server.responses", server=self.server_id, rcode=rcode_name
            ).inc(count)
        if self._limiter is not None:
            rrl = self._limiter.stats
            metrics.counter("rrl.passed", **label).inc(rrl.passed)
            metrics.counter("rrl.slipped", **label).inc(rrl.slipped)
            metrics.counter("rrl.dropped", **label).inc(rrl.dropped)
            metrics.gauge("rrl.tracked_prefixes", **label).set(
                self._limiter.tracked_prefixes
            )
        if self._plans is not None:
            # ``runtime.`` prefix: cache telemetry is an execution-strategy
            # detail, excluded from serial-vs-pool simulation-counter parity.
            metrics.counter("runtime.plan_cache.hits", **label).inc(
                self.stats.plan_hits
            )
            metrics.counter("runtime.plan_cache.misses", **label).inc(
                self.stats.plan_misses
            )
            metrics.counter("runtime.plan_cache.evictions", **label).inc(
                self.stats.plan_evictions
            )

    def catchment_site(self, client_site: Site) -> Site:
        """Which anycast instance a client at ``client_site`` reaches."""
        site = self._catchment_cache.get(client_site.code)
        if site is None:
            site = nearest_site(client_site, self.sites)
            self._catchment_cache[client_site.code] = site
        return site

    # -- query handling --------------------------------------------------------

    def handle_query(
        self,
        timestamp: Optional[float],
        src: IPAddress,
        transport: Transport,
        query: Message,
        tcp_rtt_ms: Optional[float] = None,
    ) -> Optional[Message]:
        """Answer one query and record the exchange.

        Returns the response message, or ``None`` if RRL dropped it.
        ``tcp_rtt_ms`` is the handshake RTT the capture would measure and
        must be provided exactly when ``transport`` is TCP.  ``timestamp``
        may be ``None`` when the server carries a :class:`Clock`, in which
        case the clock is read — the live service path.
        """
        if (transport is Transport.TCP) != (tcp_rtt_ms is not None):
            raise ValueError("tcp_rtt_ms must accompany TCP queries only")
        if timestamp is None:
            if self.clock is None:
                raise ValueError("timestamp required when server has no clock")
            timestamp = self.clock.read()
        if not self.online:
            return None

        # One question is all the simulator ever asks; only then is the
        # ``question`` property (a call, and a check this repeats) skipped.
        questions = query.questions
        single = len(questions) == 1
        question = questions[0] if single else query.question

        # RRL verdicts depend on mutable limiter state, so they are decided
        # before — and never served from or stored into — the plan cache.
        if self._limiter is not None and transport is Transport.UDP:
            verdict = self._limiter.check(src, timestamp)
            if verdict == RateLimiter.DROP:
                self.stats.rrl_dropped += 1
                return None
            if verdict == RateLimiter.SLIP:
                self.stats.rrl_slipped += 1
                slipped = query.make_response_skeleton()
                slipped.flags = Flags(
                    qr=True, aa=True, tc=True, rd=query.flags.rd
                )
                return self._finish_response(
                    timestamp, src, transport, query, slipped, tcp_rtt_ms,
                    plan_key=None,
                )

        plan_key = None
        # A plan answers exactly one question, the only kind the simulator
        # asks.  A live socket can bring several: those are built, sized by
        # encoding and never memoised, like everything on the reference path
        # (a plan's size and truncation verdict cover one echoed question).
        if self._plans is not None and single:
            edns = query.edns
            plan_key = (
                question.qname,
                int(question.qtype),
                -1 if edns is None else edns.udp_payload_size,
                edns is not None and edns.dnssec_ok,
                transport is Transport.TCP,
                query.flags.rd,
                int(query.flags.opcode),
            )
            plan = self._plans.get(plan_key)
            # Name keys compare case-insensitively (RFC 1035); replay only
            # for the exact spelling the plan was built from so captured
            # qname text stays bit-identical to the uncached path.
            if plan is not None and plan.qname_labels == question.qname.labels:
                return self._replay_plan(
                    plan, timestamp, src, transport, query, tcp_rtt_ms
                )

        response, result = self._build_response(query)
        # Only a server that memoises plans memoises sizes: without the
        # plan cache every response is fully encoded (the reference path).
        wire_size = None
        if plan_key is not None and result is not None and result.anchor is not None:
            wire_size = _anchored_size(result, question.qname, response.edns)
        return self._finish_response(
            timestamp, src, transport, query, response, tcp_rtt_ms, plan_key,
            wire_size,
        )

    def _finish_response(
        self,
        timestamp: float,
        src: IPAddress,
        transport: Transport,
        query: Message,
        response: Message,
        tcp_rtt_ms: Optional[float],
        plan_key: Optional[tuple],
        wire_size: Optional[int] = None,
    ) -> Message:
        """Truncate/size one built response, account + capture it, and —
        when ``plan_key`` is given — memoise the outcome for replay.
        ``wire_size`` is the response's exact encoded size when the caller
        already knows it; otherwise the response is encoded to find out."""
        question = query.question
        limit = (
            effective_udp_limit(query.edns)
            if transport is Transport.UDP
            else TCP_MAX_SIZE
        )
        if wire_size is None:
            wire_size = len(response.to_wire())
        if wire_size > limit:
            # Truncate: strip records, set TC, and let the client retry TCP.
            sent = Message(
                msg_id=query.msg_id,
                flags=dc_replace(response.flags, tc=True),
                questions=list(query.questions),
                edns=response.edns,
            )
            wire_size = len(sent.to_wire())
        else:
            sent = response

        stats = self.stats
        stats.queries += 1
        truncated = sent.is_truncated()
        if truncated:
            stats.truncated += 1
        rcode = int(sent.rcode)
        stats.by_rcode[rcode] = stats.by_rcode.get(rcode, 0) + 1

        qname_text = question.qname.to_text()
        edns = query.edns
        if self.capture is not None:
            family, hi, lo = split_address(src)
            self.capture.append_row((
                timestamp,
                self.server_id,
                family,
                hi,
                lo,
                int(transport),
                qname_text,
                int(question.qtype),
                rcode,
                edns.udp_payload_size if edns is not None else 0,
                edns.dnssec_ok if edns is not None else False,
                wire_size,
                truncated,
                _NAN if tcp_rtt_ms is None else tcp_rtt_ms,
            ))
            if tracing.ACTIVE is not None:
                tracing.ACTIVE.event(
                    timestamp, "capture_append",
                    {
                        "server": self.server_id,
                        "rcode": rcode,
                        "bytes": wire_size,
                        "truncated": truncated,
                    },
                )

        if plan_key is not None:
            plans = self._plans
            stats.plan_misses += 1
            if len(plans) >= PLAN_CACHE_LIMIT:
                plans.clear()
                stats.plan_evictions += 1
            plans[plan_key] = ResponsePlan(
                qname_labels=question.qname.labels,
                qname_text=qname_text,
                qtype=int(question.qtype),
                flags=sent.flags,
                edns=sent.edns,
                answers=sent.answers,
                authorities=sent.authorities,
                additionals=sent.additionals,
                rcode=rcode,
                wire_size=wire_size,
                truncated=truncated,
            )
        return sent

    def _replay_plan(
        self,
        plan: ResponsePlan,
        timestamp: float,
        src: IPAddress,
        transport: Transport,
        query: Message,
        tcp_rtt_ms: Optional[float],
    ) -> Message:
        """Answer from a memoised plan: cheap counter bumps, one raw
        capture-row append, and a fresh Message wrapper that echoes the
        query's id while sharing the plan's (read-only) section lists and
        naming the plan it came from."""
        stats = self.stats
        stats.plan_hits += 1
        stats.queries += 1
        if plan.truncated:
            stats.truncated += 1
        stats.by_rcode[plan.rcode] = stats.by_rcode.get(plan.rcode, 0) + 1

        if self.capture is not None:
            edns = query.edns
            family, hi, lo = split_address(src)
            self.capture.append_row((
                timestamp,
                self.server_id,
                family,
                hi,
                lo,
                int(transport),
                plan.qname_text,
                plan.qtype,
                plan.rcode,
                edns.udp_payload_size if edns is not None else 0,
                edns.dnssec_ok if edns is not None else False,
                plan.wire_size,
                plan.truncated,
                _NAN if tcp_rtt_ms is None else tcp_rtt_ms,
            ))
            if tracing.ACTIVE is not None:
                tracing.ACTIVE.event(
                    timestamp, "capture_append",
                    {
                        "server": self.server_id,
                        "rcode": plan.rcode,
                        "bytes": plan.wire_size,
                        "truncated": plan.truncated,
                    },
                )

        return Message(
            msg_id=query.msg_id,
            flags=plan.flags,
            questions=list(query.questions),
            answers=plan.answers,
            authorities=plan.authorities,
            additionals=plan.additionals,
            edns=plan.edns,
            plan=plan,
        )

    def _build_response(
        self, query: Message
    ) -> Tuple[Message, Optional[LookupResult]]:
        """The full response to ``query`` and the zone lookup behind it
        (``None`` when the name is out of the zone).  The message adopts
        the lookup's section lists, which a memoised result shares with
        every other response it answers: read-only, like a plan's."""
        question = query.question
        flags = query.flags
        edns = query.edns
        dnssec_ok = edns is not None and edns.dnssec_ok
        response_edns = None if edns is None else _RESPONSE_EDNS[dnssec_ok]
        if not question.qname.is_subdomain_of(self.zone.origin):
            refused = Message(
                msg_id=query.msg_id,
                flags=_response_flags(flags.opcode, flags.rd, False, RCode.REFUSED),
                questions=list(query.questions),
                edns=response_edns,
            )
            return refused, None

        result = self.zone.lookup(question.qname, question.qtype, dnssec_ok)
        outcome = result.outcome
        response = Message(
            msg_id=query.msg_id,
            flags=_response_flags(
                flags.opcode,
                flags.rd,
                # Authoritative answer for everything except referrals.
                outcome is not LookupOutcome.DELEGATION,
                RCode.NXDOMAIN if outcome is LookupOutcome.NXDOMAIN else RCode.NOERROR,
            ),
            questions=list(query.questions),
            answers=result.answers,
            authorities=result.authorities,
            additionals=result.additionals,
            edns=response_edns,
        )
        return response, result


class ServerSet:
    """A vantage point's authoritative NS set with a shared latency model.

    Provides the operations the resolver side needs: list the servers,
    find each server's catchment for a client site, and compute RTTs.
    """

    def __init__(self, servers: Sequence[AuthoritativeServer], latency: LatencyModel):
        if not servers:
            raise ValueError("empty server set")
        origins = {server.zone.origin for server in servers}
        if len(origins) != 1:
            raise ValueError("all servers in a set must serve the same zone")
        self.servers = list(servers)
        self.latency = latency
        self._fastest: Dict[Tuple[str, int], AuthoritativeServer] = {}

    @property
    def origin(self) -> Name:
        return self.servers[0].zone.origin

    def __len__(self) -> int:
        return len(self.servers)

    def __iter__(self):
        return iter(self.servers)

    def by_id(self, server_id: str) -> AuthoritativeServer:
        for server in self.servers:
            if server.server_id == server_id:
                return server
        raise KeyError(server_id)

    def rtt_ms(
        self, server: AuthoritativeServer, client_site: Site, family: int
    ) -> float:
        """RTT from a client site to the server's catchment instance."""
        return self.latency.rtt_ms(
            client_site, server.catchment_site(client_site), family
        )

    def fastest(self, client_site: Site, family: int) -> AuthoritativeServer:
        """The lowest-RTT server for this client site and family (the
        first such server on a tie).

        A pure function of site geometry, so it is worked out once per
        (site, family); pinning a latency offset after the first call
        needs a new set.
        """
        key = (client_site.code, family)
        server = self._fastest.get(key)
        if server is None:
            server = self._fastest[key] = min(
                self.servers, key=lambda s: self.rtt_ms(s, client_site, family)
            )
        return server
