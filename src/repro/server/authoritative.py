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
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..capture import CaptureStore, Transport, split_address
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
def _response_flags(
    opcode: Opcode, rd: bool, aa: bool, rcode: RCode, tc: bool
) -> Flags:
    """Interned header flags of a built response (a dozen combinations)."""
    return Flags(qr=True, opcode=opcode, aa=aa, tc=tc, rd=rd, rcode=rcode)


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
    anchor_key = anchor.key
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
    if qname.label_count > depth and qname.canonical[depth] in below:
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
        """Answer one query message and record the exchange: the live
        path's entry point, which unpacks the question for :meth:`answer`
        and wraps the plan it returns in a response message.

        Returns the response message, or ``None`` if RRL dropped it.
        ``tcp_rtt_ms`` is the handshake RTT the capture would measure and
        must be provided exactly when ``transport`` is TCP.  ``timestamp``
        may be ``None`` when the server carries a :class:`Clock`, in which
        case the clock is read — the live service path.  A response
        replayed from the plan cache names its plan (``Message.plan``), so
        that the endpoint can keep the octets it sends for it.
        """
        if (transport is Transport.TCP) != (tcp_rtt_ms is not None):
            raise ValueError("tcp_rtt_ms must accompany TCP queries only")
        if timestamp is None:
            if self.clock is None:
                raise ValueError("timestamp required when server has no clock")
            timestamp = self.clock.read()
        # One question is the common case; only then is the ``question``
        # property (a call, and a check this repeats) skipped.
        questions = query.questions
        single = len(questions) == 1
        question = questions[0] if single else query.question
        flags = query.flags
        hits = self.stats.plan_hits
        plan = self.answer(
            timestamp, src, transport, question.qname, question.qtype,
            query.edns, tcp_rtt_ms, flags.rd, flags.opcode,
            None if single else questions,
        )
        if plan is None:
            return None
        return Message(
            msg_id=query.msg_id,
            flags=plan.flags,
            questions=list(questions),
            answers=plan.answers,
            authorities=plan.authorities,
            additionals=plan.additionals,
            edns=plan.edns,
            plan=plan if self.stats.plan_hits != hits else None,
        )

    def answer(
        self,
        timestamp: float,
        src: IPAddress,
        transport: Transport,
        qname: Name,
        qtype: RRType,
        edns: Optional[EdnsRecord],
        tcp_rtt_ms: Optional[float] = None,
        rd: bool = False,
        opcode: Opcode = Opcode.QUERY,
        questions: Optional[List[Question]] = None,
    ) -> Optional[ResponsePlan]:
        """Answer one question and record the exchange — the one core of
        both entry points; the simulator asks it directly, with no message.

        The question is ``qname``/``qtype`` under the sender's OPT record
        ``edns`` and header bits ``rd``/``opcode``.  ``questions`` is a live
        query's whole question section when it has more than one: such a
        response is built, sized by encoding and never memoised (a plan's
        size and truncation verdict cover one echoed question).  Returns
        the response's plan — replayed from the plan cache or built now,
        shared and read-only — or ``None`` when the server is offline or
        RRL dropped the query.  ``timestamp`` and ``tcp_rtt_ms`` are as for
        :meth:`handle_query`, unchecked.
        """
        if not self.online:
            return None
        stats = self.stats
        plan = None
        # RRL verdicts depend on mutable limiter state, so they are decided
        # before — and never served from or stored into — the plan cache.
        if self._limiter is not None and transport is Transport.UDP:
            verdict = self._limiter.check(src, timestamp)
            if verdict == RateLimiter.DROP:
                stats.rrl_dropped += 1
                return None
            if verdict == RateLimiter.SLIP:
                stats.rrl_slipped += 1
                plan = self._build_plan(
                    qname, qtype, edns, transport, rd, opcode, questions, None,
                    slip=True,
                )
        if plan is None:
            key = None
            if self._plans is not None and questions is None:
                key = (
                    qname.key,
                    int(qtype),
                    -1 if edns is None else edns.udp_payload_size,
                    edns is not None and edns.dnssec_ok,
                    transport is Transport.TCP,
                    rd,
                    int(opcode),
                )
                plan = self._plans.get(key)
            # Name keys compare case-insensitively (RFC 1035); replay only
            # for the exact spelling the plan was built from so captured
            # qname text stays bit-identical to the uncached path.
            if plan is not None and plan.qname_labels == qname.labels:
                stats.plan_hits += 1
            else:
                plan = self._build_plan(
                    qname, qtype, edns, transport, rd, opcode, questions, key
                )

        stats.queries += 1
        truncated = plan.truncated
        if truncated:
            stats.truncated += 1
        rcode = plan.rcode
        stats.by_rcode[rcode] = stats.by_rcode.get(rcode, 0) + 1
        if self.capture is not None:
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
                rcode,
                edns.udp_payload_size if edns is not None else 0,
                edns.dnssec_ok if edns is not None else False,
                plan.wire_size,
                truncated,
                _NAN if tcp_rtt_ms is None else tcp_rtt_ms,
            ))
            if tracing.ACTIVE is not None:
                tracing.ACTIVE.event(
                    timestamp, "capture_append",
                    {
                        "server": self.server_id,
                        "rcode": rcode,
                        "bytes": plan.wire_size,
                        "truncated": truncated,
                    },
                )
        return plan

    def _build_plan(
        self,
        qname: Name,
        qtype: RRType,
        edns: Optional[EdnsRecord],
        transport: Transport,
        rd: bool,
        opcode: Opcode,
        questions: Optional[List[Question]],
        key: Optional[tuple],
        slip: bool = False,
    ) -> ResponsePlan:
        """Build, size and truncate the response to one question — an RRL
        ``slip`` when asked — and memoise it under ``key`` when given.

        An in-zone response adopts the zone lookup's section lists, which a
        memoised result shares with every other response it answers:
        read-only, like every plan.  Only a server that memoises plans
        sizes by arithmetic; without the plan cache every response is
        encoded to find its size (the reference path), as is anything
        answered without a key.
        """
        answers: List[ResourceRecord] = []
        authorities: List[ResourceRecord] = []
        additionals: List[ResourceRecord] = []
        response_edns = None
        wire_size = None
        aa, rcode, tc = False, RCode.NOERROR, False
        if slip:
            # An empty, truncated answer without OPT that invites a TCP retry.
            opcode, aa, tc = Opcode.QUERY, True, True
        else:
            dnssec_ok = edns is not None and edns.dnssec_ok
            if edns is not None:
                response_edns = _RESPONSE_EDNS[dnssec_ok]
            if qname.is_subdomain_of(self.zone.origin):
                result = self.zone.lookup(qname, qtype, dnssec_ok)
                outcome = result.outcome
                # Authoritative answer for everything except referrals.
                aa = outcome is not LookupOutcome.DELEGATION
                if outcome is LookupOutcome.NXDOMAIN:
                    rcode = RCode.NXDOMAIN
                answers = result.answers
                authorities = result.authorities
                additionals = result.additionals
                if key is not None:
                    wire_size = _anchored_size(result, qname, response_edns)
            else:
                rcode = RCode.REFUSED
        if wire_size is None:
            # The header's size does not depend on its bits.
            wire_size = len(Message(
                questions=questions or [Question(qname, qtype)],
                answers=answers,
                authorities=authorities,
                additionals=additionals,
                edns=response_edns,
            ).to_wire())
        limit = (
            effective_udp_limit(edns)
            if transport is Transport.UDP
            else TCP_MAX_SIZE
        )
        if wire_size > limit:
            # Truncate: strip records, set TC, and let the client retry TCP.
            tc = True
            answers, authorities, additionals = [], [], []
            if key is not None:
                # The header, the one echoed question and the OPT record.
                wire_size = HEADER_LENGTH + len(qname.to_wire()) + _QUESTION_FIXED
                if response_edns is not None:
                    wire_size += _OPT_SIZE
            else:
                wire_size = len(Message(
                    questions=questions or [Question(qname, qtype)],
                    edns=response_edns,
                ).to_wire())
        flags = _response_flags(opcode, rd, aa, rcode, tc)
        plan = ResponsePlan(
            qname_labels=qname.labels,
            qname_text=qname.to_text(),
            qtype=int(qtype),
            flags=flags,
            edns=response_edns,
            answers=answers,
            authorities=authorities,
            additionals=additionals,
            rcode=int(rcode),
            wire_size=wire_size,
            truncated=tc,
        )
        if key is not None:
            plans = self._plans
            self.stats.plan_misses += 1
            if len(plans) >= PLAN_CACHE_LIMIT:
                plans.clear()
                self.stats.plan_evictions += 1
            plans[key] = plan
        return plan


class ServerSet:
    """A vantage point's authoritative NS set with a shared latency model.

    Provides the operations the resolver side needs: list the servers,
    find each server's catchment for a client site, and compute RTTs.
    """

    def __init__(self, servers: Sequence[AuthoritativeServer], latency: LatencyModel):
        if not servers:
            raise ValueError("empty server set")
        origins = {server.zone.origin.key for server in servers}
        if len(origins) != 1:
            raise ValueError("all servers in a set must serve the same zone")
        self.servers = list(servers)
        self.latency = latency
        self._fastest: Dict[
            Tuple[str, int, FrozenSet[str]], AuthoritativeServer
        ] = {}
        self._remaining: Dict[FrozenSet[str], List[AuthoritativeServer]] = {}
        self._rtts: Dict[Tuple[str, str, int], float] = {}

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
        """RTT from a client site to the server's catchment instance.

        Like :meth:`fastest`, worked out once per (server, site, family):
        pinning a latency offset after the first call needs a new set.
        """
        key = (server.server_id, client_site.code, family)
        rtt = self._rtts.get(key)
        if rtt is None:
            rtt = self._rtts[key] = self.latency.rtt_ms(
                client_site, server.catchment_site(client_site), family
            )
        return rtt

    def remaining(self, exclude: FrozenSet[str]) -> List[AuthoritativeServer]:
        """The servers whose ids are not in ``exclude``, in set order — or
        every server, when that would leave none.  Memoised per excluded
        set; the list is shared and read-only."""
        servers = self._remaining.get(exclude)
        if servers is None:
            servers = self._remaining[exclude] = [
                s for s in self.servers if s.server_id not in exclude
            ] or self.servers
        return servers

    def fastest(
        self, client_site: Site, family: int, exclude: FrozenSet[str] = frozenset()
    ) -> AuthoritativeServer:
        """The lowest-RTT server for this client site and family among
        :meth:`remaining` (the first such server on a tie).

        A pure function of site geometry, so it is worked out once per
        (site, family, excluded ids); pinning a latency offset after the
        first call needs a new set.
        """
        key = (client_site.code, family, exclude)
        server = self._fastest.get(key)
        if server is None:
            server = self._fastest[key] = min(
                self.remaining(exclude),
                key=lambda s: self.rtt_ms(s, client_site, family),
            )
        return server
