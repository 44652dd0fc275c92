"""The recursive-resolver simulation engine.

A :class:`SimResolver` turns *client* queries into the *authoritative*
queries the paper's vantage points capture.  All of the paper's observed
behavioural axes are explicit, configurable knobs on
:class:`ResolverBehavior`:

* **QNAME minimisation** (RFC 7816): below-zone queries become NS queries
  for the next label — the mechanism behind the paper's Figure 2/3 NS-share
  jump when Google deployed Q-min in Dec 2019;
* **DNSSEC validation**: DO bit set, explicit DS queries for delegations,
  periodic DNSKEY fetches — the DS/DNSKEY bars in Figure 2;
* **dual-stack family choice**: fixed ratio or RTT-preferring (logistic in
  the v4−v6 RTT gap) — Table 5 / Figure 5;
* **EDNS0 buffer size** and **TCP fallback on TC** — Figure 6 and the
  UDP/TCP split in Table 5;
* **negative caching / aggressive NSEC** — the junk ratios of Figure 4.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Dict, Optional, Tuple

import numpy as np

from ..capture import Transport
from ..dnscore import (
    ARdata,
    EdnsRecord,
    Name,
    RCode,
    ResourceRecord,
    ROOT,
    RRType,
)
from ..netsim import Clock, IPAddress, Site
from ..server import AuthoritativeServer, ResponsePlan, ServerSet
from ..telemetry import tracing
from .cache import ResolverCache
from .network import AuthorityNetwork


@dataclass
class ResolverBehavior:
    """Behavioural profile of one resolver (or resolver pool).

    The defaults model a plain, conservative ISP resolver: no Q-min, no
    validation, EDNS0 4096, RTT-based dual-stack choice, TCP fallback on.
    """

    qname_minimization: bool = False
    validates_dnssec: bool = False
    explicit_ds_probability: float = 0.1  #: chance of an explicit DS query
    #: per referral (the DS normally arrives in the referral itself; an
    #: explicit query models revalidation).  Cloudflare is configured high,
    #: matching its DS-heavy profile in Figure 2d.
    edns_bufsize: int = 4096          #: 0 = send no OPT record at all.
    set_do: bool = False              #: DO bit (validators set this).
    family_policy: str = "rtt"        #: "rtt" | "fixed" | "v4only" | "v6only"
    fixed_v6_ratio: float = 0.5       #: used when family_policy == "fixed".
    rtt_sharpness_ms: float = 15.0    #: logistic scale for "rtt" policy.
    v6_extra_rtt_ms: float = 0.0      #: per-resolver IPv6 path penalty (RTT).
    server_exploration: float = 0.25  #: prob. of not picking the fastest NS.
    tcp_fallback: bool = True
    max_ttl: float = 86400.0
    negative_ttl: float = 900.0
    aggressive_nsec: bool = False
    max_retries: int = 2              #: per-query retries on drop/timeout.
    cyclic_chase_depth: int = 3       #: glue-chase depth on cyclic domains.
    #: Retransmit timing (RFC 1035 section 4.2.1 spirit): the first timeout
    #: in milliseconds, the exponential growth factor applied per attempt,
    #: a per-attempt cap, and a total time budget after which the resolver
    #: gives up early even with retries left (SERVFAIL-on-exhaustion).
    retry_initial_timeout_ms: float = 400.0
    retry_backoff: float = 2.0
    retry_max_timeout_ms: float = 3000.0
    retry_budget_ms: float = 8000.0
    #: RFC 8767 serve-stale: when resolution fails, answer from expired
    #: cache entries no older than ``serve_stale_window`` seconds past
    #: their TTL.  Off by default (stock resolver behaviour).
    serve_stale: bool = False
    serve_stale_window: float = 86400.0

    def __post_init__(self):
        if self.family_policy not in ("rtt", "fixed", "v4only", "v6only"):
            raise ValueError(f"unknown family policy {self.family_policy!r}")
        if not 0.0 <= self.fixed_v6_ratio <= 1.0:
            raise ValueError("fixed_v6_ratio must be in [0, 1]")
        if self.retry_initial_timeout_ms <= 0 or self.retry_max_timeout_ms <= 0:
            raise ValueError("retry timeouts must be positive")
        if self.retry_backoff < 1.0:
            raise ValueError("retry_backoff must be >= 1")
        if self.retry_budget_ms <= 0:
            raise ValueError("retry_budget_ms must be positive")
        if self.serve_stale_window < 0:
            raise ValueError("serve_stale_window must be >= 0")


@dataclass
class ResolverStats:
    """Counters for one resolver's authoritative-side activity.

    Kept as plain attribute increments (not registry counters) because
    ``_resolve``/``_send`` are the simulator's hottest path; the driver
    aggregates these into the run's telemetry registry after the resolve
    loop (see :func:`repro.sim.driver.publish_fleet_metrics`).
    """

    client_queries: int = 0
    auth_queries: int = 0
    tcp_retries: int = 0
    servfails: int = 0
    drops: int = 0           #: timeouts (each drop costs one timeout wait)
    retransmits: int = 0     #: re-sends after a timeout (attempt > 0)
    failovers: int = 0       #: retransmits that moved to a different server
    retry_exhausted: int = 0  #: sends abandoned (retries/budget spent)
    stale_served: int = 0    #: RFC 8767 stale answers returned to clients
    cache_hits: int = 0      #: answers served from cache (positive or negative)
    cache_misses: int = 0    #: resolutions that had to go to the network
    by_qtype: Dict[int, int] = field(default_factory=dict)  #: auth sends per qtype


class _Session:
    """Mutable per-resolution clock so chained queries get realistic,
    strictly increasing timestamps."""

    __slots__ = ("now",)

    def __init__(self, now: float):
        self.now = now

    def tick(self, ms: float) -> float:
        self.now += ms / 1000.0
        return self.now


#: Delegation-cache TTLs (seconds).  TLD NS records carry multi-day TTLs;
#: registrant delegations and DNSSEC material are cached for a day — the
#: regime in which per-resolver overhead queries (NS refresh, DS, DNSKEY)
#: stay a small fraction of the capture, as the paper observes.
_TLD_DELEGATION_TTL = 172800.0
_CUT_DELEGATION_TTL = 86400.0
_DS_TTL = 86400.0
_DNSKEY_TTL = 345600.0


@lru_cache(maxsize=256)
def _edns_for(bufsize: int, dnssec_ok: bool) -> EdnsRecord:
    """Interned OPT template per (bufsize, DO) pair.

    :class:`EdnsRecord` is frozen and the fleet exercises only a handful of
    behaviour profiles, so the per-send construction in ``_send`` is pure
    allocation overhead.
    """
    return EdnsRecord(udp_payload_size=bufsize, dnssec_ok=dnssec_ok)


@lru_cache(maxsize=256)
def _positive_marker(ttl: int) -> Tuple[ResourceRecord, ...]:
    """The records a positive cache line holds, one shared tuple per TTL.

    Only the TTL is material to the captured traffic (it decides when the
    name is asked again), so no record is built per answer.
    """
    return (ResourceRecord(ROOT, RRType.A, ttl, ARdata(0x7F000001)),)


class SimResolver:
    """One simulated recursive resolver.

    Parameters
    ----------
    resolver_id:
        Stable identity (used in reports and PTR synthesis).
    site:
        Physical location (drives anycast catchment and RTTs).
    v4, v6:
        Source addresses; at least one must be given.  A resolver with both
        is *dual-stack* and chooses per query via ``behavior.family_policy``.
    behavior:
        The behavioural profile.
    seed:
        Per-resolver RNG seed (derived from the fleet seed upstream).
    """

    def __init__(
        self,
        resolver_id: str,
        site: Site,
        v4: Optional[IPAddress],
        v6: Optional[IPAddress],
        behavior: ResolverBehavior,
        seed: int = 0,
        clock: Optional[Clock] = None,
    ):
        if v4 is None and v6 is None:
            raise ValueError("resolver needs at least one source address")
        if v4 is not None and v4.family != 4:
            raise ValueError("v4 address has wrong family")
        if v6 is not None and v6.family != 6:
            raise ValueError("v6 address has wrong family")
        if behavior.family_policy == "v4only" and v4 is None:
            raise ValueError("v4only policy without a v4 address")
        if behavior.family_policy == "v6only" and v6 is None:
            raise ValueError("v6only policy without a v6 address")
        self.resolver_id = resolver_id
        self.site = site
        self.v4 = v4
        self.v6 = v6
        self.behavior = behavior
        self.clock = clock
        self.stats = ResolverStats()
        self.cache = ResolverCache(
            max_ttl=behavior.max_ttl,
            negative_ttl=behavior.negative_ttl,
            aggressive_nsec=behavior.aggressive_nsec,
            serve_stale_window=(
                behavior.serve_stale_window if behavior.serve_stale else 0.0
            ),
        )
        self._seed = seed
        # Zone name's key (``Name.key``) → when its delegation / DS /
        # DNSKEY must be fetched again: tuples of bytes hash and compare in C.
        self._delegation_expiry: Dict[Tuple[bytes, ...], float] = {}
        self._ds_expiry: Dict[Tuple[bytes, ...], float] = {}
        self._dnskey_expiry: Dict[Tuple[bytes, ...], float] = {}

    @cached_property
    def _rng(self) -> np.random.Generator:
        """The resolver's private stream, seeded on first draw: seeding
        costs as much as the rest of the constructor, and a large part of
        a fleet is never asked anything in a scaled-down run.  It is what
        ``default_rng`` builds, without its argument dispatch."""
        return np.random.Generator(np.random.PCG64(self._seed))

    def reset_session(self) -> None:
        """Restore the freshly-constructed state for fleet reuse.

        Rewinds everything a simulation run mutates — stats, cache,
        delegation/DNSSEC expiries, and the RNG stream (dropped; the next
        draw seeds it again from the construction seed) — so a reused
        resolver replays queries bit-identically to a newly built one.
        """
        behavior = self.behavior
        self.stats = ResolverStats()
        self.cache = ResolverCache(
            max_ttl=behavior.max_ttl,
            negative_ttl=behavior.negative_ttl,
            aggressive_nsec=behavior.aggressive_nsec,
            serve_stale_window=(
                behavior.serve_stale_window if behavior.serve_stale else 0.0
            ),
        )
        self.__dict__.pop("_rng", None)
        self._delegation_expiry.clear()
        self._ds_expiry.clear()
        self._dnskey_expiry.clear()

    # ------------------------------------------------------------------ API --

    def resolve(
        self,
        network: AuthorityNetwork,
        now: Optional[float],
        qname: Name,
        qtype: RRType,
    ) -> RCode:
        """Resolve one client query, emitting authoritative queries as a
        side effect.  Returns the RCODE the client would receive.

        ``now`` may be ``None`` when the resolver carries a
        :class:`~repro.netsim.Clock` (the live service frontend), in which
        case the clock is read; the simulation always passes sim time.
        """
        if now is None:
            if self.clock is None:
                raise ValueError("now required when resolver has no clock")
            now = self.clock.read()
        self.stats.client_queries += 1
        session = _Session(now)
        rcode = self._resolve(network, session, qname, qtype, depth=0)
        if rcode is RCode.SERVFAIL and self.behavior.serve_stale:
            # RFC 8767: resolution failed — answer from an expired cache
            # entry still inside the stale window rather than SERVFAIL.
            stale = self.cache.get_stale(session.now, qname, qtype)
            if stale is not None:
                self.stats.stale_served += 1
                if tracing.ACTIVE is not None:
                    tracing.ACTIVE.event(session.now, "stale_served")
                return RCode.NOERROR
        return rcode

    # --------------------------------------------------------------- internals --

    def _resolve(
        self,
        network: AuthorityNetwork,
        session: _Session,
        qname: Name,
        qtype: RRType,
        depth: int,
    ) -> RCode:
        if depth > self.behavior.cyclic_chase_depth:
            self.stats.servfails += 1
            return RCode.SERVFAIL

        cached = self.cache.get(session.now, qname, qtype)
        if cached is not None:
            self.stats.cache_hits += 1
            if tracing.ACTIVE is not None:
                tracing.ACTIVE.event(
                    session.now, "cache_hit",
                    {"qname": qname.to_text(), "depth": depth},
                )
            return RCode.NOERROR
        negative = self.cache.get_negative(session.now, qname)
        if negative is not None:
            self.stats.cache_hits += 1
            if tracing.ACTIVE is not None:
                tracing.ACTIVE.event(
                    session.now, "cache_hit",
                    {"qname": qname.to_text(), "depth": depth, "negative": True},
                )
            return negative
        self.stats.cache_misses += 1
        if tracing.ACTIVE is not None:
            tracing.ACTIVE.event(
                session.now, "cache_miss",
                {"qname": qname.to_text(), "depth": depth},
            )

        tld = network.tld_of(qname)
        if tld is None:
            return self._resolve_at_root(network, session, qname, qtype)

        # Make sure we know the TLD's nameservers (priming via the root).
        self._ensure_tld_delegation(network, session, tld)

        # RFC 8198: a cached NSEC range can prove NXDOMAIN with no query.
        if self.cache.nsec_covers(tld, qname):
            self.cache.put_negative(session.now, qname, RCode.NXDOMAIN)
            return RCode.NXDOMAIN

        tld_set = network.server_set_for(tld)
        cut = network.registered_cut(qname)
        if cut is None:
            # Unregistered name: the TLD will answer NXDOMAIN ("junk").
            send_name, send_type = self._minimized(qname, qtype, tld)
            response = self._send(
                session, tld_set, send_name, send_type, network.faults
            )
            if response is None:
                self.stats.servfails += 1
                return RCode.SERVFAIL
            self._learn_nsec(tld, response)
            self.cache.put_negative(session.now, qname, RCode.NXDOMAIN)
            return RCode.NXDOMAIN

        if network.leaf.is_cyclic(cut):
            # Cyclic dependency: the resolver can never learn the leaf NS
            # addresses, so every attempt re-queries the TLD for the name
            # itself (hoping for glue) and then chases the partner's NS
            # names — the A/AAAA storm of paper section 4.2.1.
            self._send(session, tld_set, qname, qtype, network.faults)
            self._chase_cyclic(network, session, cut, depth)
            self.stats.servfails += 1
            return RCode.SERVFAIL

        # Registered: fetch/refresh the delegation if needed.
        if self._delegation_expiry.get(cut.key, 0.0) <= session.now:
            send_name, send_type = self._minimized(qname, qtype, tld, cut)
            response = self._send(
                session, tld_set, send_name, send_type, network.faults
            )
            if response is None:
                self.stats.servfails += 1
                return RCode.SERVFAIL
            self._delegation_expiry[cut.key] = session.now + _CUT_DELEGATION_TTL
            if self.behavior.validates_dnssec:
                self._validate_delegation(network, session, tld_set, tld, cut)

        # Leaf phase (not captured): ask the domain's own servers.
        answer = network.leaf.answer(cut, qname, qtype)
        if answer.rcode is RCode.SERVFAIL:
            self.stats.servfails += 1
            return RCode.SERVFAIL
        if answer.rcode is RCode.NXDOMAIN or not answer.exists:
            # NXDOMAIN or NODATA: cache negatively either way (RFC 2308).
            self.cache.put_negative(
                session.now, qname, answer.rcode, ttl=max(answer.ttl, 60.0)
            )
            return answer.rcode
        # Positive: cache under the leaf TTL (records themselves are not
        # material to the captured traffic, so an empty marker suffices).
        self._cache_positive_marker(session.now, qname, qtype, answer.ttl)
        return RCode.NOERROR

    def _cache_positive_marker(self, now: float, qname: Name, qtype: RRType, ttl: float) -> None:
        self.cache.put(now, qname, qtype, _positive_marker(int(max(ttl, 1.0))))

    # -- root interaction -------------------------------------------------------

    def _resolve_at_root(
        self, network: AuthorityNetwork, session: _Session, qname: Name, qtype: RRType
    ) -> RCode:
        """Resolve a name whose TLD is not one of the simulated TLD vantage
        zones: the root either refers us (existing TLD — outcome cached) or
        answers NXDOMAIN (junk TLD, e.g. Chromium probes)."""
        if self.cache.nsec_covers(ROOT, qname):
            self.cache.put_negative(session.now, qname, RCode.NXDOMAIN)
            return RCode.NXDOMAIN
        send_name, send_type = self._minimized(qname, qtype, ROOT)
        response = self._send(
            session, network.root, send_name, send_type, network.faults
        )
        if response is None:
            self.stats.servfails += 1
            return RCode.SERVFAIL
        if response.rcode == RCode.NXDOMAIN:
            self._learn_nsec(ROOT, response)
            self.cache.put_negative(session.now, qname, RCode.NXDOMAIN)
            return RCode.NXDOMAIN
        # Existing TLD: treat resolution below it as out of scope (the
        # delegated infrastructure is not simulated); cache the referral.
        tld_label = qname.ancestor_with_labels(1)
        first_visit = self._delegation_expiry.get(tld_label.key, 0.0) <= session.now
        self._delegation_expiry[tld_label.key] = session.now + _TLD_DELEGATION_TTL
        if first_visit and self.behavior.validates_dnssec:
            # Validators chase the TLD's DS (at the root) and the root's
            # own DNSKEY — the DS/DNSKEY bars in the paper's B-Root panels.
            self._validate_delegation(network, session, network.root, ROOT, tld_label)
        self._cache_positive_marker(session.now, qname, qtype, 3600.0)
        return RCode.NOERROR

    def _ensure_tld_delegation(
        self, network: AuthorityNetwork, session: _Session, tld: Name
    ) -> None:
        """Query the root for the TLD delegation when not cached — the only
        regular ccTLD-driven traffic the root sees from a warm resolver."""
        if self._delegation_expiry.get(tld.key, 0.0) > session.now:
            return
        send_name, send_type = self._minimized(tld, RRType.NS, ROOT)
        response = self._send(
            session, network.root, send_name, send_type, network.faults
        )
        if response is not None:
            self._delegation_expiry[tld.key] = session.now + _TLD_DELEGATION_TTL
            if self.behavior.validates_dnssec:
                self._validate_delegation(
                    network, session, network.root, ROOT, tld
                )

    # -- DNSSEC ---------------------------------------------------------------

    def _validate_delegation(
        self,
        network: AuthorityNetwork,
        session: _Session,
        parent_set: ServerSet,
        parent: Name,
        child: Name,
    ) -> None:
        """Validating-resolver follow-up queries after taking a referral:
        an explicit DS query for the child (to the parent — what makes DS
        the signature validator type in Figure 2), and a DNSKEY fetch for
        the parent zone itself when ours has expired."""
        if (
            self._ds_expiry.get(child.key, 0.0) <= session.now
            and self._rng.random() < self.behavior.explicit_ds_probability
        ):
            self._send(session, parent_set, child, RRType.DS, network.faults)
            self._ds_expiry[child.key] = session.now + _DS_TTL
        if self._dnskey_expiry.get(parent.key, 0.0) <= session.now:
            self._send(session, parent_set, parent, RRType.DNSKEY, network.faults)
            self._dnskey_expiry[parent.key] = session.now + _DNSKEY_TTL

    # -- QNAME minimisation --------------------------------------------------------

    def _minimized(
        self,
        qname: Name,
        qtype: RRType,
        zone: Name,
        cut: Optional[Name] = None,
    ) -> Tuple[Name, RRType]:
        """What to actually send to ``zone``'s servers for ``qname``.

        Without Q-min: the full name and type (classic leakage).
        With Q-min: the name stripped to one label more than the zone, with
        type NS — unless that minimised name *is* the full qname, in which
        case the original type is used (RFC 7816 section 2).  The target
        (``cut``, when given, covers ``qname``) is always an ancestor-or-self
        of ``qname``, so it *is* ``qname`` exactly when it has as many labels.
        """
        if not self.behavior.qname_minimization:
            return qname, qtype
        target = cut if cut is not None else qname.ancestor_with_labels(
            min(zone.label_count + 1, qname.label_count)
        )
        if target.label_count == qname.label_count:
            return qname, qtype
        return target, RRType.NS

    # -- cyclic-dependency chase ------------------------------------------------------

    def _chase_cyclic(
        self, network: AuthorityNetwork, session: _Session, domain: Name, depth: int
    ) -> None:
        """Glue-chase a cyclically dependent domain (paper section 4.2.1).

        The domain's NS names live under its partner domain, so the resolver
        issues A/AAAA queries for those NS names back at the TLD — which hit
        the partner's delegation, whose NS names live back under the first
        domain, and so on until the depth limit.  This is the mechanism that
        made Google emit millions of A/AAAA queries to `.nz` in Feb 2020.
        """
        partner = network.leaf.cyclic_partner(domain)
        if partner is None:
            return
        for ns_label in (b"ns1", b"ns2"):
            ns_name = partner.prepend(ns_label)
            for addr_type in (RRType.A, RRType.AAAA):
                self._resolve(network, session, ns_name, addr_type, depth + 1)

    # -- transport ------------------------------------------------------------------

    def _choose_family(self, server_set: ServerSet, server: AuthoritativeServer) -> int:
        policy = self.behavior.family_policy
        if policy == "v4only" or self.v6 is None:
            return 4
        if policy == "v6only" or self.v4 is None:
            return 6
        if policy == "fixed":
            return 6 if self._rng.random() < self.behavior.fixed_v6_ratio else 4
        # "rtt": logistic preference in the v4−v6 RTT gap.
        rtt4 = server_set.rtt_ms(server, self.site, 4)
        rtt6 = server_set.rtt_ms(server, self.site, 6) + self.behavior.v6_extra_rtt_ms
        gap = (rtt4 - rtt6) / max(self.behavior.rtt_sharpness_ms, 1e-6)
        p6 = 1.0 / (1.0 + np.exp(-gap))
        return 6 if self._rng.random() < p6 else 4

    def _choose_server(
        self, server_set: ServerSet, exclude: frozenset = frozenset()
    ) -> AuthoritativeServer:
        """Mostly the fastest server, with exploration (Müller et al. 2017).

        ``exclude`` holds servers that already timed out this resolution —
        a real resolver moves to another NS rather than hammering a dead
        one (the behaviour that makes NS-set redundancy survive outages).
        The set memoises both the candidates and the lowest-RTT pick per
        excluded set; the exploration draw is made here, on every call.
        """
        candidates = server_set.remaining(exclude) if exclude else server_set.servers
        if len(candidates) > 1 and self._rng.random() < self.behavior.server_exploration:
            return candidates[int(self._rng.integers(len(candidates)))]
        family = 4 if self.v4 is not None else 6
        return server_set.fastest(self.site, family, exclude)

    def _send(
        self,
        session: _Session,
        server_set: ServerSet,
        qname: Name,
        qtype: RRType,
        faults=None,
    ) -> Optional[ResponsePlan]:
        """One authoritative exchange: UDP, then TCP on truncation, with
        exponential-backoff retransmits on drops/timeouts, failover across
        the NS set, and a bounded total retry budget.  Returns the plan of
        the response that came back, or ``None``.

        The server is asked the question itself
        (:meth:`~repro.server.AuthoritativeServer.answer`); no query message
        is built.  The message id such a query would carry is still drawn,
        so the RNG stream is the one a wire client consumes.

        ``faults`` is the network's optional
        :class:`~repro.faults.FaultInjector`; its per-packet verdicts are
        hash-based (no RNG draw), so with no injector — or an all-pass one —
        this method's RNG consumption and timestamps are bit-identical to
        the fault-free path.
        """
        behavior = self.behavior
        stats = self.stats
        qtype_counts = stats.by_qtype
        qtype_counts[int(qtype)] = qtype_counts.get(int(qtype), 0) + 1
        failed: set = set()
        qname_key = qname.to_text().encode() if faults is not None else b""
        last_server_id: Optional[str] = None
        spent_timeout_ms = 0.0
        edns = (
            _edns_for(behavior.edns_bufsize, behavior.set_do)
            if behavior.edns_bufsize > 0
            else None
        )
        for attempt in range(behavior.max_retries + 1):
            server = self._choose_server(server_set, frozenset(failed))
            family = self._choose_family(server_set, server)
            src = self.v4 if family == 4 else self.v6
            self._rng.integers(65536)  # the message id
            rtt = server_set.rtt_ms(server, self.site, family)
            if family == 6:
                rtt += behavior.v6_extra_rtt_ms
            if faults is not None:
                rtt += faults.extra_latency_ms(server.server_id, session.now, rtt)
            if attempt:
                stats.retransmits += 1
                if server.server_id != last_server_id:
                    stats.failovers += 1
            failover = attempt > 0 and server.server_id != last_server_id
            last_server_id = server.server_id
            stats.auth_queries += 1
            attempt_started = session.now
            send_time = session.tick(rtt)
            if faults is not None and faults.udp_fate(
                server.server_id, family, send_time, qname_key
            ).dropped:
                response = None  # lost in transit: the server never sees it
            else:
                response = server.answer(
                    send_time, src, Transport.UDP, qname, qtype, edns
                )
            if response is None:
                # Drop (fault, RRL, or outage) → wait out the timeout, back
                # off exponentially, and prefer a different server next.
                stats.drops += 1
                failed.add(server.server_id)
                timeout_ms = min(
                    behavior.retry_initial_timeout_ms
                    * behavior.retry_backoff ** attempt,
                    behavior.retry_max_timeout_ms,
                )
                session.tick(timeout_ms)
                spent_timeout_ms += timeout_ms
                if tracing.ACTIVE is not None:
                    tracing.ACTIVE.span(
                        attempt_started, session.now, "auth_timeout",
                        {
                            "qname": qname.to_text(),
                            "server": server.server_id,
                            "family": family,
                            "attempt": attempt,
                            "failover": failover,
                        },
                    )
                if spent_timeout_ms >= behavior.retry_budget_ms:
                    break  # total budget exhausted: give up early
                continue
            transport_used = "udp"
            if response.truncated and behavior.tcp_fallback:
                tcp_rtt = rtt * float(1.0 + 0.05 * self._rng.random())
                stats.auth_queries += 1
                stats.tcp_retries += 1
                transport_used = "tcp"
                response = server.answer(
                    session.tick(2 * tcp_rtt),
                    src,
                    Transport.TCP,
                    qname,
                    qtype,
                    edns,
                    tcp_rtt,
                )
            if tracing.ACTIVE is not None:
                tracing.ACTIVE.span(
                    attempt_started, session.now, "auth_exchange",
                    {
                        "qname": qname.to_text(),
                        "qtype": int(qtype),
                        "server": server.server_id,
                        "family": family,
                        "attempt": attempt,
                        "failover": failover,
                        "transport": transport_used,
                        "rcode": None if response is None else response.rcode,
                    },
                )
            return response
        stats.retry_exhausted += 1
        if tracing.ACTIVE is not None:
            tracing.ACTIVE.event(
                session.now, "retry_exhausted", {"qname": qname.to_text()}
            )
        return None

    # -- NSEC learning ------------------------------------------------------------------

    def _learn_nsec(self, zone: Name, response: ResponsePlan) -> None:
        """Harvest NSEC ranges from a negative answer (for RFC 8198)."""
        if not self.behavior.aggressive_nsec:
            return
        for record in response.authorities:
            if record.rrtype is RRType.NSEC:
                self.cache.add_nsec(zone, record.name, record.rdata.next_name)
