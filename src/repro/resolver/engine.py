"""The recursive-resolver simulation engine.

A :class:`SimResolver` turns *client* queries into the *authoritative*
queries the paper's vantage points capture.  The paper's observed
behavioural axes, the ones the fleets set per provider, are fields of
:class:`ResolverBehavior`:

* **QNAME minimisation** (RFC 7816): below-zone queries become NS queries
  for the next label — the mechanism behind the paper's Figure 2/3 NS-share
  jump when Google deployed Q-min in Dec 2019;
* **DNSSEC validation**: DO bit set, explicit DS queries for delegations,
  periodic DNSKEY fetches — the DS/DNSKEY bars in Figure 2;
* **dual-stack family choice**: fixed ratio or RTT-preferring (logistic in
  the v4−v6 RTT gap, plus a per-resolver IPv6 penalty — the model's only
  IPv6 path delay, section 4.3) — Table 5 / Figure 5;
* **EDNS0 buffer size** — Figure 6 and, through TCP fallback on TC, the
  UDP/TCP split in Table 5;
* **negative caching / aggressive NSEC** — the junk ratios of Figure 4.

What every resolver does alike is a module constant, not a field: server
exploration (:data:`SERVER_EXPLORATION`), the retransmit schedule
(:data:`MAX_RETRIES`, :data:`RETRY_INITIAL_TIMEOUT_MS`,
:data:`RETRY_BACKOFF`, :data:`RETRY_MAX_TIMEOUT_MS`,
:data:`RETRY_BUDGET_MS`), the cyclic glue-chase depth
(:data:`CYCLIC_CHASE_DEPTH`) and TCP fallback on truncation, which is
always on; the cache's TTL caps live in :mod:`repro.resolver.cache`.
A resolver's address family follows from its addresses: one with a
single family always sends on it, and only a dual-stack one draws.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, partial
from typing import Dict, NamedTuple, Optional, Sequence, Tuple

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
from ..netsim import IPAddress, Site
from ..server import AuthoritativeServer, ResponsePlan, ServerSet
from ..server.authoritative import plan_profile
from ..zones import seed_words, word_stream
from .cache import ResolverCache
from .network import AuthorityNetwork, Location


#: Chance of asking a random NS of the set instead of the fastest one
#: (Müller et al. 2017); drawn only when there is more than one candidate.
SERVER_EXPLORATION = 0.25
#: Glue-chase depth on cyclically dependent domains (section 4.2.1).
CYCLIC_CHASE_DEPTH = 3
#: Retransmit schedule (RFC 1035 section 4.2.1 spirit): retries per
#: authoritative query after a drop, the first timeout in milliseconds,
#: the exponential growth factor applied per attempt, a per-attempt cap,
#: and a total time budget after which the resolver gives up early even
#: with retries left (SERVFAIL-on-exhaustion).  Against a server that
#: drops everything: 3 attempts, waits of 400, 800 and 1600 ms.
MAX_RETRIES = 2
RETRY_INITIAL_TIMEOUT_MS = 400.0
RETRY_BACKOFF = 2.0
RETRY_MAX_TIMEOUT_MS = 3000.0
RETRY_BUDGET_MS = 8000.0


@dataclass
class ResolverBehavior:
    """Behavioural profile of one resolver (or resolver pool).

    The defaults model a plain, conservative ISP resolver: no Q-min, no
    validation, EDNS0 4096, RTT-based dual-stack choice.
    """

    qname_minimization: bool = False
    validates_dnssec: bool = False
    explicit_ds_probability: float = 0.1  #: chance of an explicit DS query
    #: per referral (the DS normally arrives in the referral itself; an
    #: explicit query models revalidation).  Cloudflare is configured high,
    #: matching its DS-heavy profile in Figure 2d.
    edns_bufsize: int = 4096          #: 0 = send no OPT record at all.
    set_do: bool = False              #: DO bit (validators set this).
    family_policy: str = "rtt"        #: "rtt" | "fixed", for a dual-stack resolver.
    fixed_v6_ratio: float = 0.5       #: used when family_policy == "fixed".
    rtt_sharpness_ms: float = 15.0    #: logistic scale for "rtt" policy.
    v6_extra_rtt_ms: float = 0.0      #: per-resolver IPv6 path penalty (RTT).
    aggressive_nsec: bool = False

    def __post_init__(self):
        if self.family_policy not in ("rtt", "fixed"):
            raise ValueError(f"unknown family policy {self.family_policy!r}")
        if not 0.0 <= self.fixed_v6_ratio <= 1.0:
            raise ValueError("fixed_v6_ratio must be in [0, 1]")


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
    cache_hits: int = 0      #: answers served from cache (positive or negative)
    cache_misses: int = 0    #: resolutions that had to go to the network
    #: Auth sends per qtype; a ``defaultdict`` so a count is one store.
    by_qtype: Dict[int, int] = field(default_factory=partial(defaultdict, int))


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
def _edns_for(
    bufsize: int, dnssec_ok: bool
) -> Tuple[Optional[EdnsRecord], tuple, tuple]:
    """Interned OPT template per (bufsize, DO) pair — ``None`` for a
    bufsize of 0, which sends no OPT — with the plan-cache key part
    (:func:`~repro.server.authoritative.plan_profile`) of a UDP and of a TCP
    send under it.

    :class:`EdnsRecord` is frozen and the fleet exercises only a handful of
    behaviour profiles, so building either per send in ``_send`` would be
    pure overhead.
    """
    edns = EdnsRecord(udp_payload_size=bufsize, dnssec_ok=dnssec_ok) if bufsize > 0 else None
    return edns, plan_profile(edns, Transport.UDP), plan_profile(edns, Transport.TCP)


class Route(NamedTuple):
    """How resolvers at one site with equal family fields reach a server
    set (:func:`add_route`); shared and read-only."""

    #: Per server, in set order: ``(server, v4 RTT, v6 RTT, v6 probability)``,
    #: the probability ``None`` when no family draw is made.
    hops: Tuple[Tuple[AuthoritativeServer, float, float, Optional[float]], ...]
    fastest: int            #: index of the lowest-RTT hop (the first on a tie)
    family: Optional[int]   #: the family when no draw is made, else ``None``


def add_route(server_set: ServerSet, client_site: Site, key: tuple) -> Route:
    """Work out, keep in ``server_set.routes`` and return the route for
    ``key`` = ``(client_site.code, family_policy, fixed_v6_ratio,
    rtt_sharpness_ms, v6_extra_rtt_ms, has_v4, has_v6)``, a resolver's
    fields by value.  A single-family resolver sends on its family; only a
    dual-stack one draws: v6 at the fixed ratio, or logistic in the v4−v6
    RTT gap."""
    __, policy, fixed_v6_ratio, sharpness_ms, v6_extra_ms, has_v4, has_v6 = key
    if not has_v6:
        family = 4
    elif not has_v4:
        family = 6
    else:
        family = None
    hops = []
    for server in server_set.servers:
        rtt4 = server_set.rtt_ms(server, client_site)
        rtt6 = rtt4 + v6_extra_ms
        if family is not None:
            p6 = None
        elif policy == "fixed":
            p6 = fixed_v6_ratio
        else:
            gap = (rtt4 - rtt6) / max(sharpness_ms, 1e-6)
            p6 = 1.0 / (1.0 + np.exp(-gap))
        hops.append((server, rtt4, rtt6, p6))
    fastest = min(range(len(hops)), key=lambda i: hops[i][1])
    route = server_set.routes[key] = Route(tuple(hops), fastest, family)
    return route


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
    ):
        if v4 is None and v6 is None:
            raise ValueError("resolver needs at least one source address")
        if v4 is not None and v4.family != 4:
            raise ValueError("v4 address has wrong family")
        if v6 is not None and v6.family != 6:
            raise ValueError("v6 address has wrong family")
        self.resolver_id = resolver_id
        self.site = site
        self.v4 = v4
        self.v6 = v6
        self.behavior = behavior
        self.stats = ResolverStats()
        self.cache = ResolverCache(aggressive_nsec=behavior.aggressive_nsec)
        self._seed = seed
        #: ``seed``'s row of its fleet's ``seed_words`` table (:func:`seed_fleet`).
        self._words: Optional[Tuple[np.ndarray, int]] = None
        # Zone name's key (``Name.key``) → when its delegation / DS /
        # DNSKEY must be fetched again: tuples of bytes hash and compare in C.
        self._delegation_expiry: Dict[Tuple[bytes, ...], float] = {}
        self._ds_expiry: Dict[Tuple[bytes, ...], float] = {}
        self._dnskey_expiry: Dict[Tuple[bytes, ...], float] = {}

    @cached_property
    def _rng(self) -> np.random.Generator:
        """``default_rng(seed)``'s stream, built from the seed's words on first
        draw: much of a scaled-down run's fleet is never asked anything."""
        table, row = self._words or (seed_words([self._seed]), 0)
        return word_stream(table[row])

    def reset_session(self) -> None:
        """Restore the freshly-constructed state for fleet reuse.

        Rewinds everything a simulation run mutates — stats, cache,
        delegation/DNSSEC expiries, and the RNG stream (dropped; the next
        draw seeds it again from the construction seed) — so a reused
        resolver replays queries bit-identically to a newly built one.
        """
        self.stats = ResolverStats()
        self.cache = ResolverCache(aggressive_nsec=self.behavior.aggressive_nsec)
        self.__dict__.pop("_rng", None)
        self._delegation_expiry.clear()
        self._ds_expiry.clear()
        self._dnskey_expiry.clear()

    # ------------------------------------------------------------------ API --

    def resolve(
        self,
        network: AuthorityNetwork,
        now: float,
        qname: Name,
        qtype: RRType,
    ) -> RCode:
        """Resolve one client query at ``now``, emitting authoritative
        queries as a side effect.  Returns the RCODE the client would
        receive.
        """
        self.stats.client_queries += 1
        return self._resolve(network, _Session(now), qname, qtype, depth=0)

    # --------------------------------------------------------------- internals --

    def _resolve(
        self,
        network: AuthorityNetwork,
        session: _Session,
        qname: Name,
        qtype: RRType,
        depth: int,
        located: Optional[Location] = None,  # network.locate(qname), if known
    ) -> RCode:
        if depth > CYCLIC_CHASE_DEPTH:
            self.stats.servfails += 1
            return RCode.SERVFAIL

        cached = self.cache.get(session.now, qname, qtype)
        if cached is not None:
            self.stats.cache_hits += 1
            return RCode.NOERROR
        negative = self.cache.get_negative(session.now, qname)
        if negative is not None:
            self.stats.cache_hits += 1
            return negative
        self.stats.cache_misses += 1

        if located is None:
            located = network.locate(qname)
        if located is None:
            return self._resolve_at_root(network, session, qname, qtype)
        tld, tld_set, cut = located

        # Make sure we know the TLD's nameservers (priming via the root).
        if self._delegation_expiry.get(tld.key, 0.0) <= session.now:
            self._ensure_tld_delegation(network, session, tld)

        # RFC 8198: a cached NSEC range can prove NXDOMAIN with no query.
        if self.cache.nsec_covers(tld, qname):
            self.cache.put_negative(session.now, qname, RCode.NXDOMAIN)
            return RCode.NXDOMAIN

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

        if cut.key in network.leaf.partner_ns:
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
        # Whole seconds, at least one: the marker's TTL is the line's.
        ttl = int(ttl) if ttl >= 1.0 else 1
        self.cache.put(now, qname, qtype, _positive_marker(ttl), ttl)

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
        """Query the root for the TLD delegation, once the cached one has
        expired — the only regular ccTLD-driven traffic the root sees from a
        warm resolver."""
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
        walk = network.cyclic_walk(domain)
        if depth >= CYCLIC_CHASE_DEPTH:
            # Every address query would stop at the depth limit at once.
            self.stats.servfails += 2 * len(walk)
            return
        for ns_name, located in walk:
            for addr_type in (RRType.A, RRType.AAAA):
                self._resolve(network, session, ns_name, addr_type, depth + 1, located)

    # -- transport ------------------------------------------------------------------

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

        Each attempt reads its server, family and RTTs off the set's route
        for this resolver's site and family fields (:func:`add_route`): mostly the fastest
        server, with exploration (Müller et al. 2017), skipping servers that
        already timed out while another remains.

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
        stats.by_qtype[int(qtype)] += 1
        failed: set = set()
        qname_key = qname.to_text().encode() if faults is not None else b""
        last_server_id: Optional[str] = None
        spent_timeout_ms = 0.0
        edns, udp_profile, tcp_profile = _edns_for(behavior.edns_bufsize, behavior.set_do)
        route_key = (
            self.site.code, behavior.family_policy, behavior.fixed_v6_ratio,
            behavior.rtt_sharpness_ms, behavior.v6_extra_rtt_ms,
            self.v4 is not None, self.v6 is not None,
        )
        route = server_set.routes.get(route_key)
        if route is None:
            route = add_route(server_set, self.site, route_key)
        rng = self._rng
        for attempt in range(MAX_RETRIES + 1):
            hops = route.hops
            if failed:
                hops = [hop for hop in hops if hop[0].server_id not in failed] or hops
            if len(hops) > 1 and rng.random() < SERVER_EXPLORATION:
                hop = hops[int(rng.integers(len(hops)))]
            elif failed:
                hop = min(hops, key=lambda hop: hop[1])  # the fastest left
            else:
                hop = hops[route.fastest]
            server, rtt4, rtt6, p6 = hop
            family = route.family if p6 is None else (6 if rng.random() < p6 else 4)
            src, rtt = (self.v6, rtt6) if family == 6 else (self.v4, rtt4)
            rng.integers(65536)  # the message id
            if faults is not None:
                rtt += faults.extra_latency_ms(server.server_id, session.now, rtt)
            if attempt:
                stats.retransmits += 1
                if server.server_id != last_server_id:
                    stats.failovers += 1
            last_server_id = server.server_id
            stats.auth_queries += 1
            send_time = session.tick(rtt)
            if faults is not None and faults.udp_fate(
                server.server_id, family, send_time, qname_key
            ).dropped:
                # Lost in transit, so the server never sees it: wait out the
                # timeout, back off exponentially, and prefer a different
                # server next.
                stats.drops += 1
                failed.add(server.server_id)
                timeout_ms = min(
                    RETRY_INITIAL_TIMEOUT_MS * RETRY_BACKOFF ** attempt,
                    RETRY_MAX_TIMEOUT_MS,
                )
                session.tick(timeout_ms)
                spent_timeout_ms += timeout_ms
                if spent_timeout_ms >= RETRY_BUDGET_MS:
                    break  # total budget exhausted: give up early
                continue
            response = server.answer(
                send_time, src, Transport.UDP, qname, qtype, edns, udp_profile
            )
            if response.truncated:
                tcp_rtt = rtt * float(1.0 + 0.05 * rng.random())
                stats.auth_queries += 1
                stats.tcp_retries += 1
                response = server.answer(
                    session.tick(2 * tcp_rtt),
                    src,
                    Transport.TCP,
                    qname,
                    qtype,
                    edns,
                    tcp_profile,
                    tcp_rtt,
                )
            return response
        stats.retry_exhausted += 1
        return None

    # -- NSEC learning ------------------------------------------------------------------

    def _learn_nsec(self, zone: Name, response: ResponsePlan) -> None:
        """Harvest NSEC ranges from a negative answer (for RFC 8198)."""
        if not self.behavior.aggressive_nsec:
            return
        for record in response.authorities:
            if record.rrtype is RRType.NSEC:
                self.cache.add_nsec(zone, record.name, record.rdata.next_name)


def seed_fleet(resolvers: Sequence[SimResolver]) -> None:
    """Hash the fleet's seeds in one :func:`~repro.zones.seed_words` table."""
    table = seed_words([resolver._seed for resolver in resolvers])
    for row, resolver in enumerate(resolvers):
        resolver._words = (table, row)
