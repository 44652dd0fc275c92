"""The authority-side network a resolver resolves against.

An :class:`AuthorityNetwork` bundles the simulated authoritative
infrastructure: the root server set, TLD server sets (the capture vantage
points), and a :class:`SyntheticLeafAuthority` standing in for the millions
of second-level-domain nameservers whose traffic the paper does not observe.

Leaf authorities are answered *synthetically* (no Message round-trip) — their
traffic is never captured, so only their outcomes (answer vs SERVFAIL, TTLs)
matter to the resolver's behaviour toward the captured servers.  The leaf
layer is also where the Feb-2020 `.nz` cyclic-dependency misconfiguration
(paper section 4.2.1) is injected.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from ..dnscore import Name, RCode, RRType
from ..server import ServerSet
from ..zones import Zone


@dataclass(frozen=True)
class LeafAnswer:
    """Outcome of a query to an (unobserved) leaf authority."""

    rcode: RCode
    ttl: float = 3600.0
    exists: bool = True


#: Every outcome a leaf authority gives, built once: answers are shared.
_ANSWER = LeafAnswer(RCode.NOERROR)
_NODATA = LeafAnswer(RCode.NOERROR, exists=False)
_NXDOMAIN = LeafAnswer(RCode.NXDOMAIN, exists=False)
_SERVFAIL = LeafAnswer(RCode.SERVFAIL, ttl=0.0, exists=False)


@dataclass
class CyclicPair:
    """Two domains whose NS records point into each other (a cyclic
    dependency, Pappas et al. 2004).  Resolution of either can never
    complete: each attempt forces address ("glue") queries for the
    partner's nameservers back at the TLD."""

    first: Name
    second: Name


class SyntheticLeafAuthority:
    """Deterministic stand-in for all delegated-domain nameservers.

    Existence rules (hash-based, stable across runs):

    * every delegated domain has A records; ~60% have AAAA;
    * ``www.<domain>`` exists; other single-label subdomains mostly don't;
    * MX/TXT exist for ~70%/50% of domains.
    """

    def __init__(self, cyclic_pairs: Sequence[CyclicPair] = ()):
        #: The key (``Name.key``) of every domain in a cyclic pair → its
        #: partner's nameserver names, ``ns1`` and ``ns2``: built once, so
        #: every step of a cyclic walk asks with the same names.
        self.partner_ns: Dict[Tuple[bytes, ...], Tuple[Name, ...]] = {}
        for pair in cyclic_pairs:
            for domain, partner in ((pair.first, pair.second), (pair.second, pair.first)):
                self.partner_ns[domain.key] = (
                    partner.prepend(b"ns1"), partner.prepend(b"ns2"),
                )

    @staticmethod
    def _stable_hash(name: Name, salt: str) -> int:
        return zlib.crc32((salt + name.to_text().lower()).encode())

    def answer(self, domain: Name, qname: Name, qtype: RRType) -> LeafAnswer:
        """Answer a query for ``qname`` under delegated ``domain``, the zone
        cut covering it: an ancestor-or-self of ``qname``, which therefore
        *is* ``qname`` exactly when it has as many labels."""
        if domain.key in self.partner_ns:
            return _SERVFAIL
        # The name's hash decides only what the rules leave to chance.
        if qname.label_count == domain.label_count:
            if qtype is RRType.A or qtype in (RRType.NS, RRType.SOA, RRType.DNSKEY):
                return _ANSWER
            if qtype is RRType.AAAA:
                share = 60
            elif qtype is RRType.MX:
                share = 70
            elif qtype is RRType.TXT:
                share = 50
            else:
                return _NODATA
        else:
            # Subdomain: www always exists; others exist 30% of the time.
            if qname.labels[0] != b"www" and self._stable_hash(qname, "sub") % 100 >= 30:
                return _NXDOMAIN
            if qtype is RRType.A:
                return _ANSWER
            share = 60 if qtype is RRType.AAAA else 20
        return _ANSWER if self._stable_hash(qname, qtype.name) % 100 < share else _NODATA


#: Where a name sits (:meth:`AuthorityNetwork.locate`): its TLD, the TLD's
#: server set, and the registered-domain zone cut covering it, if any.
Location = Tuple[Name, ServerSet, Optional[Name]]


class AuthorityNetwork:
    """All authoritative infrastructure a resolver can reach.

    Parameters
    ----------
    root:
        The root :class:`ServerSet` (captured only in B-Root scenarios).
    tlds:
        Mapping of TLD origin to its :class:`ServerSet` (the ccTLD
        vantage points).
    leaf:
        The synthetic leaf authority.

    ``faults`` starts as ``None``, the loss-free, always-up network; the
    driver (or the live service) sets it to the
    :class:`~repro.faults.FaultInjector` applied to every
    resolver→authoritative exchange on this network.
    """

    def __init__(
        self,
        root: ServerSet,
        tlds: Dict[Name, ServerSet],
        leaf: Optional[SyntheticLeafAuthority] = None,
    ):
        self.root = root
        self.leaf = leaf if leaf is not None else SyntheticLeafAuthority()
        self.faults = None
        #: A TLD's key (its one casefolded label) → its zone and server
        #: set: a qname's TLD is ``qname.canonical[:1]``.
        self._tlds: Dict[Tuple[bytes, ...], Tuple[Zone, ServerSet]] = {
            origin.key: (server_set.servers[0].zone, server_set)
            for origin, server_set in tlds.items()
            if origin.label_count == 1
        }
        #: A cyclic domain's key → :meth:`cyclic_walk`.
        self._walks: Dict[Tuple[bytes, ...], tuple] = {}

    def locate(self, qname: Name) -> Optional[Location]:
        """Where ``qname`` sits in the simulated hierarchy, in one lookup:
        its TLD (in the query's spelling), the TLD's server set, and the
        delegated (registered-domain) zone cut covering it, if any — or
        ``None`` when no simulated TLD covers it.

        The cut comes from the TLD zone's actual delegation table, so the
        resolver's control flow mirrors what referrals would teach it.
        """
        found = self._tlds.get(qname.canonical[:1])
        if found is None:
            return None
        zone, tld_set = found
        return qname.ancestor_with_labels(1), tld_set, zone.covering_delegation(qname)

    def cyclic_walk(self, domain: Name) -> Tuple[Tuple[Name, Optional[Location]], ...]:
        """The nameserver names of a cyclic ``domain``'s partner
        (``leaf.partner_ns``), each with where it sits (:meth:`locate`):
        what every step of a walk over the pair asks, worked out once."""
        walk = self._walks.get(domain.key)
        if walk is None:
            walk = self._walks[domain.key] = tuple(
                (ns_name, self.locate(ns_name))
                for ns_name in self.leaf.partner_ns[domain.key]
            )
        return walk
