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
from typing import Dict, Optional, Sequence, Set, Tuple

from ..dnscore import Name, RCode, RRType
from ..server import ServerSet
from ..zones import Zone


@dataclass
class LeafAnswer:
    """Outcome of a query to an (unobserved) leaf authority."""

    rcode: RCode
    ttl: float = 3600.0
    exists: bool = True


@dataclass
class CyclicPair:
    """Two domains whose NS records point into each other (a cyclic
    dependency, Pappas et al. 2004).  Resolution of either can never
    complete: each attempt forces address ("glue") queries for the
    partner's nameservers back at the TLD."""

    first: Name
    second: Name

    def partner(self, domain: Name) -> Optional[Name]:
        if domain.key == self.first.key:
            return self.second
        if domain.key == self.second.key:
            return self.first
        return None


class SyntheticLeafAuthority:
    """Deterministic stand-in for all delegated-domain nameservers.

    Existence rules (hash-based, stable across runs):

    * every delegated domain has A records; ~60% have AAAA;
    * ``www.<domain>`` exists; other single-label subdomains mostly don't;
    * MX/TXT exist for ~70%/50% of domains.
    """

    def __init__(self, cyclic_pairs: Sequence[CyclicPair] = ()):
        self.cyclic_pairs = list(cyclic_pairs)
        #: The keys (``Name.key``) of every domain in a cyclic pair.
        self._cyclic_domains: Set[Tuple[bytes, ...]] = set()
        for pair in self.cyclic_pairs:
            self._cyclic_domains.add(pair.first.key)
            self._cyclic_domains.add(pair.second.key)

    def is_cyclic(self, domain: Name) -> bool:
        return domain.key in self._cyclic_domains

    def cyclic_partner(self, domain: Name) -> Optional[Name]:
        for pair in self.cyclic_pairs:
            partner = pair.partner(domain)
            if partner is not None:
                return partner
        return None

    @staticmethod
    def _stable_hash(name: Name, salt: str) -> int:
        return zlib.crc32((salt + name.to_text().lower()).encode())

    def answer(self, domain: Name, qname: Name, qtype: RRType) -> LeafAnswer:
        """Answer a query for ``qname`` under delegated ``domain``, the zone
        cut covering it: an ancestor-or-self of ``qname``, which therefore
        *is* ``qname`` exactly when it has as many labels."""
        if domain.key in self._cyclic_domains:
            return LeafAnswer(RCode.SERVFAIL, ttl=0.0, exists=False)
        h = self._stable_hash(qname, qtype.name)
        if qname.label_count == domain.label_count:
            if qtype is RRType.A:
                return LeafAnswer(RCode.NOERROR)
            if qtype is RRType.AAAA:
                exists = h % 100 < 60
                return LeafAnswer(RCode.NOERROR, exists=exists)
            if qtype is RRType.MX:
                return LeafAnswer(RCode.NOERROR, exists=h % 100 < 70)
            if qtype is RRType.TXT:
                return LeafAnswer(RCode.NOERROR, exists=h % 100 < 50)
            if qtype in (RRType.NS, RRType.SOA, RRType.DNSKEY):
                return LeafAnswer(RCode.NOERROR)
            return LeafAnswer(RCode.NOERROR, exists=False)
        # Subdomain: www always exists; others exist 30% of the time.
        first_label = qname.labels[0] if qname.labels else b""
        exists = first_label == b"www" or self._stable_hash(qname, "sub") % 100 < 30
        if not exists:
            return LeafAnswer(RCode.NXDOMAIN, exists=False)
        if qtype in (RRType.A, RRType.AAAA):
            v6_exists = qtype is RRType.A or h % 100 < 60
            return LeafAnswer(RCode.NOERROR, exists=v6_exists)
        return LeafAnswer(RCode.NOERROR, exists=h % 100 < 20)


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
    faults:
        Optional :class:`~repro.faults.FaultInjector` applied to every
        resolver→authoritative exchange on this network.  ``None`` (the
        default) is the loss-free, always-up network of the seed.
    """

    def __init__(
        self,
        root: ServerSet,
        tlds: Dict[Name, ServerSet],
        leaf: Optional[SyntheticLeafAuthority] = None,
        faults=None,
    ):
        self.root = root
        self.tlds = dict(tlds)
        self.leaf = leaf if leaf is not None else SyntheticLeafAuthority()
        self.faults = faults
        #: A TLD origin's key (``Name.key``) → its server set.
        self._tld_sets: Dict[Tuple[bytes, ...], ServerSet] = {
            origin.key: server_set for origin, server_set in self.tlds.items()
        }
        #: A TLD's key (its one casefolded label) → its zone: a qname's TLD
        #: is ``qname.canonical[:1]``.
        self._tld_zones: Dict[Tuple[bytes, ...], Zone] = {
            origin.key: server_set.servers[0].zone
            for origin, server_set in self.tlds.items()
            if origin.label_count == 1
        }

    def server_set_for(self, origin: Name) -> Optional[ServerSet]:
        """The simulated server set authoritative for ``origin`` (root or a
        TLD), or None for zones below the simulated layer."""
        if not origin.label_count:
            return self.root
        return self._tld_sets.get(origin.key)

    def tld_of(self, qname: Name) -> Optional[Name]:
        """The simulated TLD covering ``qname`` (in the query's spelling),
        if any."""
        if qname.canonical[:1] in self._tld_zones:
            return qname.ancestor_with_labels(1)
        return None

    def registered_cut(self, qname: Name) -> Optional[Name]:
        """The delegated (registered-domain) zone cut covering ``qname``
        within its simulated TLD, or None.

        Uses the TLD zone's actual delegation table, so the resolver's
        control flow mirrors what referrals would teach it.
        """
        zone = self._tld_zones.get(qname.canonical[:1])
        return None if zone is None else zone.covering_delegation(qname)
