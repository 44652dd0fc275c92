"""Authoritative zone model.

A :class:`Zone` holds the RRsets an authoritative server answers from, knows
where its delegations (zone cuts) are, and can classify any query into the
outcomes a real nameserver produces:

* **answer** — the name and type exist in authoritative data,
* **delegation** — the name falls below a zone cut; respond with a referral
  (NS + DS + glue),
* **nodata** — the name exists but not with the queried type,
* **nxdomain** — the name does not exist (with NSEC proof when signed).

This classification is exactly what determines the RCODE mix the paper's
"junk" metric is computed from, and the DS/NSEC material drives the
DNSSEC-related query behaviour of validating resolvers.
"""

from __future__ import annotations

import bisect
import enum
import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..dnscore import (
    DNSKEYRdata,
    DSRdata,
    Name,
    NSECRdata,
    NSRdata,
    Rdata,
    ResourceRecord,
    RRSIGRdata,
    RRType,
    SOARdata,
)


#: TTL of the apex SOA and DNSKEY, of delegation NS and DS records, and of
#: NSEC proofs (seconds).
DEFAULT_TTL = 3600


class LookupOutcome(enum.Enum):
    """Classification of a query against a zone."""

    ANSWER = "answer"
    DELEGATION = "delegation"
    NODATA = "nodata"
    NXDOMAIN = "nxdomain"


@dataclass
class LookupResult:
    """Everything a server needs to build the response.

    :meth:`Zone.lookup` memoises every result on the zone and shares it with
    every query it answers — every qname under a cut, every qname in one
    NSEC interval, on every server of the set — so its section lists are
    read-only.
    """

    outcome: LookupOutcome
    answers: List[ResourceRecord] = field(default_factory=list)
    authorities: List[ResourceRecord] = field(default_factory=list)
    additionals: List[ResourceRecord] = field(default_factory=list)
    #: The name the sections hang off: the sections are the same for any
    #: qname at or below it.  A referral's zone cut and an answer's qname
    #: (each in the spelling of the query that first asked), or the origin
    #: for a negative, whose sections hold zone-owned names only.  ``None``
    #: only on a result built by hand.
    anchor: Optional[Name] = None
    #: The consumer's own memo about this shared body (the server keeps its
    #: wire-size calibration here); it lives and dies with the result.
    sizing: Optional[object] = field(default=None, compare=False, repr=False)


@dataclass
class RRset:
    """An owner/type grouping of records sharing a TTL."""

    name: Name
    rrtype: RRType
    ttl: int
    rdatas: List[Rdata]

    def to_records(self) -> List[ResourceRecord]:
        return [ResourceRecord(self.name, self.rrtype, self.ttl, rd) for rd in self.rdatas]


#: Entries a zone's lookup / signature memo may hold before it is dropped
#: wholesale.  Referrals, answers and signatures are keyed by the *query's*
#: spelling of a zone name, negatives by their NSEC interval, so the
#: population is zone-bounded in simulation; the bound only matters to a
#: live frontend fed 0x20-randomised names.
MEMO_LIMIT = 65536


def _fake_signature(name: Name, rrtype: RRType, origin: Name) -> RRSIGRdata:
    """Deterministic simulated RRSIG for a (name, type) pair.

    The signature bytes are a hash — not cryptographically meaningful, but
    size-realistic: TLDs ran RSA/SHA-256 with 2048-bit keys in 2018-2020,
    so signatures are 256 octets.  Signature size is what pushes signed
    responses past a 512-octet EDNS0 buffer and forces the TCP fallback
    the paper measures (section 4.4).
    """
    digest = hashlib.sha256(
        name.to_text().encode() + bytes([int(rrtype) & 0xFF])
    ).digest()
    return RRSIGRdata(
        type_covered=rrtype,
        algorithm=8,
        labels=name.label_count,
        original_ttl=3600,
        expiration=1900000000,
        inception=1500000000,
        key_tag=int.from_bytes(digest[:2], "big"),
        signer=origin,
        signature=digest * 8,  # 256 octets (RSA-2048)
    )


class Zone:
    """A DNS zone: apex records, in-zone data, and delegations.

    Parameters
    ----------
    origin:
        The zone apex (e.g. ``Name.from_text("nl")``).
    signed:
        Whether the zone is DNSSEC-signed.  Signed zones answer DNSKEY at
        the apex, attach DS records to (secure) delegations, include RRSIGs
        when the query asks for DNSSEC (DO bit), and prove NXDOMAIN with
        NSEC records.
    """

    def __init__(self, origin: Name, signed: bool = True):
        self.origin = origin
        self.signed = signed
        self._rrsets: Dict[Tuple[Name, RRType], RRset] = {}
        self._names: set = set()
        self._empty_non_terminals: set = set()
        self._types_by_name: Dict[Name, set] = {}
        #: Cut's canonical key → its NS RRset; the label counts of the cuts
        #: present, deepest first.
        self._delegations: Dict[Tuple[bytes, ...], RRset] = {}
        self._cut_depths: Tuple[int, ...] = ()
        self._ds: Dict[Name, RRset] = {}
        self._sorted_names: Optional[Tuple[List[Name], List[tuple]]] = None
        self._sealed = False
        #: Every lookup outcome, shared until the content next changes:
        #: (cut labels as spelled by the query, DO) → a referral;
        #: (qname labels as spelled, qtype, DO) → an answer;
        #: (outcome, DO ∧ signed, NSEC interval index or None) → a negative.
        self._lookups: Dict[tuple, LookupResult] = {}
        #: (owner labels as spelled, type) → simulated RRSIG.
        self._signatures: Dict[Tuple[Tuple[bytes, ...], RRType], RRSIGRdata] = {}
        # Apex SOA is mandatory; callers overwrite via add_rrset if desired.
        self.add_rrset(
            RRset(
                origin,
                RRType.SOA,
                DEFAULT_TTL,
                [
                    SOARdata(
                        origin.prepend(b"ns1"),
                        origin.prepend(b"hostmaster"),
                        serial=1,
                    )
                ],
            )
        )
        if signed:
            # Key sizes match the RSA keys TLDs ran in 2018-2020 (KSK-2048,
            # ZSK-1024): DNSKEY responses must be realistically large, since
            # they are the classic cause of truncation and TCP fallback.
            ksk_seed = hashlib.sha256(origin.to_text().encode() + b"ksk").digest()
            zsk_seed = hashlib.sha256(origin.to_text().encode() + b"zsk").digest()
            self.add_rrset(
                RRset(
                    origin,
                    RRType.DNSKEY,
                    DEFAULT_TTL,
                    [
                        DNSKEYRdata(0x0101, 3, 8, ksk_seed * 8),   # 256-octet key
                        DNSKEYRdata(0x0100, 3, 8, zsk_seed * 4),   # 128-octet key
                    ],
                )
            )

    # -- construction --------------------------------------------------------

    def seal(self) -> "Zone":
        """Freeze the content: :meth:`add_rrset` / :meth:`add_delegation`
        raise from now on.  The world memo (:mod:`repro.sim.worlds`) seals
        every zone it hands out, because any number of simulated worlds
        serve from the same object; the lookup memos keep filling."""
        self._sealed = True
        return self

    def add_rrset(self, rrset: RRset) -> None:
        """Add (or replace) an RRset.  The owner must be in-bailiwick."""
        if self._sealed:
            raise ValueError(
                f"zone {self.origin.to_text()} is sealed (shared between "
                "simulated worlds); build a zone of your own to change it"
            )
        if not rrset.name.is_subdomain_of(self.origin):
            raise ValueError(
                f"{rrset.name.to_text()} is out of zone {self.origin.to_text()}"
            )
        self._rrsets[(rrset.name, rrset.rrtype)] = rrset
        self._names.add(rrset.name)
        self._types_by_name.setdefault(rrset.name, set()).add(rrset.rrtype)
        ancestor = rrset.name
        while ancestor.label_count > self.origin.label_count + 1:
            ancestor = ancestor.parent()
            self._empty_non_terminals.add(ancestor)
        self._sorted_names = None
        self._lookups.clear()
        if rrset.rrtype is RRType.NS and rrset.name != self.origin:
            self._delegations[rrset.name.canonical] = rrset
            depth = rrset.name.label_count
            if depth not in self._cut_depths:
                self._cut_depths = tuple(sorted((*self._cut_depths, depth), reverse=True))
        if rrset.rrtype is RRType.DS:
            self._ds[rrset.name] = rrset

    def add_delegation(
        self,
        child: Name,
        nameservers: Sequence[Name],
        secure: bool = False,
    ) -> None:
        """Register a delegation (zone cut) to ``child``.

        ``secure=True`` attaches a simulated DS RRset, which is what makes
        validating resolvers fetch the child's DNSKEY.
        """
        self.add_rrset(
            RRset(child, RRType.NS, DEFAULT_TTL, [NSRdata(ns) for ns in nameservers])
        )
        if secure and self.signed:
            # Registries commonly publish two DS digests per child (SHA-1 +
            # SHA-256, or both keys during a KSK rollover); together with
            # the RRSIG this puts signed referrals past the classic
            # 512-octet bound — the size regime behind the paper's
            # truncation/TCP findings.
            digest256 = hashlib.sha256(child.to_text().encode()).digest()
            digest1 = digest256[:20]
            key_tag = int.from_bytes(digest256[:2], "big")
            self.add_rrset(
                RRset(
                    child,
                    RRType.DS,
                    DEFAULT_TTL,
                    [
                        DSRdata(key_tag, 8, 2, digest256),
                        DSRdata(key_tag, 8, 1, digest1),
                    ],
                )
            )

    # -- introspection --------------------------------------------------------

    @property
    def delegation_names(self) -> List[Name]:
        return [rrset.name for rrset in self._delegations.values()]

    def has_name(self, name: Name) -> bool:
        """True if the name exists in the zone (possibly as an empty
        non-terminal, i.e. an ancestor of an existing name)."""
        return name in self._names or name in self._empty_non_terminals

    # -- zone-cut search -------------------------------------------------------

    def covering_delegation(self, qname: Name) -> Optional[Name]:
        """The nearest zone cut at or above ``qname``, if any, in the
        query's spelling.

        Tests the leading labels of the query's canonical key against the
        delegation table at each depth a cut exists, deepest first, skipping
        depths below the qname (a cut with as many labels as the qname is
        tested at its own depth).
        """
        key = qname.canonical
        count = qname.label_count
        delegations = self._delegations
        for depth in self._cut_depths:
            if depth <= count and key[:depth] in delegations:
                return qname.ancestor_with_labels(depth)
        return None

    # -- NSEC chain --------------------------------------------------------------

    def _sorted(self) -> Tuple[List[Name], List[tuple]]:
        """The zone's names in canonical order, and their sort keys."""
        if self._sorted_names is None:
            names = sorted(self._names, key=Name.canonical_key)
            self._sorted_names = (names, [n.canonical for n in names])
        return self._sorted_names

    def _interval(self, qname: Name) -> int:
        """Where ``qname`` falls in the canonical order: the index of the
        first zone name at or after it.  The NSEC proof is a function of
        this index alone."""
        return bisect.bisect_left(self._sorted()[1], qname.canonical)

    def nsec_for(self, qname: Name) -> Optional[ResourceRecord]:
        """The NSEC record proving ``qname`` does not exist (signed zones)."""
        if not self.signed:
            return None
        names = self._sorted()[0]
        if not names:
            return None
        index = self._interval(qname)
        owner = names[index - 1] if index > 0 else names[-1]
        next_name = names[index % len(names)] if index < len(names) else names[0]
        types = tuple(sorted(self._types_by_name.get(owner, ()), key=int))
        return ResourceRecord(
            owner, RRType.NSEC, DEFAULT_TTL, NSECRdata(next_name, types)
        )

    # -- query classification -----------------------------------------------------

    def lookup(self, qname: Name, qtype: RRType, dnssec_ok: bool = False) -> LookupResult:
        """Classify a query and assemble response sections.

        Follows the RFC 1034 section 4.3.2 algorithm restricted to what a
        TLD/root server needs (no wildcards, no CNAME chasing across cuts).
        Every result is memoised (see :attr:`LookupResult.anchor`): the
        first query of its key builds it, the rest share it.
        """
        if not qname.is_subdomain_of(self.origin):
            # Out-of-bailiwick query: REFUSED territory; callers map this.
            raise ValueError(f"{qname.to_text()} is not within {self.origin.to_text()}")

        lookups = self._lookups
        cut = self.covering_delegation(qname)
        if cut is not None and not (
            qtype == RRType.DS and qname.label_count == cut.label_count
        ):
            # Below (or at) a zone cut: referral.  Exception: a DS query for
            # the cut itself (the cut covers the qname, so it is the qname
            # when as long) is answered authoritatively by the parent.  The
            # cut's spelling is part of the key: its case shows in the RRSIG
            # owner and signature.
            key = (cut.labels, dnssec_ok)
            return lookups.get(key) or self._remember(
                key, self._build_referral(cut, dnssec_ok)
            )

        rrset = self._rrsets.get((qname, qtype))
        if rrset is not None:
            key = (qname.labels, qtype, dnssec_ok)
            return lookups.get(key) or self._remember(
                key, self._answer(qname, rrset, dnssec_ok)
            )

        outcome = LookupOutcome.NODATA if self.has_name(qname) else LookupOutcome.NXDOMAIN
        proof = dnssec_ok and self.signed
        key = (outcome, proof, self._interval(qname) if proof else None)
        return lookups.get(key) or self._remember(
            key, self._negative(qname, outcome, dnssec_ok)
        )

    def _remember(self, key: tuple, result: LookupResult) -> LookupResult:
        if len(self._lookups) >= MEMO_LIMIT:
            self._lookups.clear()
        self._lookups[key] = result
        return result

    def _signature(self, name: Name, rrtype: RRType) -> RRSIGRdata:
        """:func:`_fake_signature` under this zone's key, hashed once per
        (owner spelling, type) — a pure function of both."""
        key = (name.labels, rrtype)
        signature = self._signatures.get(key)
        if signature is None:
            if len(self._signatures) >= MEMO_LIMIT:
                self._signatures.clear()
            signature = self._signatures[key] = _fake_signature(
                name, rrtype, self.origin
            )
        return signature

    def _answer(self, qname: Name, rrset: RRset, dnssec_ok: bool) -> LookupResult:
        result = LookupResult(
            LookupOutcome.ANSWER, answers=rrset.to_records(), anchor=qname
        )
        if dnssec_ok and self.signed:
            result.answers.append(
                ResourceRecord(
                    qname,
                    RRType.RRSIG,
                    rrset.ttl,
                    self._signature(qname, rrset.rrtype),
                )
            )
        return result

    def _build_referral(self, cut: Name, dnssec_ok: bool) -> LookupResult:
        ns_rrset = self._delegations[cut.canonical]
        result = LookupResult(
            LookupOutcome.DELEGATION,
            authorities=ns_rrset.to_records(),
            anchor=cut,
        )
        ds_rrset = self._ds.get(cut)
        if dnssec_ok and self.signed:
            if ds_rrset is not None:
                result.authorities.extend(ds_rrset.to_records())
                result.authorities.append(
                    ResourceRecord(
                        cut,
                        RRType.RRSIG,
                        ds_rrset.ttl,
                        self._signature(cut, RRType.DS),
                    )
                )
            else:
                # Proof of insecure delegation: NSEC showing no DS bit.
                nsec = self.nsec_for(cut)
                if nsec is not None:
                    result.authorities.append(nsec)
        # Glue for in-bailiwick nameservers.
        for rdata in ns_rrset.rdatas:
            target = rdata.target
            if target.is_subdomain_of(self.origin):
                for addr_type in (RRType.A, RRType.AAAA):
                    glue = self._rrsets.get((target, addr_type))
                    if glue is not None:
                        result.additionals.extend(glue.to_records())
        return result

    def _negative(self, qname: Name, outcome: LookupOutcome, dnssec_ok: bool) -> LookupResult:
        """NXDOMAIN / NODATA for ``qname``: the SOA, and with a proof the
        NSEC covering ``qname`` plus, for NXDOMAIN, the wildcard's — each
        with its RRSIG.  All of them are zone names, so the result depends
        on ``qname`` only through :meth:`_interval`."""
        soa = self._rrsets[(self.origin, RRType.SOA)]
        result = LookupResult(outcome, authorities=soa.to_records(), anchor=self.origin)
        if dnssec_ok and self.signed:
            result.authorities.append(
                ResourceRecord(
                    self.origin,
                    RRType.RRSIG,
                    soa.ttl,
                    self._signature(self.origin, RRType.SOA),
                )
            )
            nsec = self.nsec_for(qname)
            if nsec is not None:
                result.authorities.append(nsec)
                result.authorities.append(
                    ResourceRecord(
                        nsec.name,
                        RRType.RRSIG,
                        nsec.ttl,
                        self._signature(nsec.name, RRType.NSEC),
                    )
                )
            if outcome is LookupOutcome.NXDOMAIN:
                # RFC 4035 section 3.1.3.2: NXDOMAIN also needs the proof
                # that no wildcard could have matched (*.origin).  This
                # second NSEC+RRSIG pair is why real signed NXDOMAINs run
                # to ~1KB.
                wildcard = self.origin.prepend(b"*")
                wildcard_nsec = self.nsec_for(wildcard)
                if wildcard_nsec is not None and wildcard_nsec.name != (
                    nsec.name if nsec is not None else None
                ):
                    result.authorities.append(wildcard_nsec)
                    result.authorities.append(
                        ResourceRecord(
                            wildcard_nsec.name,
                            RRType.RRSIG,
                            wildcard_nsec.ttl,
                            self._signature(wildcard_nsec.name, RRType.NSEC),
                        )
                    )
        return result
