"""DNS protocol enumerations: RR types, classes, opcodes, and RCODEs.

Values follow the IANA DNS parameters registry.  Only the subset exercised by
the paper's analysis is given first-class rdata implementations, but the
enums carry every code point the capture schema may record so that decoding
never fails on an unknown-but-valid type.
"""

from __future__ import annotations

import enum
from functools import lru_cache


class RRType(enum.IntEnum):
    """Resource-record TYPE code points (RFC 1035 and successors)."""

    A = 1
    NS = 2
    CNAME = 5
    SOA = 6
    PTR = 12
    MX = 15
    TXT = 16
    AAAA = 28
    SRV = 33
    DS = 43
    RRSIG = 46
    NSEC = 47
    DNSKEY = 48
    NSEC3 = 50
    OPT = 41
    CAA = 257
    ANY = 255

    @classmethod
    def from_text(cls, text: str) -> "RRType":
        try:
            return cls[text.upper()]
        except KeyError:
            raise ValueError(f"unknown RR type {text!r}") from None

    @classmethod
    @lru_cache(maxsize=1024)
    def from_code(cls, code: int) -> "RRType":
        """The type a 16-bit wire code stands for — never a failure.

        A code this enum does not name (HTTPS 65, SVCB 64, SPF 99, …) comes
        back as an unregistered pseudo-member called ``TYPE<code>``
        (RFC 3597 section 5): it compares, hashes and converts like the
        integer, and ``name`` / ``to_text()`` work, so a question for such a
        type travels through the server like any other.  ``RRType(code)``
        still raises for it.
        """
        try:
            return cls(code)
        except ValueError:
            unknown = int.__new__(cls, code)
            unknown._name_ = f"TYPE{code}"
            unknown._value_ = code
            return unknown

    def to_text(self) -> str:
        return self.name


class RRClass(enum.IntEnum):
    """Resource-record CLASS code points."""

    IN = 1
    CH = 3
    HS = 4
    NONE = 254
    ANY = 255


class Opcode(enum.IntEnum):
    """Message OPCODE values."""

    QUERY = 0
    IQUERY = 1
    STATUS = 2
    NOTIFY = 4
    UPDATE = 5


class RCode(enum.IntEnum):
    """Response codes (RFC 1035 section 4.1.1 plus EDNS extensions).

    The paper defines *junk* traffic as "any query that does not yield a
    NOERROR RCODE (0)"; :meth:`is_junk` encodes that definition so every
    consumer uses the same predicate.
    """

    NOERROR = 0
    FORMERR = 1
    SERVFAIL = 2
    NXDOMAIN = 3
    NOTIMP = 4
    REFUSED = 5
    YXDOMAIN = 6
    YXRRSET = 7
    NXRRSET = 8
    NOTAUTH = 9
    NOTZONE = 10
    BADVERS = 16

    def is_junk(self) -> bool:
        """Paper section 3: junk means any non-NOERROR response."""
        return self is not RCode.NOERROR


#: Types fetched only by DNSSEC-validating resolvers.
DNSSEC_TYPES = frozenset({RRType.DS, RRType.DNSKEY, RRType.RRSIG, RRType.NSEC, RRType.NSEC3})

#: Address RR types, one per IP family.
ADDRESS_TYPES = frozenset({RRType.A, RRType.AAAA})
