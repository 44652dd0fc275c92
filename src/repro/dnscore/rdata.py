"""Typed RDATA implementations and the generic resource-record container.

Each rdata class knows how to encode/decode its wire representation and how
to render a presentation-format string.  The subset implemented here covers
every type the paper's traffic contains: address records (A/AAAA), delegation
records (NS + SOA), mail (MX), DNSSEC material (DS, DNSKEY, RRSIG, NSEC),
reverse-mapping (PTR), plus CNAME/TXT for realistic zone content.

Unknown types round-trip as :class:`OpaqueRdata` (RFC 3597 style), so a
capture pipeline never drops a record merely because it does not model it.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import ClassVar, Dict, List, Optional, Tuple, Type

from .names import Name
from .types import RRClass, RRType

_RDATA_REGISTRY: Dict[RRType, Type["Rdata"]] = {}


def _register(rrtype: RRType):
    def deco(cls: Type["Rdata"]) -> Type["Rdata"]:
        cls.rrtype = rrtype
        _RDATA_REGISTRY[rrtype] = cls
        return cls

    return deco


class Rdata:
    """Base class for typed RDATA.

    Subclasses set the class attribute :attr:`rrtype` (via ``@_register``)
    and implement :meth:`to_wire`, :meth:`from_wire`, and :meth:`to_text`.
    """

    rrtype: ClassVar[RRType]

    def to_wire(self, compress: Optional[dict] = None, offset: int = 0) -> bytes:
        raise NotImplementedError

    @classmethod
    def from_wire(cls, wire: bytes, offset: int, rdlength: int) -> "Rdata":
        raise NotImplementedError

    def to_text(self) -> str:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.to_text()})"


@_register(RRType.A)
@dataclass(frozen=True)
class ARdata(Rdata):
    """IPv4 address record.  ``address`` is the integer form of the address;
    the textual form is available via :attr:`text`."""

    address: int

    def __post_init__(self):
        if not 0 <= self.address < 2**32:
            raise ValueError("IPv4 address out of range")

    @property
    def text(self) -> str:
        a = self.address
        return f"{a >> 24 & 255}.{a >> 16 & 255}.{a >> 8 & 255}.{a & 255}"

    def to_wire(self, compress=None, offset=0) -> bytes:
        return struct.pack("!I", self.address)

    @classmethod
    def from_wire(cls, wire: bytes, offset: int, rdlength: int) -> "ARdata":
        if rdlength != 4:
            raise ValueError("A rdata must be 4 octets")
        return cls(struct.unpack_from("!I", wire, offset)[0])

    def to_text(self) -> str:
        return self.text


@_register(RRType.AAAA)
@dataclass(frozen=True)
class AAAARdata(Rdata):
    """IPv6 address record; ``address`` is the 128-bit integer form."""

    address: int

    def __post_init__(self):
        if not 0 <= self.address < 2**128:
            raise ValueError("IPv6 address out of range")

    @property
    def text(self) -> str:
        groups = [(self.address >> shift) & 0xFFFF for shift in range(112, -16, -16)]
        # Find the longest run of zero groups for :: compression.
        best_start, best_len = -1, 0
        run_start, run_len = -1, 0
        for i, g in enumerate(groups):
            if g == 0:
                if run_start < 0:
                    run_start, run_len = i, 0
                run_len += 1
                if run_len > best_len:
                    best_start, best_len = run_start, run_len
            else:
                run_start, run_len = -1, 0
        if best_len < 2:
            return ":".join(f"{g:x}" for g in groups)
        head = ":".join(f"{g:x}" for g in groups[:best_start])
        tail = ":".join(f"{g:x}" for g in groups[best_start + best_len :])
        return f"{head}::{tail}"

    def to_wire(self, compress=None, offset=0) -> bytes:
        return self.address.to_bytes(16, "big")

    @classmethod
    def from_wire(cls, wire: bytes, offset: int, rdlength: int) -> "AAAARdata":
        if rdlength != 16:
            raise ValueError("AAAA rdata must be 16 octets")
        return cls(int.from_bytes(wire[offset : offset + 16], "big"))

    def to_text(self) -> str:
        return self.text


class _SingleNameRdata(Rdata):
    """Shared implementation for rdata consisting of one domain name."""

    __slots__ = ("target",)

    def __init__(self, target: Name):
        self.target = target

    def __eq__(self, other):
        return type(other) is type(self) and other.target == self.target

    def __hash__(self):
        return hash((type(self).__name__, self.target))

    def to_wire(self, compress=None, offset=0) -> bytes:
        return self.target.to_wire(compress, offset)

    @classmethod
    def from_wire(cls, wire: bytes, offset: int, rdlength: int):
        name, _ = Name.from_wire(wire, offset)
        return cls(name)

    def to_text(self) -> str:
        return self.target.to_text()


@_register(RRType.NS)
class NSRdata(_SingleNameRdata):
    """Delegation: name of an authoritative server for the owner zone."""


@_register(RRType.CNAME)
class CNAMERdata(_SingleNameRdata):
    """Canonical-name alias."""


@_register(RRType.PTR)
class PTRRdata(_SingleNameRdata):
    """Reverse-mapping pointer.  The Facebook site analysis (paper section
    4.3) keys entirely off PTR rdata contents."""


@_register(RRType.SOA)
@dataclass(frozen=True)
class SOARdata(Rdata):
    """Start of authority."""

    mname: Name
    rname: Name
    serial: int
    refresh: int = 7200
    retry: int = 3600
    expire: int = 1209600
    minimum: int = 3600

    def to_wire(self, compress=None, offset=0) -> bytes:
        out = bytearray(self.mname.to_wire(compress, offset))
        out.extend(self.rname.to_wire(compress, offset + len(out)))
        out.extend(
            struct.pack(
                "!IIIII", self.serial, self.refresh, self.retry, self.expire, self.minimum
            )
        )
        return bytes(out)

    @classmethod
    def from_wire(cls, wire: bytes, offset: int, rdlength: int) -> "SOARdata":
        mname, offset = Name.from_wire(wire, offset)
        rname, offset = Name.from_wire(wire, offset)
        serial, refresh, retry, expire, minimum = struct.unpack_from("!IIIII", wire, offset)
        return cls(mname, rname, serial, refresh, retry, expire, minimum)

    def to_text(self) -> str:
        return (
            f"{self.mname.to_text()} {self.rname.to_text()} {self.serial} "
            f"{self.refresh} {self.retry} {self.expire} {self.minimum}"
        )


@_register(RRType.MX)
@dataclass(frozen=True)
class MXRdata(Rdata):
    """Mail exchanger."""

    preference: int
    exchange: Name

    def to_wire(self, compress=None, offset=0) -> bytes:
        return struct.pack("!H", self.preference) + self.exchange.to_wire(
            compress, offset + 2
        )

    @classmethod
    def from_wire(cls, wire: bytes, offset: int, rdlength: int) -> "MXRdata":
        (preference,) = struct.unpack_from("!H", wire, offset)
        exchange, _ = Name.from_wire(wire, offset + 2)
        return cls(preference, exchange)

    def to_text(self) -> str:
        return f"{self.preference} {self.exchange.to_text()}"


@_register(RRType.TXT)
@dataclass(frozen=True)
class TXTRdata(Rdata):
    """Free-form text record (tuple of character-strings)."""

    strings: Tuple[bytes, ...]

    def __post_init__(self):
        for s in self.strings:
            if len(s) > 255:
                raise ValueError("TXT character-string exceeds 255 octets")

    def to_wire(self, compress=None, offset=0) -> bytes:
        out = bytearray()
        for s in self.strings:
            out.append(len(s))
            out.extend(s)
        return bytes(out)

    @classmethod
    def from_wire(cls, wire: bytes, offset: int, rdlength: int) -> "TXTRdata":
        end = offset + rdlength
        strings: List[bytes] = []
        while offset < end:
            n = wire[offset]
            offset += 1
            strings.append(wire[offset : offset + n])
            offset += n
        return cls(tuple(strings))

    def to_text(self) -> str:
        return " ".join('"' + s.decode("latin-1") + '"' for s in self.strings)


@_register(RRType.DS)
@dataclass(frozen=True)
class DSRdata(Rdata):
    """Delegation signer (RFC 4034).  Presence of a DS RRset at a delegation
    is what makes a validating resolver chase the child's DNSKEY."""

    key_tag: int
    algorithm: int
    digest_type: int
    digest: bytes

    def to_wire(self, compress=None, offset=0) -> bytes:
        return struct.pack("!HBB", self.key_tag, self.algorithm, self.digest_type) + self.digest

    @classmethod
    def from_wire(cls, wire: bytes, offset: int, rdlength: int) -> "DSRdata":
        key_tag, algorithm, digest_type = struct.unpack_from("!HBB", wire, offset)
        digest = wire[offset + 4 : offset + rdlength]
        return cls(key_tag, algorithm, digest_type, digest)

    def to_text(self) -> str:
        return f"{self.key_tag} {self.algorithm} {self.digest_type} {self.digest.hex().upper()}"


@_register(RRType.DNSKEY)
@dataclass(frozen=True)
class DNSKEYRdata(Rdata):
    """Zone public key (RFC 4034)."""

    flags: int
    protocol: int
    algorithm: int
    public_key: bytes

    ZONE_KEY_FLAG: ClassVar[int] = 0x0100
    SEP_FLAG: ClassVar[int] = 0x0001

    @property
    def is_ksk(self) -> bool:
        return bool(self.flags & self.SEP_FLAG)

    def key_tag(self) -> int:
        """RFC 4034 appendix B key-tag computation."""
        rdata = self.to_wire()
        acc = 0
        for i, b in enumerate(rdata):
            acc += b << 8 if i % 2 == 0 else b
        acc += (acc >> 16) & 0xFFFF
        return acc & 0xFFFF

    def to_wire(self, compress=None, offset=0) -> bytes:
        return struct.pack("!HBB", self.flags, self.protocol, self.algorithm) + self.public_key

    @classmethod
    def from_wire(cls, wire: bytes, offset: int, rdlength: int) -> "DNSKEYRdata":
        flags, protocol, algorithm = struct.unpack_from("!HBB", wire, offset)
        key = wire[offset + 4 : offset + rdlength]
        return cls(flags, protocol, algorithm, key)

    def to_text(self) -> str:
        import base64

        return f"{self.flags} {self.protocol} {self.algorithm} {base64.b64encode(self.public_key).decode()}"


@_register(RRType.RRSIG)
@dataclass(frozen=True)
class RRSIGRdata(Rdata):
    """Signature over an RRset (RFC 4034).  Signatures here are simulated —
    opaque bytes produced by the zone signer — but carry real structure so
    that message sizes are realistic (RRSIGs are the main driver of large
    responses and thus of EDNS0 truncation and TCP fallback)."""

    type_covered: RRType
    algorithm: int
    labels: int
    original_ttl: int
    expiration: int
    inception: int
    key_tag: int
    signer: Name
    signature: bytes

    def to_wire(self, compress=None, offset=0) -> bytes:
        head = struct.pack(
            "!HBBIIIH",
            int(self.type_covered),
            self.algorithm,
            self.labels,
            self.original_ttl,
            self.expiration,
            self.inception,
            self.key_tag,
        )
        # RFC 4034: signer name is never compressed.
        return head + self.signer.to_wire(None, 0) + self.signature

    @classmethod
    def from_wire(cls, wire: bytes, offset: int, rdlength: int) -> "RRSIGRdata":
        end = offset + rdlength
        tc, alg, labels, ottl, exp, inc, tag = struct.unpack_from("!HBBIIIH", wire, offset)
        signer, offset = Name.from_wire(wire, offset + 18)
        return cls(RRType(tc), alg, labels, ottl, exp, inc, tag, signer, wire[offset:end])

    def to_text(self) -> str:
        return (
            f"{self.type_covered.to_text()} {self.algorithm} {self.labels} "
            f"{self.original_ttl} {self.expiration} {self.inception} "
            f"{self.key_tag} {self.signer.to_text()} <sig:{len(self.signature)}B>"
        )


@_register(RRType.NSEC)
@dataclass(frozen=True)
class NSECRdata(Rdata):
    """Authenticated denial of existence (RFC 4034).

    An NSEC record proves that no name exists between ``owner`` and
    :attr:`next_name`.  RFC 8198 aggressive use lets resolvers synthesise
    NXDOMAIN from cached NSECs — the mechanism the paper hypothesises behind
    the 2020 drop in cloud junk at B-Root (section 4.2.3).
    """

    next_name: Name
    types: Tuple[RRType, ...]

    def covers(self, owner: Name, qname: Name) -> bool:
        """True if ``qname`` falls in the gap (owner, next_name).

        Handles the zone's final NSEC, whose gap wraps around past the end
        of the canonical ordering back to the apex.
        """
        if owner < self.next_name:
            return owner < qname < self.next_name
        return qname > owner or qname < self.next_name

    def _type_bitmap(self) -> bytes:
        windows: Dict[int, bytearray] = {}
        for t in self.types:
            window, low = int(t) >> 8, int(t) & 0xFF
            bitmap = windows.setdefault(window, bytearray(32))
            bitmap[low >> 3] |= 0x80 >> (low & 7)
        out = bytearray()
        for window in sorted(windows):
            bitmap = windows[window]
            length = max(i + 1 for i, b in enumerate(bitmap) if b)
            out.append(window)
            out.append(length)
            out.extend(bitmap[:length])
        return bytes(out)

    def to_wire(self, compress=None, offset=0) -> bytes:
        return self.next_name.to_wire(None, 0) + self._type_bitmap()

    @classmethod
    def from_wire(cls, wire: bytes, offset: int, rdlength: int) -> "NSECRdata":
        end = offset + rdlength
        next_name, offset = Name.from_wire(wire, offset)
        types: List[RRType] = []
        while offset < end:
            window = wire[offset]
            length = wire[offset + 1]
            offset += 2
            for i in range(length):
                byte = wire[offset + i]
                for bit in range(8):
                    if byte & (0x80 >> bit):
                        code = (window << 8) | (i * 8 + bit)
                        try:
                            types.append(RRType(code))
                        except ValueError:
                            pass  # unmodelled type code; bitmap round-trips lossily
            offset += length
        return cls(next_name, tuple(types))

    def to_text(self) -> str:
        return f"{self.next_name.to_text()} " + " ".join(t.to_text() for t in self.types)


@dataclass(frozen=True)
class OpaqueRdata(Rdata):
    """RFC 3597-style container for types without a typed implementation."""

    rrtype_value: int
    data: bytes

    def to_wire(self, compress=None, offset=0) -> bytes:
        return self.data

    @classmethod
    def from_wire(cls, wire: bytes, offset: int, rdlength: int) -> "OpaqueRdata":
        raise NotImplementedError("use decode_rdata()")

    def to_text(self) -> str:
        return f"\\# {len(self.data)} {self.data.hex()}"


def decode_rdata(rrtype: int, wire: bytes, offset: int, rdlength: int) -> Rdata:
    """Decode RDATA of any type, falling back to :class:`OpaqueRdata`."""
    try:
        cls = _RDATA_REGISTRY[RRType(rrtype)]
    except (ValueError, KeyError):
        return OpaqueRdata(rrtype, wire[offset : offset + rdlength])
    return cls.from_wire(wire, offset, rdlength)


@dataclass(frozen=True)
class ResourceRecord:
    """A complete resource record: owner name, TTL, class, and typed rdata."""

    name: Name
    rrtype: RRType
    ttl: int
    rdata: Rdata
    rrclass: RRClass = RRClass.IN

    def to_wire(self, compress: Optional[dict] = None, offset: int = 0) -> bytes:
        out = bytearray(self.name.to_wire(compress, offset))
        out.extend(struct.pack("!HHI", int(self.rrtype), int(self.rrclass), self.ttl))
        rd_offset = offset + len(out) + 2
        rdata = self.rdata.to_wire(compress, rd_offset)
        out.extend(struct.pack("!H", len(rdata)))
        out.extend(rdata)
        return bytes(out)

    @classmethod
    def from_wire(cls, wire: bytes, offset: int) -> Tuple["ResourceRecord", int]:
        name, offset = Name.from_wire(wire, offset)
        rrtype, rrclass, ttl, rdlength = struct.unpack_from("!HHIH", wire, offset)
        offset += 10
        rdata = decode_rdata(rrtype, wire, offset, rdlength)
        try:
            rrtype_enum = RRType(rrtype)
        except ValueError:
            rrtype_enum = RRType.ANY  # opaque container keeps the real code
        return (
            cls(name, rrtype_enum, ttl, rdata, RRClass(rrclass)),
            offset + rdlength,
        )

    def to_text(self) -> str:
        return (
            f"{self.name.to_text()} {self.ttl} {self.rrclass.name} "
            f"{self.rrtype.to_text()} {self.rdata.to_text()}"
        )
