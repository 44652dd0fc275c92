"""EDNS(0) support (RFC 6891).

EDNS0 is central to the paper's section 4.4: the UDP payload size a resolver
advertises in its OPT pseudo-record determines whether an authoritative
server can return a large (e.g. DNSSEC-laden) answer over UDP or must set TC
and force the resolver onto TCP.  The paper's Figure 6 is a CDF of exactly
this advertised value, and the per-provider truncation ratios fall out of it.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import List, Optional, Tuple

from .names import ROOT
from .types import RRType

#: Classic DNS maximum UDP payload when no OPT record is present (RFC 1035).
CLASSIC_UDP_LIMIT = 512

#: The flag-day-recommended conservative EDNS0 buffer size.
RECOMMENDED_BUFSIZE = 1232

#: DO bit position inside the OPT TTL field.
_DO_BIT = 0x8000


@dataclass(frozen=True)
class EdnsOption:
    """A raw EDNS option (option-code, option-data)."""

    code: int
    data: bytes


@dataclass(frozen=True)
class EdnsRecord:
    """The OPT pseudo-RR carried in a message's additional section.

    Attributes
    ----------
    udp_payload_size:
        Maximum UDP payload the sender can reassemble (stored in the CLASS
        field on the wire).
    dnssec_ok:
        The DO bit: the sender wants DNSSEC RRs (RRSIG/NSEC) included.
    extended_rcode:
        Upper 8 bits of the 12-bit extended RCODE.
    """

    udp_payload_size: int = RECOMMENDED_BUFSIZE
    dnssec_ok: bool = False
    extended_rcode: int = 0
    version: int = 0
    options: Tuple[EdnsOption, ...] = ()

    def to_wire(self) -> bytes:
        ttl = (self.extended_rcode << 24) | (self.version << 16)
        if self.dnssec_ok:
            ttl |= _DO_BIT
        rdata = bytearray()
        for option in self.options:
            rdata.extend(struct.pack("!HH", option.code, len(option.data)))
            rdata.extend(option.data)
        out = bytearray(ROOT.to_wire())
        out.extend(
            struct.pack(
                "!HHIH", int(RRType.OPT), self.udp_payload_size, ttl, len(rdata)
            )
        )
        out.extend(rdata)
        return bytes(out)

    @classmethod
    def from_wire_fields(
        cls, udp_payload_size: int, ttl: int, rdata: bytes
    ) -> "EdnsRecord":
        options: List[EdnsOption] = []
        offset = 0
        while offset + 4 <= len(rdata):
            code, length = struct.unpack_from("!HH", rdata, offset)
            offset += 4
            options.append(EdnsOption(code, rdata[offset : offset + length]))
            offset += length
        return cls(
            udp_payload_size=udp_payload_size,
            dnssec_ok=bool(ttl & _DO_BIT),
            extended_rcode=(ttl >> 24) & 0xFF,
            version=(ttl >> 16) & 0xFF,
            options=tuple(options),
        )

    def effective_udp_limit(self) -> int:
        """The payload bound an authoritative should apply for this sender.

        RFC 6891 section 6.2.3: values below 512 are treated as 512.
        """
        return max(self.udp_payload_size, CLASSIC_UDP_LIMIT)


def effective_udp_limit(edns: Optional[EdnsRecord]) -> int:
    """UDP payload bound for a query that may or may not carry EDNS0."""
    if edns is None:
        return CLASSIC_UDP_LIMIT
    return edns.effective_udp_limit()
