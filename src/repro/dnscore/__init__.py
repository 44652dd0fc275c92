"""From-scratch DNS data model: names, records, messages, and EDNS(0).

This package is the protocol substrate for the whole reproduction: the
authoritative-server and resolver simulators exchange real, wire-encodable
:class:`~repro.dnscore.message.Message` objects so that sizes, truncation,
and record mixes behave like the protocol the paper measured.
"""

from .edns import CLASSIC_UDP_LIMIT, RECOMMENDED_BUFSIZE, EdnsOption, EdnsRecord
from .message import Flags, Message, Question, WireDecodeError
from .names import ROOT, Name, NameError_
from .rdata import (
    AAAARdata,
    ARdata,
    CNAMERdata,
    DNSKEYRdata,
    DSRdata,
    MXRdata,
    NSECRdata,
    NSRdata,
    OpaqueRdata,
    PTRRdata,
    Rdata,
    ResourceRecord,
    RRSIGRdata,
    SOARdata,
    TXTRdata,
)
from .types import ADDRESS_TYPES, DNSSEC_TYPES, Opcode, RCode, RRClass, RRType

__all__ = [
    "ADDRESS_TYPES",
    "AAAARdata",
    "ARdata",
    "CLASSIC_UDP_LIMIT",
    "CNAMERdata",
    "DNSKEYRdata",
    "DNSSEC_TYPES",
    "DSRdata",
    "EdnsOption",
    "EdnsRecord",
    "Flags",
    "Message",
    "MXRdata",
    "Name",
    "NameError_",
    "NSECRdata",
    "NSRdata",
    "Opcode",
    "OpaqueRdata",
    "PTRRdata",
    "Question",
    "RCode",
    "RECOMMENDED_BUFSIZE",
    "ROOT",
    "Rdata",
    "ResourceRecord",
    "RRClass",
    "RRSIGRdata",
    "RRType",
    "SOARdata",
    "TXTRdata",
    "WireDecodeError",
]
