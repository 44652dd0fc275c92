"""DNS message model: header, question, sections, and full wire codec.

Implements RFC 1035 section 4 message structure with EDNS0 (RFC 6891)
integration and size-bounded encoding with TC-bit truncation — the mechanism
behind the paper's UDP/TCP findings (section 4.4).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import List, Optional, Tuple

from .edns import EdnsRecord
from .names import Name
from .rdata import ResourceRecord
from .types import Opcode, RCode, RRClass, RRType

HEADER_LENGTH = 12


class WireDecodeError(ValueError):
    """Raised when a wire message cannot be decoded.

    Every decode failure — truncation, garbage bytes, malformed names,
    unknown code points, bad compression pointers — funnels into this one
    typed error so callers facing untrusted input (the live UDP/TCP
    endpoints) can catch a single exception and answer FORMERR instead of
    crashing on ``struct.error`` / ``IndexError`` leaking from the codec.
    """


@dataclass(frozen=True)
class Flags:
    """The header flag bits (QR, AA, TC, RD, RA) plus opcode and rcode."""

    qr: bool = False
    opcode: Opcode = Opcode.QUERY
    aa: bool = False
    tc: bool = False
    rd: bool = False
    ra: bool = False
    ad: bool = False
    cd: bool = False
    rcode: RCode = RCode.NOERROR

    # The two codecs are pure functions over a small domain (the distinct
    # flag combinations a simulation produces number in the dozens), so
    # both directions are memoised — Flags is frozen and hashable.

    @lru_cache(maxsize=4096)
    def to_wire_word(self) -> int:
        word = 0
        if self.qr:
            word |= 0x8000
        word |= (int(self.opcode) & 0xF) << 11
        if self.aa:
            word |= 0x0400
        if self.tc:
            word |= 0x0200
        if self.rd:
            word |= 0x0100
        if self.ra:
            word |= 0x0080
        if self.ad:
            word |= 0x0020
        if self.cd:
            word |= 0x0010
        word |= int(self.rcode) & 0xF
        return word

    @classmethod
    def from_wire_word(cls, word: int) -> "Flags":
        return _flags_from_wire_word(int(word))


@lru_cache(maxsize=4096)
def _flags_from_wire_word(word: int) -> Flags:
    return Flags(
        qr=bool(word & 0x8000),
        opcode=Opcode((word >> 11) & 0xF),
        aa=bool(word & 0x0400),
        tc=bool(word & 0x0200),
        rd=bool(word & 0x0100),
        ra=bool(word & 0x0080),
        ad=bool(word & 0x0020),
        cd=bool(word & 0x0010),
        rcode=RCode(word & 0xF),
    )


#: Header flags of every freshly built query: an iterative query, RD
#: clear (interned: the hot path shares one instance).
_QUERY_FLAGS = Flags()


@dataclass(frozen=True)
class Question:
    """The question section entry: qname/qtype/qclass."""

    qname: Name
    qtype: RRType
    qclass: RRClass = RRClass.IN

    def to_wire(self, compress: Optional[dict] = None, offset: int = 0) -> bytes:
        out = bytearray(self.qname.to_wire(compress, offset))
        out.extend(struct.pack("!HH", int(self.qtype), int(self.qclass)))
        return bytes(out)

    @classmethod
    def from_wire(cls, wire: bytes, offset: int) -> Tuple["Question", int]:
        qname, offset = Name.from_wire(wire, offset)
        qtype, qclass = struct.unpack_from("!HH", wire, offset)
        return cls(qname, RRType.from_code(qtype), RRClass(qclass)), offset + 4


@dataclass
class Message:
    """A complete DNS message.

    Mutable by design: server code builds responses by appending to the
    section lists and then calls :meth:`to_wire` with the client's UDP limit.
    """

    msg_id: int = 0
    flags: Flags = field(default_factory=Flags)
    questions: List[Question] = field(default_factory=list)
    answers: List[ResourceRecord] = field(default_factory=list)
    authorities: List[ResourceRecord] = field(default_factory=list)
    additionals: List[ResourceRecord] = field(default_factory=list)
    edns: Optional[EdnsRecord] = None
    #: The memoised server-side plan this response replays, if any.  Opaque
    #: here and no part of the message (not compared, printed or encoded):
    #: it rides along so a live endpoint can reuse the plan's encoding.
    plan: Optional[object] = field(default=None, compare=False, repr=False)

    # -- convenience constructors -------------------------------------------

    @classmethod
    def make_query(
        cls,
        qname: Name,
        qtype: RRType,
        msg_id: int = 0,
        edns: Optional[EdnsRecord] = None,
    ) -> "Message":
        """Build a standard iterative query message (RD clear)."""
        return cls(
            msg_id=msg_id,
            flags=_QUERY_FLAGS,
            questions=[Question(qname, qtype)],
            edns=edns,
        )

    def make_response_skeleton(self) -> "Message":
        """Start a response to this query: copies id, question, and RD."""
        return Message(
            msg_id=self.msg_id,
            flags=Flags(qr=True, rd=self.flags.rd, opcode=self.flags.opcode),
            questions=list(self.questions),
        )

    # -- introspection -------------------------------------------------------

    @property
    def question(self) -> Question:
        """The sole question (raises if the message has none)."""
        if not self.questions:
            raise ValueError("message has no question")
        return self.questions[0]

    @property
    def rcode(self) -> RCode:
        return self.flags.rcode

    def set_rcode(self, rcode: RCode) -> None:
        self.flags = replace(self.flags, rcode=rcode)

    def is_truncated(self) -> bool:
        return self.flags.tc

    # -- wire codec ----------------------------------------------------------

    def to_wire(self, max_size: Optional[int] = None) -> bytes:
        """Encode with name compression.

        If ``max_size`` is given (the effective UDP limit for the peer) and
        the full encoding exceeds it, the message is re-encoded with all
        records dropped and the TC bit set — the resolver is expected to
        retry over TCP.  This mirrors common authoritative behaviour
        (whole-message truncation rather than partial sections).
        """
        wire = self._encode()
        if max_size is not None and len(wire) > max_size:
            truncated = Message(
                msg_id=self.msg_id,
                flags=replace(self.flags, tc=True),
                questions=list(self.questions),
                edns=self.edns,
            )
            wire = truncated._encode()
            if len(wire) > max_size and truncated.edns is not None:
                truncated.edns = None
                wire = truncated._encode()
            if len(wire) > max_size:
                # Pathological limit (below header + question): emit a
                # header-only TC response rather than overflow the bound.
                truncated.questions = []
                wire = truncated._encode()
        return wire

    def wire_size(self, compress: Optional[dict] = None) -> int:
        """Size of the untruncated encoding in octets.

        ``compress`` (pass an empty dict) receives the encoder's
        compression table: every casefolded name suffix it wrote below the
        pointer limit, mapped to its offset.
        """
        return len(self._encode(compress))

    def _encode(self, compress: Optional[dict] = None) -> bytes:
        if compress is None:
            compress = {}
        out = bytearray(HEADER_LENGTH)
        additional_count = len(self.additionals) + (1 if self.edns is not None else 0)
        struct.pack_into(
            "!HHHHHH",
            out,
            0,
            self.msg_id,
            self.flags.to_wire_word(),
            len(self.questions),
            len(self.answers),
            len(self.authorities),
            additional_count,
        )
        for question in self.questions:
            out.extend(question.to_wire(compress, len(out)))
        for section in (self.answers, self.authorities, self.additionals):
            for record in section:
                out.extend(record.to_wire(compress, len(out)))
        if self.edns is not None:
            out.extend(self.edns.to_wire())
        return bytes(out)

    @classmethod
    def from_wire(cls, wire: bytes) -> "Message":
        """Decode a message, raising :class:`WireDecodeError` on bad input.

        The decoder never lets ``struct.error``/``IndexError`` (or the
        narrower ``ValueError`` subclasses the name codec raises) escape:
        any malformed input surfaces as the one typed error.
        """
        try:
            return cls._from_wire_unchecked(wire)
        except WireDecodeError:
            raise
        except (ValueError, struct.error, IndexError, OverflowError) as exc:
            raise WireDecodeError(str(exc) or type(exc).__name__) from exc

    @classmethod
    def _from_wire_unchecked(cls, wire: bytes) -> "Message":
        if len(wire) < HEADER_LENGTH:
            raise WireDecodeError("message shorter than header")
        msg_id, flag_word, qd, an, ns, ar = struct.unpack_from("!HHHHHH", wire, 0)
        message = cls(msg_id=msg_id, flags=Flags.from_wire_word(flag_word))
        offset = HEADER_LENGTH
        for _ in range(qd):
            question, offset = Question.from_wire(wire, offset)
            message.questions.append(question)
        for _ in range(an):
            record, offset = ResourceRecord.from_wire(wire, offset)
            message.answers.append(record)
        for _ in range(ns):
            record, offset = ResourceRecord.from_wire(wire, offset)
            message.authorities.append(record)
        for _ in range(ar):
            record, offset = cls._parse_additional(wire, offset, message)
        return message

    @staticmethod
    def _parse_additional(wire: bytes, offset: int, message: "Message"):
        """Parse one additional record, diverting OPT into ``message.edns``."""
        if wire[offset] == 0:
            # A root owner — every OPT's (RFC 6891 section 6.1.2) — is one
            # octet to step over, not a name to build and throw away.
            after_name = offset + 1
        else:
            _, after_name = Name.from_wire(wire, offset)
        rrtype, klass, ttl, rdlength = struct.unpack_from("!HHIH", wire, after_name)
        if rrtype == int(RRType.OPT):
            if after_name + 10 + rdlength > len(wire):
                raise WireDecodeError("OPT rdata runs past end of message")
            rdata = wire[after_name + 10 : after_name + 10 + rdlength]
            message.edns = EdnsRecord.from_wire_fields(klass, ttl, rdata)
            return None, after_name + 10 + rdlength
        record, offset = ResourceRecord.from_wire(wire, offset)
        message.additionals.append(record)
        return record, offset

    # -- pretty printing -----------------------------------------------------

    def to_text(self) -> str:
        lines = [
            f";; id {self.msg_id} opcode {self.flags.opcode.name} "
            f"rcode {self.flags.rcode.name} flags"
            f"{' qr' if self.flags.qr else ''}{' aa' if self.flags.aa else ''}"
            f"{' tc' if self.flags.tc else ''}{' rd' if self.flags.rd else ''}"
            f"{' ra' if self.flags.ra else ''}"
        ]
        if self.edns is not None:
            lines.append(
                f";; edns0 udp {self.edns.udp_payload_size}"
                f"{' do' if self.edns.dnssec_ok else ''}"
            )
        lines.append(";; QUESTION")
        for q in self.questions:
            lines.append(f"{q.qname.to_text()} {q.qclass.name} {q.qtype.to_text()}")
        for title, section in (
            ("ANSWER", self.answers),
            ("AUTHORITY", self.authorities),
            ("ADDITIONAL", self.additionals),
        ):
            if section:
                lines.append(f";; {title}")
                lines.extend(record.to_text() for record in section)
        return "\n".join(lines)
