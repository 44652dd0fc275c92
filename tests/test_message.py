"""Unit tests for the DNS message codec, EDNS0 carriage, and truncation."""

import pytest

from repro.dnscore import (
    ARdata,
    EdnsRecord,
    Flags,
    Message,
    Name,
    NSRdata,
    Opcode,
    Question,
    RCode,
    ResourceRecord,
    RRType,
    TXTRdata,
)


def make_query(qname="example.nl", qtype=RRType.A, **kwargs):
    return Message.make_query(Name.from_text(qname), qtype, msg_id=0x1234, **kwargs)


class TestFlags:
    def test_flag_word_round_trip(self):
        flags = Flags(qr=True, aa=True, tc=False, rd=True, ra=True, rcode=RCode.NXDOMAIN)
        assert Flags.from_wire_word(flags.to_wire_word()) == flags

    def test_opcode_round_trip(self):
        flags = Flags(opcode=Opcode.NOTIFY)
        assert Flags.from_wire_word(flags.to_wire_word()).opcode == Opcode.NOTIFY

    def test_all_flag_bits_independent(self):
        for kwargs in (
            {"qr": True}, {"aa": True}, {"tc": True},
            {"rd": True}, {"ra": True}, {"ad": True}, {"cd": True},
        ):
            flags = Flags(**kwargs)
            assert Flags.from_wire_word(flags.to_wire_word()) == flags


class TestMessageCodec:
    def test_query_round_trip(self):
        query = make_query(recursion_desired=True)
        decoded = Message.from_wire(query.to_wire())
        assert decoded.msg_id == 0x1234
        assert decoded.flags.rd
        assert decoded.question == Question(Name.from_text("example.nl"), RRType.A)

    def test_response_round_trip_all_sections(self):
        query = make_query()
        response = query.make_response_skeleton()
        response.answers.append(
            ResourceRecord(Name.from_text("example.nl"), RRType.A, 300, ARdata(0x7F000001))
        )
        response.authorities.append(
            ResourceRecord(
                Name.from_text("nl"), RRType.NS, 3600, NSRdata(Name.from_text("ns1.dns.nl"))
            )
        )
        response.additionals.append(
            ResourceRecord(Name.from_text("ns1.dns.nl"), RRType.A, 3600, ARdata(0x0A000001))
        )
        decoded = Message.from_wire(response.to_wire())
        assert decoded.flags.qr
        assert len(decoded.answers) == 1
        assert len(decoded.authorities) == 1
        assert len(decoded.additionals) == 1
        assert decoded.answers[0].rdata == ARdata(0x7F000001)

    def test_edns_round_trip(self):
        query = make_query(edns=EdnsRecord(udp_payload_size=1232, dnssec_ok=True))
        decoded = Message.from_wire(query.to_wire())
        assert decoded.edns is not None
        assert decoded.edns.udp_payload_size == 1232
        assert decoded.edns.dnssec_ok

    def test_no_edns_stays_none(self):
        decoded = Message.from_wire(make_query().to_wire())
        assert decoded.edns is None

    def test_compression_shrinks_message(self):
        response = make_query().make_response_skeleton()
        for i in range(5):
            response.answers.append(
                ResourceRecord(
                    Name.from_text("example.nl"), RRType.A, 300, ARdata(i + 1)
                )
            )
        compressed = response.to_wire()
        uncompressed_estimate = sum(
            len(r.to_wire()) for r in response.answers
        ) + len(make_query().to_wire())
        assert len(compressed) < uncompressed_estimate

    def test_rcode_setter(self):
        message = make_query().make_response_skeleton()
        message.set_rcode(RCode.NXDOMAIN)
        assert Message.from_wire(message.to_wire()).rcode == RCode.NXDOMAIN

    def test_header_too_short_rejected(self):
        with pytest.raises(ValueError):
            Message.from_wire(b"\x00" * 11)

    @pytest.mark.parametrize("code", [65, 64, 99, 0, 65535])
    def test_question_for_an_unnamed_type_decodes(self, code):
        """HTTPS, SVCB, SPF…: a question's type is whatever 16 bits the
        client sent (RFC 3597), not a decode error."""
        wire = bytearray(make_query(qtype=RRType.A).to_wire())
        qtype_at = len(wire) - 4
        wire[qtype_at : qtype_at + 2] = code.to_bytes(2, "big")
        decoded = Message.from_wire(bytes(wire))
        qtype = decoded.question.qtype
        assert isinstance(qtype, RRType)
        assert qtype == code and int(qtype) == code and hash(qtype) == hash(code)
        assert qtype.to_text() == f"TYPE{code}"
        assert f"IN TYPE{code}" in decoded.to_text()
        assert decoded.to_wire() == bytes(wire)          # echoed as sent
        assert decoded.question == Message.from_wire(bytes(wire)).question
        # The enum itself still only names what it lists.
        assert all(member.value != code for member in RRType)
        with pytest.raises(ValueError):
            RRType(code)

    def test_question_for_a_named_type_is_the_member(self):
        decoded = Message.from_wire(make_query(qtype=RRType.DS).to_wire())
        assert decoded.question.qtype is RRType.DS
        assert RRType.from_code(28) is RRType.AAAA


class TestTruncation:
    def _big_response(self):
        query = make_query(qtype=RRType.TXT)
        response = query.make_response_skeleton()
        for __ in range(10):
            response.answers.append(
                ResourceRecord(
                    Name.from_text("example.nl"),
                    RRType.TXT,
                    300,
                    TXTRdata((b"x" * 200,)),
                )
            )
        return response

    def test_oversize_reply_sets_tc_and_drops_records(self):
        response = self._big_response()
        assert response.wire_size() > 512
        wire = response.to_wire(max_size=512)
        assert len(wire) <= 512
        decoded = Message.from_wire(wire)
        assert decoded.is_truncated()
        assert not decoded.answers
        assert decoded.questions  # question survives truncation

    def test_fitting_reply_not_truncated(self):
        response = self._big_response()
        wire = response.to_wire(max_size=response.wire_size())
        assert not Message.from_wire(wire).is_truncated()

    def test_no_limit_never_truncates(self):
        response = self._big_response()
        assert not Message.from_wire(response.to_wire()).is_truncated()


class TestEdns:
    def test_effective_limit_floors_at_512(self):
        assert EdnsRecord(udp_payload_size=100).effective_udp_limit() == 512
        assert EdnsRecord(udp_payload_size=4096).effective_udp_limit() == 4096

    def test_edns_options_round_trip(self):
        from repro.dnscore import EdnsOption

        record = EdnsRecord(options=(EdnsOption(10, b"\x01\x02"),))
        query = make_query(edns=record)
        decoded = Message.from_wire(query.to_wire())
        assert decoded.edns.options == (EdnsOption(10, b"\x01\x02"),)
