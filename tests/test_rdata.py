"""Unit tests for typed RDATA and resource-record wire codec."""

import pytest

from repro.dnscore import (
    AAAARdata,
    ARdata,
    DNSKEYRdata,
    DSRdata,
    MXRdata,
    Name,
    NSECRdata,
    NSRdata,
    PTRRdata,
    ResourceRecord,
    RRSIGRdata,
    RRType,
    SOARdata,
    TXTRdata,
)
from repro.dnscore.rdata import decode_rdata, OpaqueRdata


def round_trip(record: ResourceRecord) -> ResourceRecord:
    wire = record.to_wire()
    decoded, offset = ResourceRecord.from_wire(wire, 0)
    assert offset == len(wire)
    return decoded


class TestARdata:
    def test_round_trip(self):
        rec = ResourceRecord(Name.from_text("a.nl"), RRType.A, 300, ARdata(0x01020304))
        assert round_trip(rec) == rec

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            ARdata(2**32)

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            ARdata.from_wire(b"\x01\x02\x03", 0, 3)


class TestAAAARdata:
    def test_round_trip(self):
        rec = ResourceRecord(
            Name.from_text("a.nl"), RRType.AAAA, 300, AAAARdata(0x20010DB8 << 96 | 0xFF)
        )
        assert round_trip(rec) == rec


class TestNameRdatas:
    def test_ns_round_trip(self):
        rec = ResourceRecord(
            Name.from_text("nl"),
            RRType.NS,
            3600,
            NSRdata(Name.from_text("ns1.dns.nl")),
        )
        assert round_trip(rec) == rec

    def test_ptr_round_trip(self):
        rec = ResourceRecord(
            Name.from_text("1.2.0.192.in-addr.arpa"),
            RRType.PTR,
            3600,
            PTRRdata(Name.from_text("edge-star-ams1.facebook.com")),
        )
        assert round_trip(rec) == rec

    def test_equality_is_type_sensitive(self):
        target = Name.from_text("x.nl")
        assert NSRdata(target) != PTRRdata(target)


class TestSOARdata:
    def test_round_trip(self):
        soa = SOARdata(
            Name.from_text("ns1.dns.nl"),
            Name.from_text("hostmaster.dns.nl"),
            2020040500,
        )
        rec = ResourceRecord(Name.from_text("nl"), RRType.SOA, 3600, soa)
        assert round_trip(rec) == rec


class TestMXAndTXT:
    def test_mx_round_trip(self):
        rec = ResourceRecord(
            Name.from_text("example.nl"),
            RRType.MX,
            300,
            MXRdata(10, Name.from_text("mail.example.nl")),
        )
        assert round_trip(rec) == rec

    def test_txt_round_trip(self):
        rec = ResourceRecord(
            Name.from_text("example.nl"),
            RRType.TXT,
            300,
            TXTRdata((b"v=spf1 -all", b"second")),
        )
        assert round_trip(rec) == rec

    def test_txt_string_too_long_rejected(self):
        with pytest.raises(ValueError):
            TXTRdata((b"x" * 256,))


class TestDNSSECRdatas:
    def test_ds_round_trip(self):
        rec = ResourceRecord(
            Name.from_text("example.nl"),
            RRType.DS,
            3600,
            DSRdata(12345, 13, 2, bytes(range(32))),
        )
        assert round_trip(rec) == rec

    def test_dnskey_round_trip_and_flags(self):
        ksk = DNSKEYRdata(0x0101, 3, 13, b"\x01" * 32)
        rec = ResourceRecord(Name.from_text("nl"), RRType.DNSKEY, 3600, ksk)
        decoded = round_trip(rec)
        assert decoded == rec and decoded.rdata.flags == 0x0101

    def test_rrsig_round_trip(self):
        sig = RRSIGRdata(
            RRType.A, 13, 2, 300, 1600000000, 1590000000, 4242,
            Name.from_text("example.nl"), b"\xAB" * 64,
        )
        rec = ResourceRecord(Name.from_text("www.example.nl"), RRType.RRSIG, 300, sig)
        assert round_trip(rec) == rec

    def test_nsec_round_trip(self):
        nsec = NSECRdata(
            Name.from_text("beta.nl"), (RRType.NS, RRType.DS, RRType.RRSIG)
        )
        rec = ResourceRecord(Name.from_text("alpha.nl"), RRType.NSEC, 3600, nsec)
        decoded = round_trip(rec)
        assert decoded.rdata.next_name == nsec.next_name
        assert set(decoded.rdata.types) == set(nsec.types)


class TestOpaque:
    def test_unknown_type_decodes_as_opaque(self):
        rdata = decode_rdata(65280, b"\xde\xad\xbe\xef", 0, 4)
        assert isinstance(rdata, OpaqueRdata)
        assert rdata.data == b"\xde\xad\xbe\xef"
        assert rdata.to_wire() == b"\xde\xad\xbe\xef"
