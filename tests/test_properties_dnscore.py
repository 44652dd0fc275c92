"""Property-based tests (hypothesis) for the DNS data model.

Invariants: wire round-trips are lossless, name algebra is consistent,
truncation respects size bounds, and compression never changes the decoded
name.
"""

import string

import pytest
from hypothesis import given, settings, strategies as st

from repro.dnscore import (
    AAAARdata,
    ARdata,
    DSRdata,
    EdnsRecord,
    Message,
    MXRdata,
    Name,
    NSRdata,
    Question,
    RCode,
    ResourceRecord,
    RRType,
    TXTRdata,
)

# -- strategies ---------------------------------------------------------------

label_st = st.binary(min_size=1, max_size=20).filter(lambda b: b != b"")
# Keep names comfortably under the 255-octet limit.
name_st = st.builds(
    Name, st.lists(label_st, min_size=0, max_size=5)
)
ascii_label_st = st.text(
    alphabet=string.ascii_lowercase + string.digits + "-", min_size=1, max_size=15
).filter(lambda s: not s.startswith("-"))
ascii_name_st = st.builds(
    lambda labels: Name([l.encode() for l in labels]),
    st.lists(ascii_label_st, min_size=0, max_size=5),
)


class TestNameProperties:
    @given(name_st)
    def test_wire_round_trip(self, name):
        decoded, offset = Name.from_wire(name.to_wire(), 0)
        assert decoded == name
        assert offset == len(name.to_wire())

    @given(ascii_name_st)
    def test_text_round_trip(self, name):
        assert Name.from_text(name.to_text()) == name

    @given(name_st)
    def test_parent_chain_reaches_root(self, name):
        seen = 0
        for ancestor in name.ancestors():
            seen += 1
            assert name.is_proper_subdomain_of(ancestor)
        assert seen == name.label_count

    @given(name_st, name_st)
    def test_subdomain_antisymmetry(self, a, b):
        if a.is_proper_subdomain_of(b):
            assert not b.is_subdomain_of(a)

    @given(name_st)
    def test_ancestor_with_labels_consistent(self, name):
        for count in range(name.label_count + 1):
            ancestor = name.ancestor_with_labels(count)
            assert ancestor.label_count == count
            assert name.is_subdomain_of(ancestor)

    @given(name_st, st.lists(label_st, min_size=1, max_size=3))
    def test_prepend_relativize_inverse(self, base, extra):
        try:
            extended = base.prepend(*extra)
        except Exception:
            return  # exceeded length limits; out of scope
        assert extended.relativize(base) == tuple(extra)

    @given(st.lists(name_st, min_size=2, max_size=8))
    def test_canonical_ordering_total(self, names):
        ordered = sorted(names)
        for a, b in zip(ordered, ordered[1:]):
            assert not b < a

    @given(st.lists(name_st, min_size=2, max_size=8))
    def test_canonical_key_sorts_like_comparison(self, names):
        by_key = sorted(names, key=Name.canonical_key)
        assert [n.labels for n in by_key] == [n.labels for n in sorted(names)]
        for a in names:
            for b in names:
                assert (a < b) == (a.canonical_key() < b.canonical_key())

    @given(name_st, st.lists(label_st, min_size=0, max_size=3))
    def test_derived_names_equal_validated_ones(self, base, extra):
        """``parent()`` and ``prepend()`` skip re-validation; what they
        build is indistinguishable from ``Name(labels)``."""
        derived = [base.prepend(*extra)]
        while not derived[-1].is_root():
            derived.append(derived[-1].parent())
        rebuilt = [Name(name.labels) for name in derived]
        for name, fresh in zip(derived, rebuilt):
            assert name.labels == fresh.labels
            assert name == fresh and hash(name) == hash(fresh)
            assert name.canonical_key() == fresh.canonical_key()
            assert name.to_wire() == fresh.to_wire()
            assert name.to_text() == fresh.to_text()
            assert name == Name([label.swapcase() for label in name.labels])
        assert sorted(derived) == sorted(rebuilt)
        assert [a < b for a in derived for b in derived] == [
            a < b for a in rebuilt for b in rebuilt
        ]

    @given(name_st, name_st)
    def test_compression_preserves_decoding(self, first, second):
        compress = {}
        buf = bytearray(first.to_wire(compress, 0))
        start = len(buf)
        buf.extend(second.to_wire(compress, start))
        decoded1, __ = Name.from_wire(bytes(buf), 0)
        decoded2, __ = Name.from_wire(bytes(buf), start)
        assert decoded1 == first
        assert decoded2 == second


rdata_st = st.one_of(
    st.builds(ARdata, st.integers(0, 2**32 - 1)),
    st.builds(AAAARdata, st.integers(0, 2**128 - 1)),
    st.builds(NSRdata, name_st),
    st.builds(MXRdata, st.integers(0, 65535), name_st),
    st.builds(
        TXTRdata,
        st.lists(st.binary(min_size=0, max_size=50), min_size=1, max_size=3).map(tuple),
    ),
    st.builds(
        DSRdata,
        st.integers(0, 65535),
        st.integers(0, 255),
        st.integers(0, 255),
        st.binary(min_size=1, max_size=48),
    ),
)

record_st = st.builds(
    lambda name, rdata, ttl: ResourceRecord(name, rdata.rrtype, ttl, rdata),
    name_st,
    rdata_st,
    st.integers(0, 2**31 - 1),
)


class TestRecordProperties:
    @given(record_st)
    def test_record_wire_round_trip(self, record):
        decoded, offset = ResourceRecord.from_wire(record.to_wire(), 0)
        assert decoded == record
        assert offset == len(record.to_wire())


message_st = st.builds(
    lambda msg_id, qname, qtype, answers, rd: Message(
        msg_id=msg_id,
        questions=[Question(qname, qtype)],
        answers=answers,
    ),
    st.integers(0, 65535),
    name_st,
    st.sampled_from([RRType.A, RRType.AAAA, RRType.NS, RRType.DS]),
    st.lists(record_st, max_size=4),
    st.booleans(),
)


class TestMessageProperties:
    @settings(max_examples=50)
    @given(message_st)
    def test_message_wire_round_trip(self, message):
        decoded = Message.from_wire(message.to_wire())
        assert decoded.msg_id == message.msg_id
        assert decoded.questions == message.questions
        assert decoded.answers == message.answers

    @settings(max_examples=50)
    @given(message_st, st.integers(100, 2000))
    def test_truncation_respects_bound(self, message, limit):
        wire = message.to_wire(max_size=limit)
        full = message.wire_size()
        if full <= limit:
            assert wire == message.to_wire()
        else:
            assert len(wire) <= limit
            assert Message.from_wire(wire).is_truncated()

    @settings(max_examples=50)
    @given(
        message_st,
        st.integers(0, 65535),
        st.booleans(),
    )
    def test_edns_round_trip(self, message, bufsize, do_bit):
        message.edns = EdnsRecord(udp_payload_size=bufsize, dnssec_ok=do_bit)
        decoded = Message.from_wire(message.to_wire())
        assert decoded.edns.udp_payload_size == bufsize
        assert decoded.edns.dnssec_ok == do_bit
