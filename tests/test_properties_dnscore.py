"""Property-based tests (hypothesis) for the DNS data model.

Invariants: wire round-trips are lossless, name algebra is consistent,
truncation respects size bounds, and compression never changes the decoded
name.
"""

import string
import struct
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

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
    WireDecodeError,
)
from repro.dnscore.names import MAX_NAME_LENGTH, NameError_

# -- strategies ---------------------------------------------------------------

label_st = st.binary(min_size=1, max_size=20).filter(lambda b: b != b"")
# Keep names comfortably under the 255-octet limit.
name_st = st.builds(
    Name, st.lists(label_st, min_size=0, max_size=5)
)
#: Mostly octets that spell themselves, with the ones that need escaping
#: (``.``, ``\``, controls, space, DEL, the high half) mixed in.
mixed_label_st = st.lists(
    st.one_of(
        st.integers(0x21, 0x7E),
        st.sampled_from([0x00, 0x09, 0x20, 0x2E, 0x5C, 0x7F, 0x80, 0xC3, 0xFF]),
    ),
    min_size=1,
    max_size=20,
).map(bytes)
ascii_label_st = st.text(
    alphabet=string.ascii_lowercase + string.digits + "-", min_size=1, max_size=15
).filter(lambda s: not s.startswith("-"))
ascii_name_st = st.builds(
    lambda labels: Name([l.encode() for l in labels]),
    st.lists(ascii_label_st, min_size=0, max_size=5),
)


cased_label_st = st.text(
    alphabet=string.ascii_letters + string.digits, min_size=1, max_size=12
).map(str.encode)
#: Labels that spell themselves in presentation format (``from_text``
#: reads back no ``\DDD`` escape), and any labels.
plain_labels_st = st.lists(cased_label_st, max_size=4).map(tuple)
any_labels_st = st.lists(st.one_of(cased_label_st, label_st), max_size=4).map(tuple)

#: Every way a name gets built.
CONSTRUCTIONS = (
    "Name", "from_text", "from_wire", "from_wire_compressed", "parent",
    "prepend", "ancestor_with_labels",
)


@st.composite
def constructed_name_st(draw, labels=None):
    """A name with the given (or drawn) labels, built by a drawn path."""
    how = draw(st.sampled_from(CONSTRUCTIONS))
    if labels is None:
        labels = draw(plain_labels_st if how == "from_text" else any_labels_st)
    elif how == "from_text" and not all(
        label.isalnum() and label.isascii() for label in labels
    ):
        how = "Name"
    extra = draw(st.lists(cased_label_st, min_size=1, max_size=2).map(tuple))
    if how == "Name":
        return Name(labels)
    if how == "from_text":
        return Name.from_text(b".".join(labels).decode())
    if how == "from_wire":
        return Name.from_wire(b"\x00\x00" + Name(labels).to_wire(), 2)[0]
    if how == "from_wire_compressed":
        # The second name is one pointer into the first one's suffixes.
        compress: dict = {}
        wire = Name(extra + labels).to_wire(compress, 0)
        wire += Name(labels).to_wire(compress, len(wire))
        return Name.from_wire(wire, len(Name(extra + labels).to_wire()))[0]
    if how == "parent":
        return Name(extra[-1:] + labels).parent()
    if how == "prepend":
        cut = draw(st.integers(0, len(labels)))
        return Name(labels[cut:]).prepend(*labels[:cut])
    return Name(extra + labels).ancestor_with_labels(len(labels))


class TestNameStructure:
    """``labels``, ``label_count``, ``key`` and ``canonical`` are set once,
    at construction, on every path, and agree with each other."""

    @settings(max_examples=300, derandomize=True)
    @given(constructed_name_st())
    def test_structure_slots_agree(self, name):
        assert name.label_count == len(name.labels)
        assert name.key == tuple(map(bytes.lower, name.labels))
        assert name.canonical == name.key[::-1]
        assert name.canonical_key() is name.canonical
        assert hash(name) == hash(name.key)

    @settings(max_examples=300, derandomize=True)
    @given(any_labels_st, st.data())
    def test_every_path_builds_the_same_structure(self, labels, data):
        name = data.draw(constructed_name_st(labels))
        reference = Name(labels)
        assert name.labels == reference.labels
        assert (name.label_count, name.key, name.canonical) == (
            reference.label_count, reference.key, reference.canonical
        )

    @settings(max_examples=300, derandomize=True)
    @given(any_labels_st, st.booleans(), st.data())
    def test_equality_is_key_equality(self, labels, twin, data):
        a = data.draw(constructed_name_st(labels))
        other = (
            tuple(label.swapcase() for label in labels)
            if twin
            else data.draw(any_labels_st)
        )
        b = data.draw(constructed_name_st(other))
        assert (a == b) == (a.key == b.key)
        assert (a != b) == (a.key != b.key)
        if a == b:
            assert hash(a) == hash(b)
        if twin:
            assert a == b


class TestNameProperties:
    @given(name_st)
    def test_wire_round_trip(self, name):
        decoded, offset = Name.from_wire(name.to_wire(), 0)
        assert decoded == name
        assert offset == len(name.to_wire())

    @given(ascii_name_st)
    def test_text_round_trip(self, name):
        assert Name.from_text(name.to_text()) == name

    @settings(max_examples=400, derandomize=True)
    @given(st.lists(st.one_of(mixed_label_st, label_st), max_size=5))
    @example([b"www", b"Example", b"nl"])
    @example([b"a.b", b"back\\slash", b"\x00", b" ", b"\x7f\xff"])
    def test_text_is_the_per_octet_rendering(self, labels):
        """``to_text`` renders a name whose octets all spell themselves in
        one step; the result is what rendering octet by octet gives."""
        parts = []
        for label in labels:
            out = ""
            for octet in label:
                if octet in (0x2E, 0x5C):
                    out += "\\" + chr(octet)
                elif 0x21 <= octet <= 0x7E:
                    out += chr(octet)
                else:
                    out += f"\\{octet:03d}"
            parts.append(out)
        expected = ".".join(parts) + "." if parts else "."
        assert Name(labels).to_text() == expected

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


# -- the decoder against its validating reference ------------------------------


def _reference_name_from_wire(cls, wire, offset):
    """``Name.from_wire`` as it was when every decoded name went through
    ``Name(labels)`` — each label and the total length checked a second
    time by the constructor.  Kept here as the reference the single-check
    decoder is held to."""
    labels = []
    seen_offsets = set()
    cursor = offset
    after = None
    total = 0
    while True:
        if cursor >= len(wire):
            raise NameError_("truncated name")
        length = wire[cursor]
        if length & 0xC0 == 0xC0:
            if cursor + 1 >= len(wire):
                raise NameError_("truncated compression pointer")
            pointer = ((length & 0x3F) << 8) | wire[cursor + 1]
            if after is None:
                after = cursor + 2
            if pointer >= cursor:
                raise NameError_("forward compression pointer")
            if pointer in seen_offsets:
                raise NameError_("compression pointer loop")
            seen_offsets.add(pointer)
            cursor = pointer
            continue
        if length & 0xC0:
            raise NameError_("unsupported label type")
        cursor += 1
        if length == 0:
            break
        if cursor + length > len(wire):
            raise NameError_("label runs past end of message")
        labels.append(wire[cursor : cursor + length])
        total += length + 1
        if total + 1 > MAX_NAME_LENGTH:
            raise NameError_("decoded name exceeds maximum length")
        cursor += length
    if after is None:
        after = cursor
    return Name(labels), after


def _reference_parse_additional(wire, offset, message):
    """``Message._parse_additional`` decoding every owner name in full,
    the OPT's root owner included."""
    name, after_name = Name.from_wire(wire, offset)
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


def _decode(wire, reference=False):
    """The decoded message, or ``None`` for a ``WireDecodeError`` (anything
    else a decoder raises fails the test)."""
    try:
        if not reference:
            return Message.from_wire(wire)
        with mock.patch.object(
            Name, "from_wire", classmethod(_reference_name_from_wire)
        ), mock.patch.object(
            Message, "_parse_additional", staticmethod(_reference_parse_additional)
        ):
            return Message.from_wire(wire)
    except WireDecodeError:
        return None


def _names_of(message):
    names = [question.qname for question in message.questions]
    for section in (message.answers, message.authorities, message.additionals):
        names.extend(record.name for record in section)
    return names


def _mutate(wire, edits, cut):
    out = bytearray(wire)
    for position, value in edits:
        if out:
            out[position % len(out)] = value
    return bytes(out[: len(out) - cut % (len(out) + 1)])


#: Octets that steer a name decoder: root, pointers (backward, forward,
#: into the header), a 63-octet label, both reserved label types.
_STEERING = st.sampled_from([0x00, 0xC0, 0xC1, 0x0C, 0x06, 0x3F, 0x40, 0x80, 0xFF])

valid_wire_st = st.builds(
    lambda message, edns: Message(
        msg_id=message.msg_id, questions=message.questions,
        answers=message.answers, additionals=message.answers[:1], edns=edns,
    ).to_wire(),
    message_st,
    st.one_of(st.none(), st.builds(EdnsRecord, st.integers(0, 65535), st.booleans())),
)

hostile_wire_st = st.one_of(
    st.binary(max_size=80),
    # A plausible header over arbitrary octets: the decoder gets past the
    # counts and into the names.
    st.builds(
        lambda msg_id, counts, body: struct.pack("!HHHHHH", msg_id, 0, *counts) + body,
        st.integers(0, 65535),
        st.tuples(*[st.integers(0, 2)] * 4),
        st.binary(max_size=300),
    ),
    st.builds(
        _mutate,
        valid_wire_st,
        st.lists(
            st.tuples(st.integers(0, 4095), st.one_of(_STEERING, st.integers(0, 255))),
            max_size=4,
        ),
        st.one_of(st.just(0), st.integers(0, 4095)),
    ),
)


class TestDecoderAgainstValidatingReference:
    """``Name.from_wire`` trusts the bounds it checked while walking the
    octets, and an OPT's root owner is stepped over: for any input the
    outcome is the doubly-validating decoder's."""

    @settings(max_examples=600, derandomize=True, deadline=None)
    @given(hostile_wire_st)
    def test_same_message_or_same_refusal(self, wire):
        decoded = _decode(wire)
        expected = _decode(wire, reference=True)
        assert (decoded is None) == (expected is None)
        if decoded is None:
            return
        assert decoded == expected
        assert decoded.edns == expected.edns
        # Name equality folds case; spelling and the derived state must
        # match too.
        for name, reference in zip(_names_of(decoded), _names_of(expected)):
            assert name.labels == reference.labels
            assert hash(name) == hash(reference)
            assert name.canonical_key() == reference.canonical_key()
            assert name.to_wire() == reference.to_wire()
            assert name.to_text() == reference.to_text()

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(hostile_wire_st)
    def test_labels_are_bytes_whatever_the_buffer(self, wire):
        decoded = _decode(wire)
        from_buffer = _decode(bytearray(wire))
        assert (decoded is None) == (from_buffer is None)
        if decoded is None:
            return
        assert from_buffer == decoded
        for name, reference in zip(_names_of(from_buffer), _names_of(decoded)):
            assert name.labels == reference.labels
            assert all(type(label) is bytes for label in name.labels)

    def test_every_length_bound_still_refused(self):
        header = struct.pack("!HHHHHH", 1, 0, 1, 0, 0, 0)
        tail = struct.pack("!HH", 1, 1)
        longest = b"\x3f" + b"a" * 63
        fits = longest * 3 + b"\x3d" + b"a" * 61 + b"\x00"      # 255 octets
        over = longest * 3 + b"\x3e" + b"a" * 62 + b"\x00"      # 256 octets
        assert len(fits) == MAX_NAME_LENGTH and len(over) == MAX_NAME_LENGTH + 1
        assert Message.from_wire(header + fits + tail).question.qname.label_count == 4
        for name in (over, b"\x40" + b"a" * 64 + b"\x00", b"\x80a\x00", b"\x05ab"):
            with pytest.raises(WireDecodeError):
                Message.from_wire(header + name + tail)

    def test_missing_opt_owner_is_a_decode_error(self):
        # arcount promises a record the datagram ends before: the root-owner
        # shortcut indexes past the end.
        wire = Message.make_query(Name.from_text("example.nl"), RRType.A).to_wire()
        wire = wire[:10] + b"\x00\x01" + wire[12:]
        with pytest.raises(WireDecodeError):
            Message.from_wire(wire)
