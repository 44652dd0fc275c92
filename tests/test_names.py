"""Unit tests for domain-name algebra and wire codec."""

import pytest

from repro.dnscore import ROOT, Name, NameError_


class TestParsing:
    def test_root_from_dot(self):
        assert Name.from_text(".") == ROOT
        assert Name.from_text("") == ROOT

    def test_simple_name(self):
        name = Name.from_text("www.example.nl")
        assert name.labels == (b"www", b"example", b"nl")

    def test_trailing_dot_is_equivalent(self):
        assert Name.from_text("example.nl.") == Name.from_text("example.nl")

    def test_escaped_dot_stays_in_label(self):
        name = Name.from_text(r"a\.b.nl")
        assert name.labels == (b"a.b", b"nl")

    def test_dangling_escape_rejected(self):
        with pytest.raises(NameError_):
            Name.from_text("example.nl\\")

    def test_empty_label_rejected(self):
        with pytest.raises(NameError_):
            Name.from_text("a..nl")

    def test_label_too_long_rejected(self):
        with pytest.raises(NameError_):
            Name([b"x" * 64])

    def test_name_too_long_rejected(self):
        labels = [b"x" * 63] * 4  # 4*64 + 1 = 257 > 255
        with pytest.raises(NameError_):
            Name(labels)

    def test_longest_legal_name_accepted(self):
        # 3 * 64 + 61 + 1 + 1 = 255 octets exactly
        Name([b"x" * 63, b"x" * 63, b"x" * 63, b"x" * 60])


class TestRendering:
    def test_root_renders_as_dot(self):
        assert ROOT.to_text() == "."

    def test_round_trip(self):
        for text in ("nl.", "example.nz.", "www.sub.example.nl."):
            assert Name.from_text(text).to_text() == text

    def test_escaping_special_bytes(self):
        name = Name([b"a.b", b"nl"])
        assert name.to_text() == r"a\.b.nl."

    def test_non_printable_bytes_render_as_decimal_escapes(self):
        name = Name([bytes([0x07]), b"nl"])
        assert name.to_text() == r"\007.nl."


class TestEquality:
    def test_case_insensitive_equality(self):
        assert Name.from_text("WWW.Example.NL") == Name.from_text("www.example.nl")

    def test_case_insensitive_hash(self):
        assert hash(Name.from_text("EXAMPLE.nl")) == hash(Name.from_text("example.NL"))

    def test_original_case_preserved(self):
        assert Name.from_text("ExAmPlE.nl").to_text() == "ExAmPlE.nl."

    def test_canonical_ordering_compares_rightmost_first(self):
        a = Name.from_text("z.example.nl")
        b = Name.from_text("a.other.nl")
        # example < other at the second label, despite z > a at the first.
        assert sorted([b, a], key=Name.canonical_key) == [a, b]


class TestStructure:
    def test_parent(self):
        assert Name.from_text("www.example.nl").parent() == Name.from_text("example.nl")

    def test_parent_of_root_raises(self):
        with pytest.raises(NameError_):
            ROOT.parent()

    def test_ancestor_with_labels(self):
        name = Name.from_text("a.b.c.nl")
        assert name.ancestor_with_labels(1) == Name.from_text("nl")
        assert name.ancestor_with_labels(2) == Name.from_text("c.nl")
        assert name.ancestor_with_labels(4) == name
        assert name.ancestor_with_labels(0) == ROOT

    def test_ancestor_with_too_many_labels_raises(self):
        with pytest.raises(NameError_):
            Name.from_text("a.nl").ancestor_with_labels(3)

    def test_subdomain_relations(self):
        nl = Name.from_text("nl")
        example = Name.from_text("example.nl")
        assert example.is_subdomain_of(nl)
        assert example.is_subdomain_of(ROOT)
        assert example.is_subdomain_of(example)
        assert not nl.is_subdomain_of(example)

    def test_subdomain_requires_label_boundary(self):
        # "ample.nl" is not a parent of "example.nl"
        assert not Name.from_text("example.nl").is_subdomain_of(
            Name.from_text("ample.nl")
        )

    def test_prepend(self):
        assert Name.from_text("example.nl").prepend(b"www") == Name.from_text(
            "www.example.nl"
        )

    def test_prepend_still_validates_what_it_adds(self):
        base = Name.from_text("example.nl")
        with pytest.raises(NameError_):
            base.prepend(b"")
        with pytest.raises(NameError_):
            base.prepend(b"www", b"")
        with pytest.raises(NameError_):
            base.prepend(b"x" * 64)
        assert base.prepend(b"x" * 63).labels[0] == b"x" * 63

    def test_prepend_still_enforces_the_total_length(self):
        # 4 x (1 + 61) + 1 = 249 octets; six more make 255, seven 256.
        base = Name([b"a" * 61] * 4)
        assert len(base.prepend(b"b" * 5).to_wire()) == 255
        with pytest.raises(NameError_):
            base.prepend(b"b" * 6)
        with pytest.raises(NameError_):
            base.prepend(b"b", b"c" * 4)

    def test_prepend_keeps_the_given_spelling(self):
        name = Name.from_text("Example.NL").prepend(b"WwW")
        assert name.labels == (b"WwW", b"Example", b"NL")
        assert name == Name.from_text("www.example.nl")
        assert hash(name) == hash(Name.from_text("www.example.nl"))
        assert name.parent().labels == (b"Example", b"NL")

    @pytest.mark.parametrize("base, labels", [
        (ROOT, (b"nl",)),
        (Name.from_text("Example.NL"), (b"WwW",)),
        (Name.from_text("example.nl"), (b"A", b"b-C", b"x" * 63)),
        (Name([b"a" * 61] * 4), (b"B" * 5,)),  # exactly 255 octets
    ])
    def test_prepend_is_the_validating_constructor(self, base, labels):
        """``prepend`` checks its new labels in place; what it builds is
        what ``Name`` builds from the joined labels."""
        prepended, built = base.prepend(*labels), Name(labels + base.labels)
        assert prepended.labels == built.labels
        assert prepended.key == built.key
        assert prepended.wire_length == built.wire_length
        assert hash(prepended) == hash(built)

    @pytest.mark.parametrize("base, labels", [
        (Name.from_text("example.nl"), (b"www", b"")),           # empty label
        (Name.from_text("example.nl"), (b"x" * 64,)),            # 64-octet label
        (Name([b"a" * 61] * 4), (b"b" * 6,)),                    # 256 octets
    ])
    def test_prepend_raises_what_the_constructor_raises(self, base, labels):
        with pytest.raises(NameError_) as built:
            Name(labels + base.labels)
        with pytest.raises(NameError_) as prepended:
            base.prepend(*labels)
        assert str(prepended.value) == str(built.value)


class TestWire:
    def test_root_wire_is_single_zero(self):
        assert ROOT.to_wire() == b"\x00"

    def test_known_encoding(self):
        assert Name.from_text("example.nl").to_wire() == b"\x07example\x02nl\x00"

    def test_round_trip_no_compression(self):
        name = Name.from_text("www.example.nz")
        decoded, offset = Name.from_wire(name.to_wire(), 0)
        assert decoded == name
        assert offset == len(name.to_wire())

    def test_compression_pointer_emitted_and_followed(self):
        compress = {}
        first = Name.from_text("example.nl")
        second = Name.from_text("www.example.nl")
        buf = bytearray(first.to_wire(compress, 0))
        start_second = len(buf)
        buf.extend(second.to_wire(compress, start_second))
        # The second encoding must be shorter than uncompressed form.
        assert len(buf) - start_second < len(second.to_wire())
        decoded1, _ = Name.from_wire(bytes(buf), 0)
        decoded2, after = Name.from_wire(bytes(buf), start_second)
        assert decoded1 == first
        assert decoded2 == second
        assert after == len(buf)

    def test_pointer_loop_detected(self):
        wire = b"\xc0\x00"
        with pytest.raises(NameError_):
            Name.from_wire(wire, 0)

    def test_truncated_name_detected(self):
        with pytest.raises(NameError_):
            Name.from_wire(b"\x05exa", 0)

    def test_unsupported_label_type_rejected(self):
        with pytest.raises(NameError_):
            Name.from_wire(b"\x80abc", 0)
