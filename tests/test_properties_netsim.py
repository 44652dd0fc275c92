"""Property-based tests for the network substrate.

Invariants: address text round-trips; the prefix trie agrees with a naive
linear longest-prefix scan; prefix containment is consistent with host
enumeration; the latency model is symmetric and respects the triangle-ish
structure of great-circle distance.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.netsim import (
    GAZETTEER,
    IPAddress,
    LatencyModel,
    Prefix,
    PrefixTrie,
    format_ipv4,
    format_ipv6,
    great_circle_km,
    parse_ipv4,
    parse_ipv6,
)

v4_int = st.integers(0, 2**32 - 1)
v6_int = st.integers(0, 2**128 - 1)


def make_prefix(family: int, value: int, length: int) -> Prefix:
    bits = 32 if family == 4 else 128
    shift = bits - length
    network = (value >> shift) << shift if shift else value
    return Prefix(family, network, length)


def contains(prefix: Prefix, address: IPAddress) -> bool:
    """The linear-scan reference: ``address`` lies inside ``prefix``."""
    shift = prefix.bits - prefix.length
    return address.family == prefix.family and (
        address.value >> shift == prefix.value >> shift
    )


v4_prefix_st = st.builds(make_prefix, st.just(4), v4_int, st.integers(0, 32))
v6_prefix_st = st.builds(make_prefix, st.just(6), v6_int, st.integers(0, 128))
prefix_st = st.one_of(v4_prefix_st, v6_prefix_st)
address_st = st.one_of(
    st.builds(IPAddress, st.just(4), v4_int),
    st.builds(IPAddress, st.just(6), v6_int),
)


class TestAddressProperties:
    @given(v4_int)
    def test_v4_round_trip(self, value):
        assert parse_ipv4(format_ipv4(value)) == value

    @given(v6_int)
    def test_v6_round_trip(self, value):
        assert parse_ipv6(format_ipv6(value)) == value

    @given(address_st)
    def test_ipaddress_text_round_trip(self, address):
        assert IPAddress.parse(address.to_text()) == address


class TestPrefixProperties:
    @given(prefix_st)
    def test_prefix_text_round_trip(self, prefix):
        assert Prefix.parse(prefix.to_text()) == prefix

    @given(prefix_st)
    def test_network_host_contained(self, prefix):
        assert contains(prefix, prefix.host(0))
        assert contains(prefix, prefix.host(prefix.num_hosts() - 1))


class TestTrieAgainstLinearScan:
    @settings(max_examples=60)
    @given(
        st.lists(st.tuples(prefix_st, st.integers()), min_size=1, max_size=20),
        st.lists(address_st, min_size=1, max_size=20),
    )
    def test_trie_matches_reference(self, entries, probes):
        trie = PrefixTrie()
        table = {}
        for prefix, value in entries:
            trie.insert(prefix, value)
            table[prefix] = value  # later insert wins, as in the trie

        def reference(address):
            best = None
            for prefix, value in table.items():
                if contains(prefix, address):
                    if best is None or prefix.length > best[0].length:
                        best = (prefix, value)
            return best

        for address in probes:
            expected = reference(address)
            actual = trie.lookup(address)
            if expected is None:
                assert actual is None
            else:
                assert actual is not None
                assert actual[0].length == expected[0].length
                assert actual[1] == expected[1]

    @settings(max_examples=60)
    @given(
        st.lists(st.tuples(prefix_st, st.integers()), min_size=1, max_size=20),
        st.lists(st.tuples(address_st, st.integers(0, 19)), min_size=1, max_size=20),
    )
    def test_lookup_value_is_lookups_value(self, entries, probes):
        """``lookup_value`` builds no prefix but answers as ``lookup``:
        for random addresses, and for each one moved inside a stored prefix
        (its network bits, the address's host bits)."""
        trie = PrefixTrie()
        for prefix, value in entries:
            trie.insert(prefix, value)
        for address, index in probes:
            prefix = entries[index % len(entries)][0]
            host = (1 << (prefix.bits - prefix.length)) - 1
            inside = IPAddress(prefix.family, prefix.value | (address.value & host))
            for probe in (address, inside):
                match = trie.lookup(probe)
                assert trie.lookup_value(probe) == (None if match is None else match[1])

    @settings(max_examples=40)
    @given(st.lists(st.tuples(prefix_st, st.integers()), min_size=1, max_size=15))
    def test_items_returns_all_inserted(self, entries):
        trie = PrefixTrie()
        table = {}
        for prefix, value in entries:
            trie.insert(prefix, value)
            table[prefix] = value
        assert dict(trie.items()) == table


class TestLatencyProperties:
    sites = list(GAZETTEER.values())

    @given(st.sampled_from(sites), st.sampled_from(sites))
    def test_distance_symmetry(self, a, b):
        assert great_circle_km(a, b) == pytest.approx(great_circle_km(b, a), rel=1e-9)

    @given(st.sampled_from(sites), st.sampled_from(sites))
    def test_rtt_positive_and_symmetric(self, a, b):
        model = LatencyModel()
        assert model.rtt_ms(a, b) > 0
        assert model.rtt_ms(a, b) == pytest.approx(model.rtt_ms(b, a))
