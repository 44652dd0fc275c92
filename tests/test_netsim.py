"""Unit tests for the network substrate: addresses, trie, ASes, geo, clock."""

from datetime import datetime, timezone

import pytest

from repro.netsim import (
    AddressError,
    ASInfo,
    ASRegistry,
    GAZETTEER,
    IPAddress,
    LatencyModel,
    Prefix,
    PrefixTrie,
    SimClock,
    great_circle_km,
    nearest_site,
    utc_timestamp,
)


class TestIPv4:
    def test_parse_format_round_trip(self):
        for text in ("0.0.0.0", "192.0.2.1", "255.255.255.255", "8.8.8.8"):
            assert IPAddress.parse(text).to_text() == text

    def test_rejects_bad_quads(self):
        for bad in ("1.2.3", "1.2.3.4.5", "256.0.0.1", "01.2.3.4", "a.b.c.d"):
            with pytest.raises(AddressError):
                IPAddress.parse(bad)


class TestIPv6:
    def test_parse_format_round_trip(self):
        for text in ("::", "::1", "2001:db8::1", "fe80::1:2:3:4", "2001:db8:0:1:1:1:1:1"):
            assert IPAddress.parse(text).to_text() == text

    def test_full_form_parses(self):
        addr = IPAddress.parse("2001:0db8:0000:0000:0000:0000:0000:0001")
        assert addr.to_text() == "2001:db8::1"

    def test_embedded_ipv4(self):
        addr = IPAddress.parse("::ffff:192.0.2.1")
        assert addr.value == (0xFFFF << 32) | 0xC0000201

    def test_rejects_malformed(self):
        for bad in ("1::2::3", ":::", "2001:db8", "2001:db8:::1", "12345::"):
            with pytest.raises(AddressError):
                IPAddress.parse(bad)


class TestPrefix:
    def test_parse_and_contains(self):
        prefix = Prefix.parse("203.0.113.0/24")
        assert (prefix.family, prefix.value, prefix.length) == (4, 0xCB007100, 24)
        trie = PrefixTrie()
        trie.insert(prefix, "in")
        assert trie.lookup_value(IPAddress.parse("203.0.113.77")) == "in"
        assert trie.lookup_value(IPAddress.parse("203.0.114.1")) is None
        assert trie.lookup_value(IPAddress.parse("2001:db8::1")) is None

    def test_host_bits_rejected(self):
        with pytest.raises(AddressError):
            Prefix.parse("203.0.113.1/24")

    def test_host_enumeration(self):
        prefix = Prefix.parse("10.0.0.0/30")
        assert prefix.num_hosts() == 4
        assert prefix.host(3).to_text() == "10.0.0.3"
        with pytest.raises(AddressError):
            prefix.host(4)



class TestPrefixTrie:
    def test_longest_match_wins(self):
        trie = PrefixTrie()
        trie.insert(Prefix.parse("10.0.0.0/8"), "coarse")
        trie.insert(Prefix.parse("10.1.0.0/16"), "fine")
        assert trie.lookup_value(IPAddress.parse("10.1.2.3")) == "fine"
        assert trie.lookup_value(IPAddress.parse("10.2.2.3")) == "coarse"

    def test_miss_returns_none(self):
        trie = PrefixTrie()
        trie.insert(Prefix.parse("10.0.0.0/8"), "x")
        assert trie.lookup_value(IPAddress.parse("11.0.0.1")) is None

    def test_families_do_not_collide(self):
        trie = PrefixTrie()
        trie.insert(Prefix.parse("0.0.0.0/0"), "v4-default")
        assert trie.lookup_value(IPAddress.parse("2001:db8::1")) is None

    def test_lookup_reports_matched_prefix(self):
        trie = PrefixTrie()
        trie.insert(Prefix.parse("2001:db8::/32"), 42)
        match = trie.lookup(IPAddress.parse("2001:db8::99"))
        assert match is not None
        prefix, value = match
        assert prefix == Prefix.parse("2001:db8::/32")
        assert value == 42

    def test_replace_keeps_size(self):
        trie = PrefixTrie()
        trie.insert(Prefix.parse("10.0.0.0/8"), 1)
        trie.insert(Prefix.parse("10.0.0.0/8"), 2)
        assert list(trie.items()) == [(Prefix.parse("10.0.0.0/8"), 2)]
        assert trie.lookup_value(IPAddress.parse("10.0.0.1")) == 2

    def test_items_round_trip(self):
        trie = PrefixTrie()
        entries = {
            Prefix.parse("10.0.0.0/8"): "a",
            Prefix.parse("10.128.0.0/9"): "b",
            Prefix.parse("2001:db8::/32"): "c",
        }
        for prefix, value in entries.items():
            trie.insert(prefix, value)
        assert dict(trie.items()) == entries


class TestASRegistry:
    def _registry(self):
        reg = ASRegistry()
        reg.register(ASInfo(15169, "GOOGLE", "Google", "US"))
        reg.register(ASInfo(16509, "AMAZON-02", "Amazon", "US"))
        reg.announce(15169, Prefix.parse("8.8.8.0/24"))
        reg.announce(16509, Prefix.parse("52.0.0.0/10"))
        return reg

    def test_origin_lookup(self):
        reg = self._registry()
        assert reg.origin(IPAddress.parse("8.8.8.8")) == 15169
        assert reg.origin(IPAddress.parse("52.1.2.3")) == 16509
        assert reg.origin(IPAddress.parse("9.9.9.9")) is None

    def test_operator_mapping(self):
        reg = self._registry()
        assert reg.operator_of(15169) == "Google"
        assert reg.operator_of(99999) is None

    def test_announce_unknown_as_rejected(self):
        reg = self._registry()
        with pytest.raises(KeyError):
            reg.announce(3356, Prefix.parse("4.0.0.0/8"))

    def test_conflicting_reregistration_rejected(self):
        reg = self._registry()
        with pytest.raises(ValueError):
            reg.register(ASInfo(15169, "EVIL", "Mallory", "XX"))

    def test_idempotent_reregistration_allowed(self):
        reg = self._registry()
        reg.register(ASInfo(15169, "GOOGLE", "Google", "US"))
        assert len(list(reg.ases())) == 2


class TestGeo:
    def test_zero_distance(self):
        ams = GAZETTEER["AMS"]
        assert great_circle_km(ams, ams) == pytest.approx(0.0, abs=1e-9)

    def test_known_distance_ams_akl(self):
        # Amsterdam to Auckland is roughly 18,300 km.
        d = great_circle_km(GAZETTEER["AMS"], GAZETTEER["AKL"])
        assert 17500 < d < 19000

    def test_rtt_scales_with_distance(self):
        model = LatencyModel()
        near = model.rtt_ms(GAZETTEER["AMS"], GAZETTEER["LHR"])
        far = model.rtt_ms(GAZETTEER["AMS"], GAZETTEER["SYD"])
        assert far > near > 0

    def test_nearest_site(self):
        candidates = [GAZETTEER["AMS"], GAZETTEER["SYD"], GAZETTEER["IAD"]]
        assert nearest_site(GAZETTEER["LHR"], candidates).code == "AMS"
        assert nearest_site(GAZETTEER["AKL"], candidates).code == "SYD"

    def test_nearest_site_empty_rejected(self):
        with pytest.raises(ValueError):
            nearest_site(GAZETTEER["AMS"], [])


class TestClock:
    def test_utc_timestamp_round_trip(self):
        ts = utc_timestamp(2020, 4, 5) + 12 * 3600 + 30 * 60 + 15
        dt = datetime.fromtimestamp(ts, tz=timezone.utc)
        assert (dt.year, dt.month, dt.day, dt.hour, dt.minute, dt.second) == (
            2020, 4, 5, 12, 30, 15,
        )

    def test_advance(self):
        clock = SimClock(now=100.0)
        assert clock.advance(5.0) == 105.0
        with pytest.raises(ValueError):
            clock.advance(-1.0)
