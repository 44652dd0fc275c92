"""Property-based tests for caches, the columnar store, and NSEC coverage."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.capture import CaptureStore, QueryRecord, Transport, join_address, split_address
from repro.dnscore import ARdata, Name, NSECRdata, RCode, ResourceRecord, RRType
from repro.netsim import IPAddress
from repro.resolver import ResolverCache
from repro.zones import ZipfSampler

# -- capture store vs reference implementation -------------------------------------

record_st = st.builds(
    lambda ts, fam, val, qtype, rcode, transport, rtt: QueryRecord(
        timestamp=ts,
        server_id="s",
        src=IPAddress(fam, val % (2**32 if fam == 4 else 2**128)),
        transport=Transport.TCP if transport else Transport.UDP,
        qname="example.nl.",
        qtype=qtype,
        rcode=rcode,
        tcp_rtt_ms=(rtt if transport else None),
    ),
    st.floats(0, 1e6, allow_nan=False),
    st.sampled_from([4, 6]),
    st.integers(0, 2**128 - 1),
    st.integers(1, 255),
    st.integers(0, 10),
    st.booleans(),
    st.floats(0.1, 500.0),
)


class TestStoreProperties:
    @settings(max_examples=40)
    @given(st.lists(record_st, max_size=40))
    def test_count_by_matches_reference(self, records):
        store = CaptureStore()
        store.extend(records)
        view = store.view()
        counts = view.count_by(view.rcode)
        reference = {}
        for record in records:
            reference[record.rcode] = reference.get(record.rcode, 0) + 1
        assert counts == reference

    @settings(max_examples=40)
    @given(st.lists(record_st, max_size=40))
    def test_unique_addresses_matches_reference(self, records):
        store = CaptureStore()
        store.extend(records)
        view = store.view()
        expected = {(r.src.family, r.src.value) for r in records}
        assert view.unique_address_count() == len(expected)

    @settings(max_examples=40)
    @given(st.lists(record_st, max_size=30))
    def test_row_round_trip(self, records):
        store = CaptureStore()
        store.extend(records)
        view = store.view()
        for index, record in enumerate(records):
            assert view.record(index) == record

    @settings(max_examples=40)
    @given(st.lists(record_st, max_size=30), st.integers(0, 10))
    def test_select_is_filter(self, records, pivot):
        store = CaptureStore()
        store.extend(records)
        view = store.view()
        selected = view.select(view.rcode == pivot)
        assert len(selected) == sum(1 for r in records if r.rcode == pivot)

    @given(st.sampled_from([4, 6]), st.integers(0, 2**128 - 1))
    def test_address_split_join(self, family, value):
        value %= 2**32 if family == 4 else 2**128
        address = IPAddress(family, value)
        assert join_address(*split_address(address)) == address


# -- resolver cache invariants --------------------------------------------------------

name_label_st = st.text(alphabet="abcdefghij", min_size=1, max_size=8)


class TestCacheProperties:
    @settings(max_examples=50)
    @given(
        st.lists(name_label_st, min_size=1, max_size=20, unique=True),
        st.integers(1, 1000),
    )
    def test_positive_entries_expire_exactly(self, labels, ttl):
        cache = ResolverCache(max_ttl=10_000)
        for label in labels:
            name = Name.from_text(f"{label}.nl")
            cache.put(
                0.0, name, RRType.A,
                [ResourceRecord(name, RRType.A, int(ttl), ARdata(1))],
            )
        for label in labels:
            name = Name.from_text(f"{label}.nl")
            assert cache.get(ttl - 0.5, name, RRType.A) is not None
            assert cache.get(ttl + 0.5, name, RRType.A) is None

    @settings(max_examples=50)
    @given(st.lists(name_label_st, min_size=3, max_size=15, unique=True), st.data())
    def test_nsec_gap_never_covers_endpoints(self, labels, data):
        cache = ResolverCache(aggressive_nsec=True)
        zone = Name.from_text("nl")
        names = sorted(Name.from_text(f"{label}.nl") for label in labels)
        for owner, nxt in zip(names, names[1:]):
            cache.add_nsec(zone, owner, nxt)
        # Existing names are never "covered" (they are gap endpoints).
        for name in names:
            assert not cache.nsec_covers(zone, name)

    @settings(max_examples=50)
    @given(st.lists(name_label_st, min_size=3, max_size=15, unique=True))
    def test_nsec_covers_interior_points(self, labels):
        cache = ResolverCache(aggressive_nsec=True)
        zone = Name.from_text("nl")
        names = sorted(Name.from_text(f"{label}.nl") for label in labels)
        for owner, nxt in zip(names, names[1:]):
            cache.add_nsec(zone, owner, nxt)
        # A name strictly between two adjacent cached endpoints is covered.
        for owner, nxt in zip(names, names[1:]):
            candidate = Name(
                (owner.labels[0] + b"zzzz",) + owner.labels[1:]
            )
            if owner < candidate < nxt:
                assert cache.nsec_covers(zone, candidate)

    @settings(max_examples=100)
    @given(
        st.lists(name_label_st, min_size=1, max_size=12, unique=True),
        st.data(),
    )
    def test_nsec_covers_agrees_with_name_order(self, labels, data):
        """The ranges are kept as canonical keys; the answer must be the
        one ``Name`` ordering gives.  The gaps are a learned subset of one
        zone's NSEC chain, wraparound gap included, added in any order and
        any case spelling, and probed with names in and between them."""

        def spelled(name):
            mask = data.draw(st.integers(0, 2**64 - 1))
            return Name(tuple(
                bytes(b ^ 0x20 if (mask >> i) & 1 else b for i, b in enumerate(label))
                for label in name.labels
            ))

        def covers(owner, nxt, q):
            if owner < nxt:
                return owner < q < nxt
            return owner < q or q < nxt

        zone = Name.from_text("nl")
        chain = sorted(Name.from_text(f"{label}.nl") for label in labels)
        gaps = list(zip(chain, chain[1:])) + [(chain[-1], chain[0])]
        learned = data.draw(st.lists(st.sampled_from(gaps), unique=True))
        cache = ResolverCache(aggressive_nsec=True)
        for owner, nxt in learned:
            cache.add_nsec(zone, spelled(owner), spelled(nxt))
        probes = chain + [
            Name.from_text(f"{label}.nl")
            for label in data.draw(st.lists(name_label_st, max_size=10))
        ] + [zone, Name.from_text("zzzz.nl"), Name.from_text("a.a.nl")]
        for probe in probes:
            expected = any(covers(owner, nxt, probe) for owner, nxt in learned)
            assert cache.nsec_covers(zone, spelled(probe)) == expected, probe


class TestNSECRdataProperties:
    @settings(max_examples=50)
    @given(
        st.lists(name_label_st, min_size=3, max_size=10, unique=True),
        name_label_st,
    )
    def test_chain_covers_every_absent_name(self, labels, probe_label):
        names = sorted(Name.from_text(f"{label}.nl") for label in labels)
        probe = Name.from_text(f"{probe_label}.nl")
        if probe in names:
            return
        gaps = list(zip(names, names[1:])) + [(names[-1], names[0])]
        covering = [
            (owner, nxt)
            for owner, nxt in gaps
            if NSECRdata(nxt, (RRType.NS,)).covers(owner, probe)
        ]
        # Exactly one gap in a complete chain covers any absent name.
        assert len(covering) == 1


class TestZipfProperties:
    @settings(max_examples=30)
    @given(st.integers(2, 500), st.floats(0.0, 2.0))
    def test_cdf_monotone_and_complete(self, n, exponent):
        sampler = ZipfSampler(n, exponent)
        total = sum(sampler.probability(i) for i in range(n))
        assert total == pytest.approx(1.0)
        probs = [sampler.probability(i) for i in range(n)]
        assert all(a >= b - 1e-12 for a, b in zip(probs, probs[1:]))

    @settings(max_examples=20)
    @given(st.integers(2, 100), st.integers(0, 2**31 - 1))
    def test_samples_within_range(self, n, seed):
        sampler = ZipfSampler(n)
        draws = sampler.sample_many(np.random.default_rng(seed), 200)
        assert draws.min() >= 0
        assert draws.max() < n
