"""Aggregator algebra: the laws the one fold and the merge obey.

Every metric is declared keys over one count table (``CountTable``).  A
run folds its capture chunk by chunk, so the fold is only correct if (1)
feeding a capture partition-by-partition equals feeding it whole; and
two folds combine by ``merge``, which must be (2) order-insensitive and
(3) associative.  The table is held to the reference those laws stand
for: folded in random partitions and merged in random orders, it is the
``collections.Counter`` of its rows.  Per metric, they are checked on its
``exact_state()`` for every registered metric and the three every
``AggregateSet`` folds beside the registry.

The composition metric also carries a space-saving summary, fed beside
its table, which depends on where chunk boundaries fall and whose merge
is deliberately lossy; for it the tests assert the bound contract
instead — after any partitioning/merge order, every name's true count
still falls inside the summary's ``bounds()`` bracket.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import AggregateSet, ConcentrationAggregator
from repro.analysis import FacebookSiteAggregator, RSSACAggregator
from repro.analysis.attribution import OTHER, UNKNOWN, AttributionResult, factorize
from repro.analysis.streaming import AGGREGATOR_FACTORIES, CountTable, GoogleSplitAggregator
from repro.capture import CaptureStore, QueryRecord, Transport
from repro.clouds import PROVIDERS
from repro.netsim import IPAddress

#: Labels the synthetic attribution can hand out (clouds + the two
#: non-cloud buckets the real Attributor produces).
LABELS = tuple(PROVIDERS) + (OTHER, UNKNOWN)

#: Countries the synthetic attribution can hand out (real codes spanning
#: the EU / Five Eyes / BRICS blocs, plus the no-country sentinel).
COUNTRY_POOL = ("US", "NL", "DE", "BR", "NZ", "GB", "ZZ")

#: 8.8.8.8 — inside the advertised Google Public DNS egress ranges, so the
#: GoogleSplit trie sees genuine public hits, not only misses.
GOOGLE_PUBLIC_V4 = 0x08080808

record_st = st.builds(
    lambda ts, fam, val, public, transport, qname, qtype, rcode, bufsize, trunc, rtt: QueryRecord(
        timestamp=ts,
        server_id="nl-a",
        src=IPAddress(4, GOOGLE_PUBLIC_V4) if public else IPAddress(
            fam, val % (2**32 if fam == 4 else 2**128)
        ),
        transport=Transport.TCP if transport else Transport.UDP,
        qname=qname,
        qtype=qtype,
        rcode=rcode,
        edns_bufsize=bufsize,
        truncated=trunc,
        tcp_rtt_ms=(rtt if transport else None),
    ),
    st.floats(0, 1e6, allow_nan=False),
    st.sampled_from([4, 6]),
    st.integers(0, 2**128 - 1),
    st.booleans(),
    st.booleans(),
    st.sampled_from(["nl.", "example.nl.", "sub.example.nl.", "deep.sub.example.nl."]),
    st.sampled_from([1, 2, 6, 12, 28, 48]),
    st.integers(0, 5),
    st.sampled_from([0, 512, 1232, 4096]),
    st.booleans(),
    st.floats(0.1, 500.0),
)


def synthetic_attribution(view) -> AttributionResult:
    """Deterministic per-row labels derived purely from row content.

    Being a pure function of the row, the labelling is automatically
    consistent across any partitioning of the capture — the same property
    the real Attributor has.
    """
    mix = (view.src_hi * np.uint64(31) + view.src_lo + view.family) % np.uint64(
        len(LABELS)
    )
    providers = np.array([LABELS[int(i)] for i in mix], dtype=object)
    # Force the crafted public-DNS address into Google so split states are
    # populated; keep some rows unrouted (ASN 0).
    public = (view.family == 4) & (view.src_lo == np.uint64(GOOGLE_PUBLIC_V4))
    providers[public] = "Google"
    asns = (view.src_lo % np.uint64(7)).astype(np.int64)
    country_mix = (view.src_lo * np.uint64(13) + view.src_hi) % np.uint64(
        len(COUNTRY_POOL)
    )
    countries = np.array([COUNTRY_POOL[int(i)] for i in country_mix], dtype=object)
    return AttributionResult(providers=providers, asns=asns, countries=countries)


def records_to_view(records):
    store = CaptureStore()
    store.extend(records)
    return store.view()


def partition(view, cuts):
    """Split a view into contiguous slices at the given row offsets."""
    bounds = sorted({min(c, len(view)) for c in cuts})
    parts, start = [], 0
    for bound in bounds + [len(view)]:
        mask = np.zeros(len(view), dtype=bool)
        mask[start:bound] = True
        parts.append(view.select(mask))
        start = bound
    return parts


#: Everything an ``AggregateSet`` folds: the registry and, beside it, the
#: concentration counts, the Facebook site rows and the RSSAC days.
FACTORIES = {
    **AGGREGATOR_FACTORIES,
    ConcentrationAggregator.name: ConcentrationAggregator,
    FacebookSiteAggregator.name: FacebookSiteAggregator,
    RSSACAggregator.name: RSSACAggregator,
}


def fresh(name):
    return FACTORIES[name](PROVIDERS)


def fed(name, views):
    aggregator = fresh(name)
    for view in views:
        aggregator.feed(view, synthetic_attribution(view))
    return aggregator


def assert_approx_part_sound(aggregator, *views):
    """The bound contract for the approximate (space-saving) part of an
    aggregator, against a brute-force recount of the fed rows.  No-op
    for fully-exact aggregators."""
    sketch = getattr(aggregator, "hot_names", None)
    if sketch is None:
        return
    truth = Counter()
    for view in views:
        truth.update(str(q) for q in view.qname)
    assert sketch.total == sum(truth.values())
    for qname, true_count in truth.items():
        lo, hi = sketch.bounds(qname)
        assert lo <= true_count <= hi, (
            f"{qname}: true {true_count} outside [{lo}, {hi}]"
        )


parts_st = st.tuples(
    st.lists(record_st, max_size=50),
    st.lists(st.integers(0, 50), max_size=3),
)


@pytest.mark.parametrize("name", sorted(FACTORIES))
class TestAggregatorAlgebra:
    @settings(max_examples=20, deadline=None)
    @given(parts_st)
    def test_feed_over_partition_equals_whole(self, name, data):
        records, cuts = data
        view = records_to_view(records)
        whole = fed(name, [view])
        chunked = fed(name, partition(view, cuts))
        assert whole.exact_state() == chunked.exact_state()
        assert_approx_part_sound(whole, view)
        assert_approx_part_sound(chunked, view)

    @settings(max_examples=20, deadline=None)
    @given(parts_st)
    def test_merge_is_order_insensitive(self, name, data):
        records, cuts = data
        parts = partition(records_to_view(records), cuts)
        shards = [fed(name, [part]) for part in parts]
        forward = fresh(name)
        for shard in [fed(name, [p]) for p in parts]:
            forward.merge(shard)
        backward = fresh(name)
        for shard in reversed(shards):
            backward.merge(shard)
        whole = fed(name, [records_to_view(records)])
        assert (
            forward.exact_state() == backward.exact_state() == whole.exact_state()
        )
        view = records_to_view(records)
        assert_approx_part_sound(forward, view)
        assert_approx_part_sound(backward, view)

    @settings(max_examples=20, deadline=None)
    @given(parts_st)
    def test_merge_is_associative(self, name, data):
        records, cuts = data
        view = records_to_view(records)
        parts = partition(view, cuts)[:3]
        while len(parts) < 3:
            parts.append(view.select(np.zeros(len(view), dtype=bool)))

        def shard(i):
            return fed(name, [parts[i]])

        left = shard(0)
        left.merge(shard(1))
        left.merge(shard(2))

        right_tail = shard(1)
        right_tail.merge(shard(2))
        right = shard(0)
        right.merge(right_tail)
        assert left.exact_state() == right.exact_state()
        assert_approx_part_sound(left, *parts)
        assert_approx_part_sound(right, *parts)

    def test_merge_rejects_mismatched_config(self, name):
        a = fresh(name)
        b = FACTORIES[name](PROVIDERS[:2])
        if name == GoogleSplitAggregator.name:
            # Its prefix list is a constant: only an instance handed
            # another list is configured differently.
            b.public_prefixes = ("192.0.2.0/24",)
        if a.config() == b.config():
            pytest.skip("aggregator has no configuration")
        with pytest.raises(ValueError):
            a.merge(b)


class TestAggregateSetAlgebra:
    @settings(max_examples=15, deadline=None)
    @given(parts_st)
    def test_set_partition_merge_equals_whole(self, data):
        records, cuts = data
        view = records_to_view(records)
        whole = AggregateSet(PROVIDERS)
        whole.feed(view, synthetic_attribution(view))

        merged = AggregateSet(PROVIDERS)
        for part in partition(view, cuts):
            shard = AggregateSet(PROVIDERS)
            shard.feed(part, synthetic_attribution(part))
            merged.merge(shard)

        assert merged.rows_fed == whole.rows_fed == len(view)
        for name in AGGREGATOR_FACTORIES:
            assert merged[name].exact_state() == whole[name].exact_state(), name
            assert_approx_part_sound(merged[name], view)
        for mine, theirs in zip(merged._beside(), whole._beside()):
            assert mine.exact_state() == theirs.exact_state(), mine.name

    @settings(max_examples=15, deadline=None)
    @given(parts_st)
    def test_set_chunked_feed_equals_whole(self, data):
        """What a run does: one set fed its capture chunk by chunk."""
        records, cuts = data
        view = records_to_view(records)
        whole = AggregateSet(PROVIDERS)
        whole.feed(view, synthetic_attribution(view))
        chunked = AggregateSet(PROVIDERS)
        for part in partition(view, cuts):
            chunked.feed(part, synthetic_attribution(part))

        assert chunked.rows_fed == whole.rows_fed == len(view)
        for name in AGGREGATOR_FACTORIES:
            assert chunked[name].exact_state() == whole[name].exact_state(), name
            assert_approx_part_sound(chunked[name], view)
        for mine, theirs in zip(chunked._beside(), whole._beside()):
            assert mine.exact_state() == theirs.exact_state(), mine.name

    def test_mismatched_sets_refuse_to_merge(self):
        # The provider list is a set's one configuration: fewer, the same
        # in another order, or other names make another set.
        a = AggregateSet(PROVIDERS)
        for providers in (PROVIDERS[:1], PROVIDERS[::-1], ("Google", "ExampleCloud")):
            with pytest.raises(ValueError, match="differently-configured"):
                a.merge(AggregateSet(providers))


#: One key column of each kind a table packs: narrow ones shifted in (two
#: of 32 bits overflow the packed key), wide ones ranked, and strings; few
#: values, far apart, so a key that lost high bits would collide.
TABLE_KEY = {"tc": np.bool_, "a": np.uint32, "b": np.uint32,
             "lo": np.uint64, "asn": np.int64, "country": object}
table_row_st = st.tuples(
    st.booleans(), *[st.sampled_from([0, 1, 2**31, 2**32 - 1])] * 2,
    st.sampled_from([0, 2**63, 2**64 - 1]), st.sampled_from([-2**62, -1, 0, 2**62]),
    st.sampled_from(COUNTRY_POOL),
)


@settings(max_examples=40, deadline=None)
@given(st.lists(table_row_st, max_size=60), st.lists(st.integers(0, 60), max_size=4),
       st.randoms())
def test_count_table_is_the_counter_of_its_rows(rows, cuts, random):
    bounds = sorted({0, len(rows), *(min(cut, len(rows)) for cut in cuts)})
    tables = [CountTable(TABLE_KEY) for _ in bounds[1:]]
    for table, start, stop in zip(tables, bounds, bounds[1:]):
        columns = [np.array(column, dtype=dtype)
                   for column, dtype in zip(zip(*rows[start:stop]), TABLE_KEY.values())]
        columns[-1] = factorize(columns[-1])
        table.fold(dict(zip(TABLE_KEY, columns)), {})
    random.shuffle(tables)
    merged = CountTable(TABLE_KEY)
    for table in tables:
        merged.merge(table)
    folded = merged.rows()
    keys = list(zip(*(folded[name].tolist() for name in TABLE_KEY)))
    assert len(set(keys)) == len(keys)
    assert Counter(dict(zip(keys, folded["n"].tolist()))) == Counter(rows)
