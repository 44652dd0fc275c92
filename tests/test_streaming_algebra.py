"""Aggregator algebra: the law the one fold obeys.

Every metric is declared keys over one count table (``CountTable``).  A
run folds its capture chunk by chunk, so the fold is only correct if
feeding a capture partition by partition equals feeding it whole.  The
table is held to the reference that law stands for: folded in random
partitions, in order, into one table, it is the ``collections.Counter``
of its rows, also when its parts are compacted inside the fold.  Per
metric, the law is checked on its ``exact_state()`` for every registered
metric and the three every ``AggregateSet`` folds beside the registry.

The composition metric also carries a space-saving summary, fed beside
its table, which depends on where chunk boundaries fall; for it the
tests assert the bound contract instead — after any partitioning, every
name's true count still falls inside the summary's ``bounds()`` bracket.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import AggregateSet, ConcentrationAggregator
from repro.analysis import FacebookSiteAggregator, RSSACAggregator
from repro.analysis.attribution import OTHER, UNKNOWN, AttributionResult, factorize
from repro.analysis import streaming
from repro.analysis.streaming import AGGREGATOR_FACTORIES, CountTable
from repro.capture import QueryRecord, Transport
from repro.clouds import PROVIDERS
from repro.netsim import IPAddress

from .helpers import view_of

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




def partition(view, cuts):
    """Split a view into contiguous slices at the given row offsets."""
    bounds = sorted({c % (len(view) + 1) for c in cuts})
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
        view = view_of(records)
        whole = fed(name, [view])
        chunked = fed(name, partition(view, cuts))
        assert whole.exact_state() == chunked.exact_state()
        assert_approx_part_sound(whole, view)
        assert_approx_part_sound(chunked, view)


class TestAggregateSetAlgebra:
    @settings(max_examples=15, deadline=None)
    @given(parts_st)
    def test_set_chunked_feed_equals_whole(self, data):
        """What a run does: one set fed its capture chunk by chunk."""
        records, cuts = data
        view = view_of(records)
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
#: Rows drawn from a few distinct ones and their twins with the TC bit
#: flipped: the first key column packs into the highest bits, which a key
#: that overflowed would lose, so rows repeat and twins must stay apart.
table_rows_st = st.lists(table_row_st, min_size=1, max_size=6).flatmap(
    lambda pool: st.lists(
        st.sampled_from(pool + [(not row[0],) + row[1:] for row in pool]), max_size=60
    )
)


@settings(max_examples=100, deadline=None)
@given(table_rows_st, st.lists(st.integers(0, 60), max_size=4),
       st.sampled_from([streaming.PENDING_KEYS, 0]))
def test_count_table_is_the_counter_of_its_rows(rows, cuts, pending):
    """Folded cut at ``cuts``, in order, into one table, the rows are held
    once per distinct key with their count.  With no pending allowance
    (``pending`` 0) the parts also compact inside ``fold``, as soon as the
    pending ones hold more keys than the first, not only when read."""
    saved, streaming.PENDING_KEYS = streaming.PENDING_KEYS, pending
    try:
        bounds = sorted({0, len(rows), *(cut % (len(rows) + 1) for cut in cuts)})
        table = CountTable(TABLE_KEY)
        for start, stop in zip(bounds, bounds[1:]):
            columns = [np.array(column, dtype=dtype)
                       for column, dtype in zip(zip(*rows[start:stop]), TABLE_KEY.values())]
            columns[-1] = factorize(columns[-1])
            table.fold(dict(zip(TABLE_KEY, columns)), {})
        folded = table.rows()
    finally:
        streaming.PENDING_KEYS = saved
    keys = list(zip(*(folded[name].tolist() for name in TABLE_KEY)))
    assert len(set(keys)) == len(keys)
    assert Counter(dict(zip(keys, folded["n"].tolist()))) == Counter(rows)
