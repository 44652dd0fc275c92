"""Telemetry merge algebra: the laws the shard roll-up relies on.

``merge_snapshot`` is to telemetry what aggregator ``merge`` is to the
streaming analyses (``tests/test_streaming_algebra.py``): the pooled
runtime folds per-shard snapshots into parent-side state, and that fold
is only correct if feeding partition-by-partition equals feeding whole,
merge is order-insensitive (for everything except last-write-wins
gauges), and merge is associative.

Also here: the :func:`metric_key`/:func:`split_key` round-trip property —
label values are arbitrary strings (qnames, paths), so the structural
characters ``, = { } \\`` must survive the flat-key encoding.

All generated quantities are integers or small dyadic rationals (k/8) so
float accumulation is exact and bit-equality is the right comparison.
"""

from bisect import bisect_left

import pytest
from hypothesis import given, settings, strategies as st

from repro.telemetry import MetricsRegistry, metric_key, split_key

# -- metric_key / split_key round-trip -----------------------------------------

name_st = st.from_regex(r"[a-z][a-z0-9_.]{0,20}", fullmatch=True)

#: Label text with the structural specials well represented.
label_text_st = st.text(
    alphabet=st.sampled_from(list(",={}\\") + list("abcXYZ09._ /\"'\n")),
    max_size=12,
)

labels_st = st.dictionaries(label_text_st, label_text_st, max_size=4)


class TestKeyRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(name_st, labels_st)
    def test_split_inverts_metric_key(self, name, labels):
        key = metric_key(name, labels)
        assert split_key(key) == (name, labels)

    def test_structural_characters_in_values(self):
        labels = {"qname": "a{b}=c,d\\e.nl.", "p,ath": "x=y"}
        name, back = split_key(metric_key("m.n", labels))
        assert name == "m.n"
        assert back == labels

    def test_unlabelled_key_round_trips(self):
        assert split_key(metric_key("plain.name", {})) == ("plain.name", {})

    def test_registry_instruments_survive_odd_labels(self):
        metrics = MetricsRegistry()
        odd = "v=1,w{2}\\"
        metrics.counter("family", tag=odd).inc(5)
        snap = metrics.snapshot()
        assert snap.counter("family", tag=odd) == 5
        assert snap.total("family") == 5
        assert [split_key(key) for key in snap.counters] == [("family", {"tag": odd})]


# -- snapshot merge algebra ----------------------------------------------------

#: One registry operation.  Eighth-steps keep float sums exact, so merged
#: registries can be compared bit-for-bit.
op_st = st.one_of(
    st.tuples(
        st.just("counter"),
        st.sampled_from(["a.hits", "a.misses", "b.rows"]),
        st.sampled_from([{}, {"provider": "Google"}, {"provider": "Ox,{d}"}]),
        st.integers(1, 9),
    ),
    st.tuples(
        st.just("phase"),
        st.sampled_from(["resolve", "workload"]),
        st.integers(0, 64).map(lambda k: k / 8.0),
    ),
    st.tuples(
        st.just("hist"),
        st.sampled_from(["sizes"]),
        st.integers(0, 2048).map(float),
    ),
    st.tuples(
        st.just("gauge"),
        st.sampled_from(["g.level"]),
        st.integers(0, 100).map(float),
    ),
)

ops_parts_st = st.lists(st.lists(op_st, max_size=12), min_size=1, max_size=4)


def observe(hist, value):
    """One value into ``hist``, as a bulk of one."""
    counts = [0] * len(hist.bucket_counts)
    counts[bisect_left(hist.bounds, value)] = 1
    hist.add_bulk(counts, 1, value, value, value)


def apply_ops(metrics, ops):
    for op in ops:
        kind = op[0]
        if kind == "counter":
            _, name, labels, amount = op
            metrics.counter(name, **labels).inc(amount)
        elif kind == "phase":
            metrics.observe_phase(op[1], op[2])
        elif kind == "hist":
            observe(metrics.histogram(op[1]), op[2])
        else:
            metrics.gauge(op[1]).set(op[2])


def snap_of(parts):
    """Snapshot of all parts applied to one registry, in order."""
    metrics = MetricsRegistry()
    for part in parts:
        apply_ops(metrics, part)
    return metrics.snapshot()


def shard_snaps(parts):
    shards = []
    for part in parts:
        metrics = MetricsRegistry()
        apply_ops(metrics, part)
        shards.append(metrics.snapshot())
    return shards


def mergeable(snapshot):
    """The order-insensitive portion of a snapshot (gauges are
    last-write-wins by design, so they are excluded)."""
    data = snapshot.as_dict()
    data.pop("gauges")
    return data


class TestMergeSnapshotAlgebra:
    @settings(max_examples=40, deadline=None)
    @given(ops_parts_st)
    def test_partition_merge_equals_whole(self, parts):
        merged = MetricsRegistry()
        for snap in shard_snaps(parts):
            merged.merge_snapshot(snap)
        # In-order merge reproduces everything, gauges included: the last
        # partition's write is the whole run's last write.
        assert merged.snapshot().as_dict() == snap_of(parts).as_dict()

    @settings(max_examples=40, deadline=None)
    @given(ops_parts_st)
    def test_merge_is_order_insensitive(self, parts):
        snaps = shard_snaps(parts)
        forward, backward = MetricsRegistry(), MetricsRegistry()
        for snap in snaps:
            forward.merge_snapshot(snap)
        for snap in reversed(snaps):
            backward.merge_snapshot(snap)
        assert mergeable(forward.snapshot()) == mergeable(backward.snapshot())

    @settings(max_examples=40, deadline=None)
    @given(ops_parts_st)
    def test_merge_is_associative(self, parts):
        while len(parts) < 3:
            parts = parts + [[]]
        a, b, c = shard_snaps(parts[:3])

        left = MetricsRegistry()
        left.merge_snapshot(a)
        left.merge_snapshot(b)
        left_snap = left.snapshot()
        left2 = MetricsRegistry()
        left2.merge_snapshot(left_snap)
        left2.merge_snapshot(c)

        tail = MetricsRegistry()
        tail.merge_snapshot(b)
        tail.merge_snapshot(c)
        right = MetricsRegistry()
        right.merge_snapshot(a)
        right.merge_snapshot(tail.snapshot())

        assert mergeable(left2.snapshot()) == mergeable(right.snapshot())

    def test_histogram_merge_rejects_mismatched_bounds(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        observe(a.histogram("h", buckets=(1.0, 2.0)), 1.5)
        observe(b.histogram("h", buckets=(1.0, 4.0)), 1.5)
        with pytest.raises(ValueError):
            a.merge_snapshot(b.snapshot())
