"""Property suite for the frequency sketches: every guarantee executable.

The composition aggregator is the codebase's first genuinely approximate
state, so its sketches don't get the exact-equality algebra treatment —
they get *bound* properties instead, asserted here under adversarial
stream shapes (Zipf, all-distinct, single-dominant, interleaved
partitions) and hypothesis-generated weighted streams:

space-saving
    estimates never underestimate; per-item error never exceeds the
    minimum bucket, which never exceeds ``total / capacity`` for a
    single-fed summary; any item heavier than the minimum bucket is
    guaranteed tracked; ``bounds()`` brackets the true count — including
    after arbitrary partition/merge plans, where the summary is lossy
    but must stay sound.

count-min
    estimates never underestimate, for any keys whatsoever; the merge is
    *exact* (element-wise table addition), so partition == whole,
    commutativity, and associativity hold bit-for-bit on the canonical
    state; the ``εN`` overestimate ceiling is asserted on a fixed key
    pool whose keys each own a collision-free row under the default
    (width, depth, seed) — making the probabilistic guarantee a
    deterministic equality, immune to flake.
"""

import pickle
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import CountMinSketch, SpaceSavingSketch

# -- stream shapes -----------------------------------------------------------------

#: Fixed key pool for count-min bound tests.  Under the default
#: CountMinSketch(1024, 4, 0) every pool key has at least one hash row
#: where no other pool key lands in its bucket, so its estimate over any
#: pool-only stream equals the true count exactly (verified by
#: test_pool_keys_have_private_rows below — if the hash ever changes,
#: that canary fails first with a clear message).
POOL = tuple(f"key-{i:02d}.example." for i in range(40))


def zipf_stream(n):
    """Zipf-ish weighted stream over the pool: rank r gets ~n/(r+1)."""
    return [(POOL[i % len(POOL)], max(1, n // (i + 1))) for i in range(len(POOL))]


def all_distinct_stream(n):
    """n distinct singletons — the worst case for a top-k summary."""
    return [(f"distinct-{i}.example.", 1) for i in range(n)]


def single_dominant_stream(n):
    """One elephant plus a mouse tail."""
    return [("elephant.example.", n)] + [
        (f"mouse-{i}.example.", 1) for i in range(min(n, 100))
    ]


STREAM_SHAPES = {
    "zipf": zipf_stream,
    "all_distinct": all_distinct_stream,
    "single_dominant": single_dominant_stream,
}

#: Hypothesis-generated weighted streams: small key space (forces
#: repeats and evictions) with positive weights.
weighted_stream_st = st.lists(
    st.tuples(st.integers(0, 30).map(lambda i: f"name-{i}."), st.integers(1, 50)),
    max_size=80,
)

#: Unbounded key space (arbitrary text) for always-true properties.
any_stream_st = st.lists(
    st.tuples(st.text(min_size=0, max_size=12), st.integers(1, 20)),
    max_size=60,
)


#: Batches for ``feed_many``: a small key space (repeats within a batch)
#: mixed with arbitrary text, and counts that include 0 and negatives,
#: which a feed must skip.
batched_stream_st = st.lists(
    st.tuples(
        st.one_of(st.integers(0, 20).map(lambda i: f"name-{i}."), st.text(max_size=8)),
        st.integers(-3, 20),
    ),
    max_size=80,
)


def truth_of(stream):
    truth = Counter()
    for item, count in stream:
        truth[item] += count
    return truth


def interleave(stream, ways):
    """Deal the stream round-robin into ``ways`` partitions."""
    parts = [[] for _ in range(ways)]
    for index, pair in enumerate(stream):
        parts[index % ways].append(pair)
    return parts


def assert_space_saving_sound(sketch, truth):
    """The full bound contract of a space-saving summary vs exact truth."""
    total = sum(truth.values())
    assert sketch.total == total
    floor = sketch.min_count()
    tracked = {item for item, __, __ in sketch.top()}
    for item, true_count in truth.items():
        estimate = sketch.estimate(item)
        assert estimate >= true_count, f"{item}: underestimate"
        lo, hi = sketch.bounds(item)
        assert lo <= true_count <= hi, f"{item}: bounds miss truth"
        if item in tracked:
            assert sketch.error(item) <= floor or sketch.error(item) <= estimate
        else:
            # Completeness contrapositive: an untracked item cannot be
            # heavier than the minimum bucket.
            assert true_count <= floor, f"{item}: heavy item evicted"
    # Phantom items (never fed) are still bounded by the floor.
    assert sketch.estimate("never-fed.invalid.") <= floor


class LinearScanSketch(SpaceSavingSketch):
    """The reference the heap is held to: the eviction victim is found by
    scanning every tracked entry for the minimum ``(count, insertion
    sequence)`` — the definition, at O(capacity) per eviction."""

    def feed(self, item, count=1):
        if count <= 0:
            return
        self.total += count
        self.updates += 1
        entries = self._entries
        if item in entries:
            entries[item][0] += count
        elif len(entries) < self.capacity:
            entries[item] = [count, 0, self._seq]
            self._seq += 1
        else:
            victim = min(entries, key=lambda k: (entries[k][0], entries[k][2]))
            floor = entries.pop(victim)[0]
            entries[item] = [floor + count, floor, self._seq]
            self._seq += 1
            self.evictions += 1


def full_state(sketch):
    """Everything later behaviour depends on: ``state()`` plus the
    insertion sequences that break eviction ties."""
    return (
        sketch.state(),
        sorted((item, entry[2]) for item, entry in sketch._entries.items()),
        sketch._seq,
        sketch.evictions,
        sketch.updates,
    )


# -- space-saving ------------------------------------------------------------------

class TestHeapEvictionMatchesLinearScan:
    """The heap picks the victim the linear scan would, every time — so
    ``state()``, every report and every golden are what they were."""

    @staticmethod
    def feed_both(fast, reference, stream):
        for item, count in stream:
            fast.feed(item, count)
            reference.feed(item, count)
            # After every single update, not only at the end: one wrong
            # victim can be masked by later evictions.
            assert full_state(fast) == full_state(reference)

    @pytest.mark.parametrize("shape", sorted(STREAM_SHAPES))
    @pytest.mark.parametrize("capacity", [1, 4, 16])
    def test_adversarial_shapes(self, shape, capacity):
        stream = STREAM_SHAPES[shape](300)
        self.feed_both(
            SpaceSavingSketch(capacity), LinearScanSketch(capacity),
            # Twice over: the second pass hits tracked items whose heap
            # entries have gone stale, then evicts through them.
            stream + stream[::-1],
        )

    @settings(max_examples=60, deadline=None)
    @given(weighted_stream_st, st.integers(1, 12))
    def test_generated_streams(self, stream, capacity):
        self.feed_both(
            SpaceSavingSketch(capacity), LinearScanSketch(capacity), stream
        )

    @settings(max_examples=40, deadline=None)
    @given(weighted_stream_st, weighted_stream_st, st.integers(1, 8), st.integers(2, 4))
    def test_interleaved_merge_then_feed(self, stream, tail, capacity, ways):
        """Merge rebuilds the heap; feeding on afterwards evicts alike."""
        fast, reference = SpaceSavingSketch(capacity), LinearScanSketch(capacity)
        for part in interleave(stream, ways):
            fast_shard, reference_shard = (
                SpaceSavingSketch(capacity), LinearScanSketch(capacity)
            )
            self.feed_both(fast_shard, reference_shard, part)
            fast.merge(fast_shard)
            reference.merge(reference_shard)
            assert full_state(fast) == full_state(reference)
        self.feed_both(fast, reference, tail)

    @settings(max_examples=60, deadline=None)
    @given(batched_stream_st, st.integers(1, 12), st.integers(1, 8))
    def test_batches(self, stream, capacity, batch):
        """``feed_many`` over consecutive batches evicts what the linear
        scan evicts item by item."""
        fast, reference = SpaceSavingSketch(capacity), LinearScanSketch(capacity)
        for start in range(0, len(stream), batch):
            part = stream[start : start + batch]
            fast.feed_many([item for item, _ in part], [count for _, count in part])
            for item, count in part:
                reference.feed(item, count)
            assert full_state(fast) == full_state(reference)

    @pytest.mark.parametrize("shape", sorted(STREAM_SHAPES))
    def test_pickle_round_trip_then_feed(self, shape):
        stream = STREAM_SHAPES[shape](200)
        half = len(stream) // 2
        fast, reference = SpaceSavingSketch(4), LinearScanSketch(4)
        self.feed_both(fast, reference, stream[:half])
        fast = pickle.loads(pickle.dumps(fast))
        assert full_state(fast) == full_state(reference)
        self.feed_both(fast, reference, stream[half:] + stream[:half])


class TestSpaceSaving:
    @pytest.mark.parametrize("shape", sorted(STREAM_SHAPES))
    @pytest.mark.parametrize("capacity", [1, 4, 16])
    def test_adversarial_shapes_stay_sound(self, shape, capacity):
        stream = STREAM_SHAPES[shape](500)
        sketch = SpaceSavingSketch(capacity)
        for item, count in stream:
            sketch.feed(item, count)
        assert_space_saving_sound(sketch, truth_of(stream))

    @pytest.mark.parametrize("shape", sorted(STREAM_SHAPES))
    def test_min_bucket_error_ceiling(self, shape):
        """Single-fed: every per-item error ≤ min bucket ≤ N / capacity."""
        capacity = 8
        stream = STREAM_SHAPES[shape](300)
        sketch = SpaceSavingSketch(capacity)
        for item, count in stream:
            sketch.feed(item, count)
        floor = sketch.min_count()
        assert floor <= sketch.total / capacity
        for _, count, error in sketch.top():
            assert error <= floor
        # Stored counts sum exactly to the fed weight (the classic
        # stream-summary invariant that yields the N/capacity floor).
        assert sum(count for _, count, _ in sketch.top()) == sketch.total

    @settings(max_examples=60, deadline=None)
    @given(weighted_stream_st, st.integers(1, 12))
    def test_generated_streams_stay_sound(self, stream, capacity):
        sketch = SpaceSavingSketch(capacity)
        for item, count in stream:
            sketch.feed(item, count)
        assert_space_saving_sound(sketch, truth_of(stream))

    @settings(max_examples=40, deadline=None)
    @given(weighted_stream_st, st.integers(1, 8), st.integers(2, 4))
    def test_partition_merge_stays_sound(self, stream, capacity, ways):
        """Interleaved partitions, merged: lossy but the bounds must still
        bracket every true count and the floor must still cap absences."""
        merged = SpaceSavingSketch(capacity)
        for part in interleave(stream, ways):
            shard = SpaceSavingSketch(capacity)
            for item, count in part:
                shard.feed(item, count)
            merged.merge(shard)
        assert_space_saving_sound(merged, truth_of(stream))

    @settings(max_examples=40, deadline=None)
    @given(weighted_stream_st, st.integers(1, 8))
    def test_merge_is_commutative(self, stream, capacity):
        parts = interleave(stream, 2)

        def shard(part):
            sketch = SpaceSavingSketch(capacity)
            for item, count in part:
                sketch.feed(item, count)
            return sketch

        ab = shard(parts[0])
        ab.merge(shard(parts[1]))
        ba = shard(parts[1])
        ba.merge(shard(parts[0]))
        assert ab.state() == ba.state()

    @settings(max_examples=40, deadline=None)
    @given(weighted_stream_st)
    def test_merge_is_associative_under_capacity(self, stream):
        """With capacity ≥ the distinct-key universe nothing is ever
        evicted and every floor is 0, so merge degenerates to exact
        dict-sum — associativity must then hold bit-for-bit."""
        capacity = 64  # key space is name-0..name-30
        parts = interleave(stream, 3)

        def shard(index):
            sketch = SpaceSavingSketch(capacity)
            for item, count in parts[index]:
                sketch.feed(item, count)
            return sketch

        left = shard(0)
        left.merge(shard(1))
        left.merge(shard(2))
        tail = shard(1)
        tail.merge(shard(2))
        right = shard(0)
        right.merge(tail)
        assert left.state() == right.state()
        # And it equals the exact truth outright.
        truth = truth_of(stream)
        for item, count in truth.items():
            assert left.estimate(item) == count
            assert left.error(item) == 0

    def test_deterministic_eviction(self):
        """Equal-count eviction ties break by insertion order, so the
        summary is a pure function of the feed sequence."""
        def build():
            sketch = SpaceSavingSketch(2)
            for item in ["a", "b", "c", "d"]:
                sketch.feed(item)
            return sketch.state()

        assert build() == build()
        sketch = SpaceSavingSketch(2)
        for item in ["a", "b", "c"]:
            sketch.feed(item)
        # "a" (older) is evicted before "b" on the tie; "c" absorbs its floor.
        assert {item for item, __, __ in sketch.top()} == {"b", "c"}
        assert sketch.estimate("c") == 2 and sketch.error("c") == 1
        assert sketch.evictions == 1

    def test_merge_rejects_mismatched_capacity(self):
        with pytest.raises(ValueError):
            SpaceSavingSketch(4).merge(SpaceSavingSketch(8))


# -- batch == sequence -------------------------------------------------------------

class TestBatchEqualsSequence:
    """One ``feed_many`` call is the same sketch as its items fed one at a
    time — the composition fold feeds each chunk's distinct names as one
    batch."""

    @settings(max_examples=80, deadline=None)
    @given(batched_stream_st, st.integers(0, 5))
    def test_count_min(self, stream, seed):
        # Width 8: with up to 80 items, buckets collide within a batch.
        batch = CountMinSketch(8, 3, seed)
        batch.feed_many([item for item, _ in stream], [count for _, count in stream])
        reference = CountMinSketch(8, 3, seed)
        for item, count in stream:
            if count <= 0:
                continue
            reference.total += count
            reference.updates += 1
            for row, index in enumerate(reference._indices(item)):
                reference.table[row, index] += count
        assert batch.table.tolist() == reference.table.tolist()
        assert (batch.total, batch.updates) == (reference.total, reference.updates)

    @settings(max_examples=80, deadline=None)
    @given(batched_stream_st, st.integers(1, 12))
    def test_space_saving(self, stream, capacity):
        batch, sequence = SpaceSavingSketch(capacity), SpaceSavingSketch(capacity)
        batch.feed_many([item for item, _ in stream], [count for _, count in stream])
        for item, count in stream:
            sequence.feed(item, count)
        assert full_state(batch) == full_state(sequence)
        assert batch.updates == sum(count > 0 for _, count in stream)


# -- count-min ---------------------------------------------------------------------

class TestCountMin:
    def test_pool_keys_have_private_rows(self):
        """Canary for the deterministic εN test: under the default config
        every POOL key owns a row bucket no other POOL key touches, which
        makes its estimate over pool-only streams *exact*."""
        cm = CountMinSketch()
        rows = {key: cm._indices(key) for key in POOL}
        for key in POOL:
            assert any(
                all(rows[other][r] != rows[key][r] for other in POOL if other != key)
                for r in range(cm.depth)
            ), f"{key} shares every row; pick a new pool/seed"

    @settings(max_examples=60, deadline=None)
    @given(any_stream_st)
    def test_never_underestimates(self, stream):
        cm = CountMinSketch(64, 3, 7)
        for item, count in stream:
            cm.feed(item, count)
        truth = truth_of(stream)
        assert cm.total == sum(truth.values())
        for item, true_count in truth.items():
            assert cm.estimate(item) >= true_count

    @pytest.mark.parametrize("shape", sorted(STREAM_SHAPES))
    def test_epsilon_n_bound_on_pool_streams(self, shape):
        """est − true ≤ εN at confidence 1−δ.  Deterministic here: the
        adversarial shapes draw from POOL ∪ fresh singletons, and POOL
        keys have private rows (see canary), so the bound holds as an
        exact equality for the heavy keys and with margin for the rest."""
        stream = [(item, count) for item, count in STREAM_SHAPES[shape](400)]
        cm = CountMinSketch()
        for item, count in stream:
            cm.feed(item, count)
        truth = truth_of(stream)
        assert cm.confidence > 0.98
        for item, true_count in truth.items():
            overestimate = cm.estimate(item) - true_count
            assert 0 <= overestimate <= cm.error_bound()
        for item in POOL:
            if item in truth:
                assert cm.estimate(item) == truth[item]

    @settings(max_examples=40, deadline=None)
    @given(any_stream_st, st.integers(2, 4))
    def test_merge_equals_whole_feed_exactly(self, stream, ways):
        whole = CountMinSketch(32, 3, 1)
        for item, count in stream:
            whole.feed(item, count)
        merged = CountMinSketch(32, 3, 1)
        for part in interleave(stream, ways):
            shard = CountMinSketch(32, 3, 1)
            for item, count in part:
                shard.feed(item, count)
            merged.merge(shard)
        assert merged.state() == whole.state()

    @settings(max_examples=40, deadline=None)
    @given(any_stream_st)
    def test_merge_is_commutative_and_associative(self, stream):
        parts = interleave(stream, 3)

        def shard(index):
            cm = CountMinSketch(32, 3, 1)
            for item, count in parts[index]:
                cm.feed(item, count)
            return cm

        left = shard(0)
        left.merge(shard(1))
        left.merge(shard(2))
        tail = shard(1)
        tail.merge(shard(2))
        right = shard(0)
        right.merge(tail)
        ba = shard(1)
        ba.merge(shard(0))
        ba.merge(shard(2))
        assert left.state() == right.state() == ba.state()

    def test_epsilon_delta_formulas(self):
        import math

        cm = CountMinSketch(1024, 4, 0)
        assert cm.epsilon == pytest.approx(math.e / 1024)
        assert cm.confidence == pytest.approx(1 - math.exp(-4))

    def test_merge_rejects_mismatched_config(self):
        with pytest.raises(ValueError):
            CountMinSketch(32, 3, 0).merge(CountMinSketch(32, 3, 1))
        with pytest.raises(ValueError):
            CountMinSketch(32, 3, 0).merge(CountMinSketch(64, 3, 0))

    def test_survives_pickle_round_trip(self):
        """Workers ship sketches back through pickle; hash keys must be
        rebuilt so estimates agree after the trip."""
        import pickle

        cm = CountMinSketch(64, 3, 5)
        cm.feed("alpha.example.", 9)
        clone = pickle.loads(pickle.dumps(cm))
        assert clone.estimate("alpha.example.") == cm.estimate("alpha.example.")
        clone.feed("alpha.example.", 1)
        assert clone.estimate("alpha.example.") == cm.estimate("alpha.example.") + 1
