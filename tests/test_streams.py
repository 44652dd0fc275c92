"""Every member's two random streams are the bytes integer seeding gave.

The client stream is drawn as columns and both streams are seeded from
words hashed for a whole fleet or member range at once
(:func:`repro.zones.seed_words`); each check compares against the draws
it replaced and against the generator's final ``bit_generator.state``."""

import string
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dnscore import Name, RRType
from repro.faults import chaos_scenario
from repro.netsim import GAZETTEER, IPAddress
from repro.resolver import ResolverBehavior, SimResolver, seed_fleet
from repro.sim import run_dataset
from repro.workload import (
    CLIENT_QTYPE_MIX, SUBNAME_CHOICES, DiurnalPattern, WorkloadGenerator, dataset,
    monthly_google_descriptor,
)
from repro.zones import DEFAULT_TLDS, ZoneSpec, build_registry_zone, domains_of, seed_words

EDGES = [0, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**128]


class TestSeedWords:
    @settings(max_examples=200)
    @given(st.lists(st.integers(0, 2**160 - 1), min_size=1, max_size=6))
    def test_rows_are_seed_sequence_states(self, entropies):
        entropies += EDGES
        for entropy, row in zip(entropies, seed_words(entropies)):
            expected = np.random.SeedSequence(entropy).generate_state(4, np.uint64)
            assert row.tolist() == expected.tolist()

    def test_negative_entropy_raises_what_numpy_raises(self):
        with pytest.raises(ValueError) as theirs:
            np.random.SeedSequence(-1)
        with pytest.raises(ValueError, match=str(theirs.value)):
            seed_words([5, -1])


def parent_stream(generator, index, count, pattern, junk, storm, storm_fraction):
    """The per-query loop the columns replaced, on an integer-seeded stream."""
    rng = np.random.default_rng(generator._base_seed * 1_000_003 + index)
    alphabet = np.array(list(string.ascii_lowercase))

    def label(low=7, high=15):
        length = rng.integers(low, high + 1, size=1)[0]
        return "".join(alphabet[rng.integers(0, 26, size=int(length))])

    days = rng.integers(0, pattern.n_days, size=count)
    hours = pattern._hour_cdf.searchsorted(rng.random(count), side="right")
    stamps = pattern.start + days * 86400.0 + hours * 3600.0 + rng.random(count) * 3600.0
    stamps.sort()
    junk_draws, storm_draws = rng.random(count), rng.random(count)
    picks = generator._qtype_cdf.searchsorted(rng.random(count), side="right")
    root = generator.vantage == "root"
    names, types = [], []
    for i in range(count):
        if storm and storm_draws[i] < storm_fraction:
            names.append(storm[int(rng.integers(len(storm)))])
            types.append(RRType.A if rng.random() < 0.6 else RRType.AAAA)
            continue
        if junk_draws[i] < junk:
            text = label() if root else f"{label()}.{generator.vantage}"
            names.append(Name.from_text(text))
            types.append(RRType.A)
            continue
        if root:
            tld = DEFAULT_TLDS[generator._tld_sampler.ranks(rng.random())]
            names.append(Name.from_text(f"{label(4, 10)}.{tld}"))
        else:
            rank = generator._domain_sampler.ranks(rng.random())
            sub = SUBNAME_CHOICES[
                int(generator._subname_cdf.searchsorted(rng.random(), side="right"))
            ][0]
            domain = generator.domains[rank]
            names.append(domain.prepend(sub.encode()) if sub else domain)
        types.append(CLIENT_QTYPE_MIX[int(picks[i])][0])
    return stamps.tolist(), names, types, rng.bit_generator.state


@pytest.fixture(scope="module")
def generators():
    zones = {v: domains_of(build_registry_zone(ZoneSpec(v, 60, seed=2))) for v in ("nl", "nz")}
    return [
        WorkloadGenerator("nl", zones["nl"], seed=11),
        WorkloadGenerator("nz", zones["nz"], seed=20201027),
        WorkloadGenerator("root", [], tld_names=DEFAULT_TLDS, seed=7),
    ]


def test_columns_are_the_per_query_stream(generators):
    pattern = DiurnalPattern(1000.0, 7 * 86400.0)
    for seed in range(200):
        generator = generators[seed % 3]
        junk = (0.0, 0.13, 1.0)[seed // 3 % 3]
        storm = generator.domains[:2] if seed // 9 % 2 else ()
        count = 1 + seed * 7 % 60
        index = seed * 31
        rng = np.random.default_rng(generator._base_seed * 1_000_003 + index)
        words = generator.member_seeds(index, index + 1)[0]
        assert words.tolist() == rng.bit_generator.seed_seq.generate_state(4, np.uint64).tolist()
        stamps, names, types = generator.columns(rng, count, pattern, junk, storm, 0.25)
        *expected, state = parent_stream(generator, index, count, pattern, junk, storm, 0.25)
        assert stamps == expected[0]
        assert [n.labels for n in names] == [n.labels for n in expected[1]]
        assert types == expected[2]
        assert rng.bit_generator.state == state
        if not storm:
            queries = list(generator.generate(index, count, pattern, junk))
            assert [(q.timestamp, q.qname, q.qtype) for q in queries] == list(
                zip(stamps, names, types)
            )


def test_fleet_words_seed_what_the_integer_seeded():
    resolvers = [
        SimResolver(
            f"r{i}", GAZETTEER["AMS"], IPAddress.parse(f"192.0.2.{i + 1}"), None,
            ResolverBehavior(), seed=seed,
        )
        for i, seed in enumerate([0, 7, 2**32 + 5, 20200405 * 100003 + 17])
    ]
    seed_fleet(resolvers)
    for resolver in resolvers:
        assert resolver._words is not None
        expected = np.random.PCG64(resolver._seed).state
        assert resolver._rng.bit_generator.state == expected
        resolver._rng.random(3)
        resolver.reset_session()
        assert resolver._rng.bit_generator.state == expected


def test_no_stream_is_seeded_from_an_integer(monkeypatch):
    """Both per-member construction sites seed from words; the fleets'
    own ``default_rng`` calls do not go through the patched name."""
    real, seen = np.random.PCG64, []

    def guarded(seed=None):
        if isinstance(seed, (int, np.integer)):
            raise AssertionError(f"PCG64 seeded from the integer {seed}")
        seen.append(seed)
        return real(seed)

    monkeypatch.setattr(np.random, "PCG64", guarded)
    for descriptor in (
        dataset("nl-w2020"), dataset("root-2020"), monthly_google_descriptor("nz", 2020, 2),
    ):
        run = run_dataset(descriptor, client_queries=600)
        assert run.client_queries_run == 600
    assert seen  # the patch sees the runs' streams
    # Under a chaos plan, on a pool: forked workers inherit the patch.
    lossy = replace(dataset("nz-w2020"), fault_plan=chaos_scenario("default-loss"))
    run = run_dataset(lossy, client_queries=600, workers=2)
    assert run.client_queries_run == 600
