"""The sovereignty and composition aggregators against a brute-force
recount.

Folded state vs a row-at-a-time exact recount of the materialised
capture — serial and workers=2, chaos on and off.  The exact fields
(country/bloc counts, taxonomy categories, count-min table) must match
the recount bit-for-bit (that they are one literal across worker counts
is pinned in ``test_oracle``); the space-saving heavy-hitter summary is
held to its bound contract (every true count inside the certified
bracket) instead.

Also the regression home for the fleets country fix: background-ISP
``ASInfo`` rows must carry a real gazetteer ISO country (the old code
stored the airport *site code*), and the attribution country totals must
be deterministic across worker counts.
"""

from collections import Counter
from dataclasses import replace

import pytest

from repro.analysis import Attributor, DatasetAnalytics
from repro.analysis.composition import CATEGORIES, LOCAL_SUFFIXES, META_QTYPES, classify_queries
from repro.clouds import PROVIDERS
from repro.faults import chaos_scenario
from repro.netsim import GAZETTEER
from repro.sim import run_dataset
from repro.workload import dataset

DATASET = "nl-w2020"
QUERIES = 900
SEED = 20201027

#: Real ISO countries the gazetteer can produce.
GAZETTEER_COUNTRIES = {site.country for site in GAZETTEER.values()}


def attribution_of(run):
    view = run.capture.view()
    return view, Attributor(run.registry, PROVIDERS).attribute(view)


def brute_force_sovereignty(view, attribution):
    """Row-at-a-time exact recount of the sovereignty state."""
    queries, response_bytes, labels = Counter(), Counter(), Counter()
    countries = attribution.country_labels
    for i in range(len(view)):
        country = str(countries[i])
        queries[country] += 1
        response_bytes[country] += int(view.response_size[i])
        labels[(country, str(attribution.providers[i]))] += 1
    return queries, response_bytes, labels


def reference_category(qname, qtype, rcode):
    """Scalar re-implementation of the taxonomy (independent of the
    vectorised classifier, so the two check each other)."""
    for suffix in LOCAL_SUFFIXES:
        if qname == suffix or qname.endswith("." + suffix):
            return "leaked_local"
    if qtype in META_QTYPES:
        return "qtype_junk"
    if rcode == 3 and qname != "." and qname.count(".") == 1:
        return "chromium_probe"
    if rcode == 3:
        return "nxdomain_other"
    if rcode != 0:
        return "error_other"
    return "noerror"


def brute_force_composition(view):
    counts = Counter()
    for i in range(len(view)):
        counts[
            reference_category(
                str(view.qname[i]), int(view.qtype[i]), int(view.rcode[i])
            )
        ] += 1
    return counts


def simulate(descriptor, workers, stream):
    """Modes are pinned explicitly so the comparison stays fixed even under
    REPRO_STREAM=1 / REPRO_WORKERS=2."""
    return run_dataset(
        descriptor, client_queries=QUERIES, seed=SEED, workers=workers, stream=stream,
    )


@pytest.fixture(scope="module")
def mem_run():
    return simulate(dataset(DATASET), workers=1, stream=False)


@pytest.fixture(scope="module")
def stream_run():
    return simulate(dataset(DATASET), workers=1, stream=True)


@pytest.fixture(scope="module")
def pooled_run():
    return simulate(dataset(DATASET), workers=2, stream=True)


class TestClassifier:
    def test_vectorized_matches_scalar_reference(self, mem_run):
        view = mem_run.capture.view()
        codes = classify_queries(view)
        assert len(codes) == len(view)
        for i in range(len(view)):
            expected = reference_category(
                str(view.qname[i]), int(view.qtype[i]), int(view.rcode[i])
            )
            assert CATEGORIES[int(codes[i])] == expected, f"row {i}"

    def test_every_row_gets_exactly_one_category(self, mem_run):
        view = mem_run.capture.view()
        counts = brute_force_composition(view)
        assert sum(counts.values()) == len(view)


@pytest.mark.parametrize("workers_fixture", ["stream_run", "pooled_run"])
class TestSovereigntyParity:
    def test_streaming_equals_brute_force(self, workers_fixture, request, mem_run):
        run = request.getfixturevalue(workers_fixture)
        aggregator = run.aggregates["sovereignty"]
        view, attribution = attribution_of(mem_run)
        queries, response_bytes, labels = brute_force_sovereignty(view, attribution)
        assert aggregator.total == len(view)
        assert dict(aggregator.query_counts) == dict(queries)
        assert dict(aggregator.byte_counts) == dict(response_bytes)
        assert dict(aggregator.label_counts) == dict(labels)

    def test_composition_equals_brute_force(self, workers_fixture, request, mem_run):
        run = request.getfixturevalue(workers_fixture)
        aggregator = run.aggregates["composition"]
        expected = brute_force_composition(mem_run.capture.view())
        assert aggregator.total == sum(expected.values())
        for category in CATEGORIES:
            assert aggregator.category_counts[category] == expected.get(category, 0)

    def test_heavy_hitter_bounds_contain_truth(self, workers_fixture, request, mem_run):
        run = request.getfixturevalue(workers_fixture)
        aggregator = run.aggregates["composition"]
        truth = Counter(str(q) for q in mem_run.capture.view().qname)
        assert aggregator.hot_names.total == sum(truth.values())
        assert aggregator.name_counts.total == sum(truth.values())
        for qname, true_count in truth.items():
            lo, hi = aggregator.hot_names.bounds(qname)
            assert lo <= true_count <= hi, qname
            assert aggregator.name_counts.estimate(qname) >= true_count, qname


class TestChaosParity:
    @pytest.fixture(scope="class")
    def chaos_descriptor(self):
        return replace(dataset(DATASET), fault_plan=chaos_scenario("default-loss"))

    @pytest.fixture(scope="class")
    def chaos_mem_run(self, chaos_descriptor):
        return simulate(chaos_descriptor, workers=1, stream=False)

    @pytest.fixture(scope="class")
    def chaos_pooled_run(self, chaos_descriptor):
        return simulate(chaos_descriptor, workers=2, stream=True)

    def test_chaos_sovereignty_equals_brute_force(self, chaos_mem_run, chaos_pooled_run):
        view, attribution = attribution_of(chaos_mem_run)
        queries, response_bytes, labels = brute_force_sovereignty(view, attribution)
        aggregator = chaos_pooled_run.aggregates["sovereignty"]
        assert dict(aggregator.query_counts) == dict(queries)
        assert dict(aggregator.byte_counts) == dict(response_bytes)
        assert dict(aggregator.label_counts) == dict(labels)

    def test_chaos_composition_equals_brute_force(self, chaos_mem_run, chaos_pooled_run):
        expected = brute_force_composition(chaos_mem_run.capture.view())
        aggregator = chaos_pooled_run.aggregates["composition"]
        for category in CATEGORIES:
            assert aggregator.category_counts[category] == expected.get(category, 0)


class TestFacadeParity:
    """What the facade answers from two workers' merged folds: heavy
    hitters inside their bounds, bloc roll-ups that add up."""

    def test_composition_heavy_hitters_within_bounds(self, mem_run, pooled_run):
        truth = Counter(str(q) for q in mem_run.capture.view().qname)
        streaming = DatasetAnalytics(pooled_run.aggregates).composition(top_k=10)
        assert streaming.heavy_hitters
        for hitter in streaming.heavy_hitters:
            true_count = truth.get(hitter.qname, 0)
            assert hitter.lower_bound <= true_count <= hitter.estimate
            assert hitter.cm_estimate >= true_count

    def test_sovereignty_bloc_rollups_consistent(self, stream_run):
        report = DatasetAnalytics(stream_run.aggregates).sovereignty()
        country_queries = {row.name: row.queries for row in report.countries}
        from repro.analysis import JURISDICTION_BLOCS

        for bloc_row in report.blocs:
            members = JURISDICTION_BLOCS[bloc_row.name]
            assert bloc_row.queries == sum(
                count for name, count in country_queries.items() if name in members
            )
        assert sum(country_queries.values()) == report.total_queries


class TestFleetCountryFix:
    def test_background_as_countries_are_gazetteer_iso(self, mem_run):
        background = [
            info for info in mem_run.registry.ases() if info.asn >= 60000
        ]
        assert background, "seed dataset should include background ISPs"
        for info in background:
            assert info.country in GAZETTEER_COUNTRIES, (
                f"AS{info.asn} country {info.country!r} is not a gazetteer "
                f"ISO code (site codes must not leak into ASInfo.country)"
            )
            assert len(info.country) == 2

    def test_attributed_countries_are_real(self, mem_run):
        __, attribution = attribution_of(mem_run)
        observed = set(map(str, attribution.country_labels))
        assert observed <= (GAZETTEER_COUNTRIES | {"ZZ", "US"})
        assert len(observed & GAZETTEER_COUNTRIES) > 3, (
            "expected a spread of real countries from the background fleet"
        )
