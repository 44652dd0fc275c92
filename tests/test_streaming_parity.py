"""Golden parity: how a capture was chunked must not show in the numbers.

Every figure/table answer comes from the same aggregators; what differs
between execution modes is how their state was obtained — one feed of
the resident view, a chunk-by-chunk fold while spooling, or per-shard
folds merged across pool workers.  The answers — and the materialised
capture itself — must be equal *exactly* (same floats, same dtypes)
whether the run was serial, pooled, or degraded by a chaos schedule, and
must be the bytes the whole-view reducers produced before they were
deleted (:data:`PARENT_DIGESTS`) over the rows the row-tuple merge and
its canonical sort produced before *they* were
(:data:`PARENT_VIEW_DIGESTS`).  Report telemetry (wall times, counter
deltas) is excluded from the comparison by design; everything else is.
"""

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from dataclasses import replace

import numpy as np
import pytest

from repro.analysis import Attributor, DatasetAnalytics
from repro.capture import SpooledCapture
from repro.clouds import GOOGLE_PUBLIC_DNS_PREFIXES, PROVIDERS
from repro.experiments import ExperimentContext
from repro.experiments.render_all import collect_all
from repro.faults import chaos_scenario
from repro.sim import run_dataset
from repro.telemetry import MetricsRegistry
from repro.workload import dataset

DATASET = "nl-w2020"
QUERIES = 900
SEED = 20201027

#: blake2b-128 over the canonical JSON of every facade answer
#: (:func:`facade_answers`), recorded at commit a299f2c from the facade's
#: view backend — the whole-view reducers in ``analysis/metrics.py``,
#: ``qmin.py``, ``edns.py``, ``google_split.py`` and the two ``*_report``
#: helpers — over a serial in-memory run of QUERIES client queries at SEED.
#: Those functions are gone; these are the bytes they produced.
PARENT_DIGESTS = {
    "nl-w2020": "47beeebc5b2891c5333651fd8b1b1b2e",
    "nz-w2019": "fac279e47962dc0386d8ed4e79ef5748",
    "root-2020": "1225f901bdf34ec157cde0a0131445bc",
}

#: blake2b-128 over every column of ``run.capture.view()``
#: (:func:`view_digest`), recorded at commit 984449e from the same serial
#: in-memory runs — ``CaptureStore.merge`` of the shards' row tuples,
#: ``sort_canonical`` on the tuple list, then one freeze — plus one run
#: under the ``heavy-loss`` chaos schedule.  That path is gone; the one
#: remaining sort (``SpooledCapture.view``) must order the same rows the
#: same way wherever the chunks lived and however the fleet was sharded.
PARENT_VIEW_DIGESTS = {
    "nl-w2020": "b645f5d0c14f428a680d1d5f5fe5d073",
    "nz-w2019": "f7ca472098680ce770097157b5eb0342",
    "root-2020": "0446a33b542a7e3dc5900a2b2ed3f245",
    "nl-w2020+heavy-loss": "6e46d648306709db262b7af3b4a37570",
}

#: How a run obtains its aggregator state.  Pinned explicitly everywhere
#: in this module so the comparison stays serial-in-memory vs streaming
#: even when the suite itself runs under REPRO_STREAM=1 / REPRO_WORKERS=2.
MODES = {
    "memory": dict(workers=1, stream=False),
    "stream": dict(workers=1, stream=True),
    "pooled": dict(workers=2, stream=True),
    "sharded-memory": dict(workers=1, shard_count=3, stream=False),
    "pooled-memory": dict(workers=2, stream=False),
}

#: Scale for the full-report golden comparison (slow lane).
GOLDEN_SCALE = 0.02
GOLDEN_SEED = 7


def assert_deep_equal(a, b, path="$"):
    """Bit-strict structural equality over dataclasses/dicts/arrays."""
    assert type(a) is type(b), f"{path}: {type(a).__name__} != {type(b).__name__}"
    if isinstance(a, np.ndarray):
        assert a.dtype == b.dtype, f"{path}: dtype {a.dtype} != {b.dtype}"
        equal_nan = a.dtype.kind == "f"
        assert np.array_equal(a, b, equal_nan=equal_nan), f"{path}: arrays differ"
    elif dataclasses.is_dataclass(a):
        for field in dataclasses.fields(a):
            assert_deep_equal(
                getattr(a, field.name), getattr(b, field.name),
                f"{path}.{field.name}",
            )
    elif isinstance(a, dict):
        assert a.keys() == b.keys(), f"{path}: keys {a.keys()} != {b.keys()}"
        for key in a:
            assert_deep_equal(a[key], b[key], f"{path}[{key!r}]")
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b), f"{path}: length {len(a)} != {len(b)}"
        for index, (x, y) in enumerate(zip(a, b)):
            assert_deep_equal(x, y, f"{path}[{index}]")
    elif isinstance(a, float) and np.isnan(a) and np.isnan(b):
        pass
    else:
        assert a == b, f"{path}: {a!r} != {b!r}"


def assert_views_equal(a, b):
    for name in type(a).__dataclass_fields__:
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype, f"column {name}: dtype differs"
        equal_nan = name == "tcp_rtt_ms"
        assert np.array_equal(x, y, equal_nan=equal_nan), f"column {name} differs"


def view_digest(view):
    """blake2b-128 over every column, in field order (name, dtype, bytes;
    string columns NUL-joined)."""
    digest = hashlib.blake2b(digest_size=16)
    for name in type(view).__dataclass_fields__:
        column = getattr(view, name)
        digest.update(f"{name}:{column.dtype}:".encode())
        if column.dtype == object:
            digest.update("\0".join(column.tolist()).encode())
        else:
            digest.update(np.ascontiguousarray(column).tobytes())
    return digest.hexdigest()


def one_feed_analytics(run):
    """The facade over the run's whole view, built the way
    ExperimentContext does for an in-memory run: one chunk, one feed."""
    view = run.capture.view()
    return DatasetAnalytics.over(
        view, Attributor(run.registry, PROVIDERS).attribute(view)
    )


def facade_answers(analytics):
    """Every facade answer, keyed for canonical JSON."""
    return {
        "provider_shares": analytics.provider_shares(PROVIDERS),
        "cloud_share": analytics.cloud_share(PROVIDERS),
        "junk_ratios": analytics.junk_ratios(PROVIDERS),
        "overall_junk_ratio": analytics.overall_junk_ratio(),
        "transport_matrix": analytics.transport_matrix(PROVIDERS),
        "truncation_table": analytics.truncation_table(PROVIDERS),
        "google_split": analytics.google_split(GOOGLE_PUBLIC_DNS_PREFIXES),
        "dataset_summary": analytics.dataset_summary(),
        "per_provider": {
            provider: {
                "rrtype_mix": analytics.rrtype_mix(provider),
                "bufsize_cdf": analytics.bufsize_cdf(provider),
                "truncation_ratio": analytics.truncation_ratio(provider),
                "tcp_share": analytics.tcp_share(provider),
                "resolver_inventory": analytics.resolver_inventory(provider),
                "ns_share": analytics.ns_share(provider),
                "minimized_fraction": analytics.minimized_fraction(provider, 1),
                "monthly_point": analytics.monthly_point(provider, 2020, 1),
            }
            for provider in PROVIDERS
        },
        "sovereignty": analytics.sovereignty(),
        "composition": analytics.composition(),
    }


def _plain(value):
    if dataclasses.is_dataclass(value):
        return {f.name: getattr(value, f.name) for f in dataclasses.fields(value)}
    if isinstance(value, np.ndarray):
        return {"dtype": str(value.dtype), "values": value.tolist()}
    if isinstance(value, np.generic):
        return value.item()
    raise TypeError(type(value).__name__)


def answers_digest(answers):
    """blake2b-128 of the answers' canonical JSON (floats by ``repr``)."""
    text = json.dumps(answers, sort_keys=True, default=_plain)
    return hashlib.blake2b(text.encode(), digest_size=16).hexdigest()


def assert_reducer_parity(one_feed, chunked):
    """Every facade method (= every figure/table reducer) agrees exactly —
    bar the heavy-hitter list, a space-saving summary that depends on
    where the chunk boundaries fell (held to its bounds in
    ``test_sovereignty_composition``)."""
    expected, answers = facade_answers(one_feed), facade_answers(chunked)
    answers["composition"].heavy_hitters = expected["composition"].heavy_hitters
    assert_deep_equal(expected, answers)


@pytest.fixture(scope="module")
def simulated():
    """``simulated(dataset_id, mode)``: each run simulated once per module."""
    runs = {}

    def get(dataset_id, mode):
        key = (dataset_id, mode)
        if key not in runs:
            runs[key] = run_dataset(
                dataset(dataset_id), client_queries=QUERIES, seed=SEED,
                **MODES[mode],
            )
        return runs[key]

    return get


@pytest.fixture(scope="module")
def mem_run(simulated):
    return simulated(DATASET, "memory")


@pytest.fixture(scope="module")
def stream_run(simulated):
    return simulated(DATASET, "stream")


@pytest.mark.parametrize("dataset_id", sorted(PARENT_DIGESTS))
class TestParentDigests:
    """The deleted whole-view reducers live on as the bytes they answered
    with: the one facade reproduces them however its state was obtained."""

    def test_resident_view_reproduces_the_whole_view_bytes(self, simulated, dataset_id):
        run = simulated(dataset_id, "memory")
        assert view_digest(run.capture.view()) == PARENT_VIEW_DIGESTS[dataset_id]
        answers = facade_answers(DatasetAnalytics.of(run))
        assert answers_digest(answers) == PARENT_DIGESTS[dataset_id]

    @pytest.mark.parametrize("mode", sorted(set(MODES) - {"memory"}))
    def test_chunked_state_reproduces_them(self, simulated, dataset_id, mode):
        """Wherever the chunks lived and whenever they were folded, the
        one capture class and the one facade constructor give the parent's
        rows and answers — bar the heavy-hitter list, as in
        :func:`assert_reducer_parity`."""
        run = simulated(dataset_id, mode)
        assert isinstance(run.capture, SpooledCapture)
        assert view_digest(run.capture.view()) == PARENT_VIEW_DIGESTS[dataset_id]
        answers = facade_answers(DatasetAnalytics.of(run))
        resident = one_feed_analytics(simulated(dataset_id, "memory"))
        answers["composition"].heavy_hitters = resident.composition().heavy_hitters
        assert answers_digest(answers) == PARENT_DIGESTS[dataset_id]


@pytest.mark.parametrize("mode", ["memory", "pooled"])
def test_chaos_rows_match_the_parent_too(mode):
    descriptor = replace(dataset(DATASET), fault_plan=chaos_scenario("heavy-loss"))
    run = run_dataset(descriptor, client_queries=QUERIES, seed=SEED, **MODES[mode])
    assert view_digest(run.capture.view()) == PARENT_VIEW_DIGESTS[f"{DATASET}+heavy-loss"]


class TestOneFacadeConstructor:
    """``DatasetAnalytics.of`` is the one place that asks whether a run
    folded (:class:`TestParentDigests` holds its answers to the parent's
    bytes either way)."""

    def test_of_books_what_it_did(self, mem_run, stream_run):
        resident, folded = MetricsRegistry(), MetricsRegistry()
        DatasetAnalytics.of(mem_run, resident)
        analytics = DatasetAnalytics.of(stream_run, folded)
        assert resident.snapshot().counters == {
            "analysis.attribution_passes": 1,
            "analysis.rows_attributed": len(mem_run.capture),
        }
        assert folded.snapshot().counters == {"analysis.streaming_answers": 1}
        # A folded run attributes its materialised capture on first request.
        assert len(analytics.attribution().asns) == len(stream_run.capture)
        assert analytics.attribution() is analytics.attribution()
        assert folded.snapshot().counter("analysis.attribution_passes") == 1


def test_an_in_memory_run_touches_no_filesystem(tmp_path, monkeypatch):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    run = run_dataset(
        dataset("nz-w2018"), client_queries=300, seed=SEED, workers=1, stream=False
    )
    assert not list(tmp_path.iterdir())
    assert len(run.capture.view()) == len(run.capture) > 0
    assert not list(tmp_path.iterdir())
    assert run.capture.spool.chunk_paths() == []


class TestSerialParity:
    def test_run_shapes(self, mem_run, stream_run):
        assert mem_run.aggregates is None
        assert stream_run.aggregates is not None
        assert len(mem_run.capture) == len(stream_run.capture)
        assert stream_run.capture.rows_appended == mem_run.capture.rows_appended
        assert stream_run.aggregates.rows_fed == len(stream_run.capture)

    def test_materialised_view_bit_identical(self, mem_run, stream_run):
        assert_views_equal(mem_run.capture.view(), stream_run.capture.view())

    def test_all_reducers_bit_identical(self, mem_run, stream_run):
        assert_reducer_parity(
            one_feed_analytics(mem_run), DatasetAnalytics(stream_run.aggregates)
        )

    def test_streamed_view_answers_match_aggregates(self, stream_run):
        """Materialising the spooled capture and feeding it whole agrees
        with the state folded while it was spooled."""
        assert_reducer_parity(
            one_feed_analytics(stream_run), DatasetAnalytics(stream_run.aggregates)
        )


class TestPooledParity:
    @pytest.fixture(scope="class")
    def pooled_run(self, simulated):
        return simulated(DATASET, "pooled")

    def test_pool_was_used(self, pooled_run):
        assert pooled_run.runtime_report.mode == "process-pool"
        assert pooled_run.runtime_report.failures == 0
        assert pooled_run.aggregates is not None

    def test_pooled_view_matches_serial_memory(self, mem_run, pooled_run):
        assert_views_equal(mem_run.capture.view(), pooled_run.capture.view())

    def test_pooled_reducers_match_serial_memory(self, mem_run, pooled_run):
        assert_reducer_parity(
            one_feed_analytics(mem_run), DatasetAnalytics(pooled_run.aggregates)
        )


class TestChaosParity:
    """Fault injection must not break the streaming/in-memory equivalence:
    the chaos schedule is a deterministic function of (scenario, seed), so
    both modes observe the same degraded traffic."""

    @pytest.fixture(scope="class")
    def chaos_descriptor(self):
        return replace(
            dataset(DATASET), fault_plan=chaos_scenario("default-loss")
        )

    @pytest.fixture(scope="class")
    def chaos_mem_run(self, chaos_descriptor):
        return run_dataset(
            chaos_descriptor, client_queries=QUERIES, seed=SEED,
            workers=1, stream=False,
        )

    @pytest.fixture(scope="class")
    def chaos_stream_run(self, chaos_descriptor):
        return run_dataset(
            chaos_descriptor, client_queries=QUERIES, seed=SEED,
            workers=2, stream=True,
        )

    def test_chaos_views_bit_identical(self, chaos_mem_run, chaos_stream_run):
        assert chaos_stream_run.runtime_report.mode == "process-pool"
        assert_views_equal(
            chaos_mem_run.capture.view(), chaos_stream_run.capture.view()
        )

    def test_chaos_reducers_bit_identical(self, chaos_mem_run, chaos_stream_run):
        assert_reducer_parity(
            one_feed_analytics(chaos_mem_run),
            DatasetAnalytics(chaos_stream_run.aggregates),
        )


class TestSpoolDirectory:
    def test_explicit_spool_dir_holds_chunks(self, tmp_path):
        run = run_dataset(
            dataset("nz-w2018"), client_queries=300, seed=SEED,
            stream=True, spool_dir=str(tmp_path),
        )
        chunks = list((tmp_path / "nz-w2018").glob("*.npz"))
        assert chunks, "spool directory should contain chunk archives"
        assert sum(1 for _ in run.capture.iter_views()) == len(chunks)
        run.capture.cleanup()
        assert not list((tmp_path / "nz-w2018").glob("*.npz"))


#: One pooled run plus its headline analysis in a fresh interpreter, so
#: the peak RSS is that run's alone — and its *parent's* alone: workers
#: are processes of their own.  Prints rows and peak RSS (KB).  VmHWM, not
#: ``ru_maxrss``: the latter starts at the high-water mark of whoever
#: launched the child, which under a full pytest run hides the growth.
RSS_CHILD = r"""
import re, sys
from repro.analysis import DatasetAnalytics
from repro.clouds import PROVIDERS
from repro.sim import run_dataset
from repro.workload import dataset

stream, volume = sys.argv[1] == "stream", int(sys.argv[2])
run = run_dataset(dataset("nl-w2020"), client_queries=volume, workers=2, stream=stream)
DatasetAnalytics.of(run).provider_shares(PROVIDERS)
peak_kb = re.search(r"VmHWM:\s+(\d+) kB", open("/proc/self/status").read()).group(1)
print(len(run.capture), peak_kb)
"""


@pytest.mark.slow
@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs procfs")
def test_streaming_parent_memory_is_sublinear_in_volume():
    """An in-memory pooled run ships every shard's columnar chunks to the
    parent and materialises the view, so the parent's peak RSS grows with
    volume; a streamed one ships aggregate state and chunk paths.  At four times the
    volume the streamed parent must grow by less than half of what the
    in-memory parent does."""
    base, big = 6_000, 24_000
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, "PYTHONPATH": src}
    env.pop("REPRO_STREAM", None)  # the child's mode comes from argv only

    def child(mode, volume):
        proc = subprocess.run(
            [sys.executable, "-c", RSS_CHILD, mode, str(volume)],
            env=env, capture_output=True, text=True, check=True,
        )
        rows, peak_kb = proc.stdout.split()[-2:]
        return int(rows), int(peak_kb)

    runs = {
        (mode, volume): child(mode, volume)
        for mode in ("memory", "stream") for volume in (base, big)
    }
    for volume in (base, big):
        assert runs["memory", volume][0] == runs["stream", volume][0]
    memory_growth = runs["memory", big][1] - runs["memory", base][1]
    stream_growth = runs["stream", big][1] - runs["stream", base][1]
    if memory_growth < 2_048:
        pytest.skip(f"in-memory growth {memory_growth} KB is below the noise floor")
    assert stream_growth < 0.5 * memory_growth, (stream_growth, memory_growth)


@pytest.mark.parametrize("example, args", [
    ("quickstart.py", ["0.01"]),
    ("transport_audit.py", ["nz-w2020", "0.01"]),
])
def test_examples_answer_the_same_streamed(example, args):
    """The examples are the documentation of ``DatasetAnalytics.of(run)``:
    they must not care how the run they were handed was executed."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = {**os.environ, "PYTHONPATH": os.path.join(root, "src")}

    def stdout(stream):
        proc = subprocess.run(
            [sys.executable, os.path.join(root, "examples", example), *args],
            env={**env, "REPRO_STREAM": stream},
            capture_output=True, text=True, check=True,
        )
        return proc.stdout

    assert stdout("0") == stdout("1") != ""


@pytest.mark.slow
class TestGoldenReports:
    """The acceptance gate: every figure/table report, generated end to end
    through the experiment runners, is identical with streaming on and off
    (rows, series, and notes — telemetry stamps are run-specific)."""

    @pytest.fixture(scope="class")
    def report_pairs(self):
        mem_ctx = ExperimentContext(scale=GOLDEN_SCALE, seed=GOLDEN_SEED, stream=False)
        stream_ctx = ExperimentContext(scale=GOLDEN_SCALE, seed=GOLDEN_SEED, stream=True)
        return list(zip(collect_all(mem_ctx), collect_all(stream_ctx)))

    def test_reports_cover_every_figure_and_table(self, report_pairs):
        ids = {mem.experiment_id for mem, __ in report_pairs}
        for expected in ("table2", "table3", "table4", "table6", "figure6"):
            assert expected in ids
        assert any(i.startswith("figure1") for i in ids)
        assert any(i.startswith("figure3") for i in ids)
        assert any(i.startswith("figure5") for i in ids)
        assert any(i.startswith("table5") for i in ids)

    def test_every_report_bit_identical(self, report_pairs):
        assert report_pairs
        for mem_report, stream_report in report_pairs:
            assert mem_report.experiment_id == stream_report.experiment_id
            prefix = f"${mem_report.experiment_id}"
            assert_deep_equal(mem_report.rows, stream_report.rows, f"{prefix}.rows")
            assert_deep_equal(mem_report.series, stream_report.series, f"{prefix}.series")
            assert_deep_equal(mem_report.notes, stream_report.notes, f"{prefix}.notes")
