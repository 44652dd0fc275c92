"""Streaming mode: where a run's chunks live and where its aggregate
state comes from.

A resident run keeps its shards' columnar chunks in memory and its
facade folds them on first read; a streamed run spills them to chunk
files and carries the state its shards folded while writing.  That both
give the same capture and the same answers is pinned once, in
``test_oracle``; this module holds what differs between the two by
design — the shape of the run, the files it leaves, the memory its
parent needs — and that the examples cannot tell them apart.
"""

import os
import subprocess
import sys
import tempfile

import pytest

from repro.analysis import DatasetAnalytics
from repro.sim import run_dataset
from repro.telemetry import MetricsRegistry
from repro.workload import dataset

DATASET = "nl-w2020"
QUERIES = 900
SEED = 20201027


def simulate(workers, stream):
    """Modes are pinned explicitly, whatever REPRO_WORKERS / REPRO_STREAM
    the suite runs under."""
    return run_dataset(
        dataset(DATASET), client_queries=QUERIES, seed=SEED,
        workers=workers, stream=stream,
    )


@pytest.fixture(scope="module")
def mem_run():
    return simulate(workers=1, stream=False)


@pytest.fixture(scope="module")
def stream_run():
    return simulate(workers=1, stream=True)


class TestOneFacadeConstructor:
    """``DatasetAnalytics.of`` is the one place that asks whether a run
    folded (``test_oracle`` holds its answers to one literal either way)."""

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


class TestPooledParity:
    @pytest.fixture(scope="class")
    def pooled_run(self):
        return simulate(workers=2, stream=True)

    def test_pool_was_used(self, pooled_run):
        assert pooled_run.runtime_report.mode == "process-pool"
        assert pooled_run.runtime_report.failures == 0
        assert pooled_run.aggregates is not None


class TestGoldenReports:
    """The reports ``test_oracle`` holds to its one literal, whatever the
    residency, are every figure and table of the paper."""

    def test_reports_cover_every_figure_and_table(self, serial_matrix):
        reports, __ = serial_matrix
        ids = {report.experiment_id for report in reports}
        for expected in ("table2", "table3", "table4", "table6", "figure6"):
            assert expected in ids
        for prefix in ("figure1", "figure3", "figure5", "table5"):
            assert any(i.startswith(prefix) for i in ids), prefix


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
