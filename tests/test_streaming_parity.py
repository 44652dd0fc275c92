"""Where a run's chunks live, and the one fold every run carries.

Every run's shards fold their columnar chunks into aggregate state while
freezing them; a resident run then keeps the chunks in memory, a run with
a spool directory writes them to chunk files.  That both give the same
capture and the same answers is pinned once, in ``test_oracle``; this
module holds what differs between the two by design — the files a run
leaves, the memory its parent needs — and that the facade and the
examples never need the materialised view to answer.
"""

import os
import subprocess
import sys
import tempfile

import pytest

from repro.analysis import DatasetAnalytics
from repro.config import RunConfig
from repro.sim import run_dataset
from repro.workload import dataset

DATASET = "nl-w2020"
QUERIES = 900
SEED = 20201027


def simulate(workers, spool_dir=None):
    """One run of the dataset with the modes given explicitly."""
    return run_dataset(
        dataset(DATASET), client_queries=QUERIES, seed=SEED,
        config=RunConfig(workers=workers, spool_dir=spool_dir),
    )


@pytest.fixture(scope="module")
def mem_run():
    return simulate(workers=1)


@pytest.fixture(scope="module")
def stream_run(tmp_path_factory):
    return simulate(workers=1, spool_dir=str(tmp_path_factory.mktemp("spool")))


class TestOneFacadeConstructor:
    """``DatasetAnalytics.of`` answers from the folded state of any run
    (``test_oracle`` holds its answers to one literal)."""

    def test_of_books_what_it_did(self, mem_run, stream_run):
        for run in (mem_run, stream_run):
            analytics = DatasetAnalytics.of(run)
            assert analytics.aggregates is run.aggregates
            assert analytics.rssac().total_queries == len(run.capture)


def test_a_resident_run_answers_without_its_view(monkeypatch):
    """Every facade answer of a resident serial run comes from the state
    its shard folded: the canonical view is never materialised."""
    from repro.capture import SpooledCapture

    from .test_oracle import facade_answers

    calls = []
    monkeypatch.setattr(SpooledCapture, "view", lambda self: calls.append(self))
    fresh = simulate(workers=1)
    assert fresh.runtime_report.mode == "serial"
    assert fresh.capture.spool.chunk_paths() == []
    facade_answers(DatasetAnalytics.of(fresh))
    assert calls == []


def test_the_last_view_level_reports_answer_without_a_view(monkeypatch):
    """Figures 5/8 and the RSSAC report render with the view made to raise."""
    from repro.capture import SpooledCapture
    from repro.experiments import ExperimentContext, extension_rssac, figure5

    def no_view(self):
        raise AssertionError("the whole capture view was materialised")

    monkeypatch.setattr(SpooledCapture, "view", no_view)
    ctx = ExperimentContext(scale=0.004, seed=SEED, workers=1)
    assert figure5.run_server(ctx, "nl-a").rows
    assert figure5.run_server(ctx, "nl-b").rows
    assert extension_rssac.run(ctx).rows


def test_an_in_memory_run_touches_no_filesystem(tmp_path, monkeypatch):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    monkeypatch.chdir(tmp_path)
    run = run_dataset(dataset("nz-w2018"), client_queries=300, seed=SEED, workers=1)
    assert not list(tmp_path.iterdir())
    assert len(run.capture.view()) == len(run.capture) > 0
    assert not list(tmp_path.iterdir())
    assert run.capture.spool.chunk_paths() == []


class TestSerialParity:
    def test_run_shapes(self, mem_run, stream_run):
        assert len(mem_run.capture) == len(stream_run.capture)
        assert stream_run.capture.rows_appended == mem_run.capture.rows_appended
        for run in (mem_run, stream_run):
            assert run.aggregates.rows_fed == len(run.capture)
            assert run.telemetry.counter("runtime.rows_folded") == len(run.capture)
        assert mem_run.capture.spool.chunk_paths() == []
        assert stream_run.capture.spool.chunk_paths()


class TestPooledParity:
    @pytest.fixture(scope="class")
    def pooled_run(self):
        return simulate(workers=2)

    def test_pool_was_used(self, pooled_run):
        assert pooled_run.runtime_report.mode == "process-pool"
        assert pooled_run.runtime_report.failures == 0
        assert pooled_run.aggregates.rows_fed == len(pooled_run.capture) > 0


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
            config=RunConfig(spool_dir=str(tmp_path)),
        )
        chunks = list((tmp_path / "nz-w2018").glob("*.chunk"))
        assert chunks, "spool directory should contain chunk files"
        assert sum(1 for _ in run.capture.iter_views()) == len(chunks)
        run.capture.cleanup()
        assert not list((tmp_path / "nz-w2018").glob("*.chunk"))


#: One pooled run plus its headline analysis in a fresh interpreter, so
#: the peak RSS is that run's alone — and its *parent's* alone: workers
#: are processes of their own.  Prints rows and peak RSS (KB).  VmHWM, not
#: ``ru_maxrss``: the latter starts at the high-water mark of whoever
#: launched the child, which under a full pytest run hides the growth.
RSS_CHILD = r"""
import re, sys
from repro.analysis import DatasetAnalytics
from repro.config import RunConfig
from repro.sim import run_dataset
from repro.workload import dataset

volume, spool_dir = int(sys.argv[2]), sys.argv[3] if sys.argv[1] == "stream" else None
run = run_dataset(
    dataset("nl-w2020"), client_queries=volume,
    config=RunConfig(workers=2, spool_dir=spool_dir),
)
DatasetAnalytics.of(run).provider_shares()
peak_kb = re.search(r"VmHWM:\s+(\d+) kB", open("/proc/self/status").read()).group(1)
print(len(run.capture), peak_kb)
"""


@pytest.mark.slow
@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs procfs")
def test_streaming_parent_memory_is_sublinear_in_volume(tmp_path):
    """An in-memory pooled run ships every shard's columnar chunks to the
    parent, so the parent's peak RSS grows with volume; a spilling one
    ships aggregate state and chunk paths.  At four times the volume the
    spilling parent must grow by less than half of what the in-memory
    parent does."""
    base, big = 6_000, 24_000
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, "PYTHONPATH": src}

    def child(mode, volume):
        proc = subprocess.run(
            [sys.executable, "-c", RSS_CHILD, mode, str(volume), str(tmp_path)],
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
    they must not care how the run they were handed was executed — in one
    process, or folded in two pool workers."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = {**os.environ, "PYTHONPATH": os.path.join(root, "src")}

    def stdout(workers):
        # Every run_dataset call the example makes gets ``workers``.
        bound = (
            "import functools, runpy, sys\n"
            "import repro.sim\n"
            "repro.sim.run_dataset = functools.partial(\n"
            f"    repro.sim.run_dataset, workers={workers})\n"
            "sys.argv = sys.argv[1:]\n"
            "runpy.run_path(sys.argv[0], run_name='__main__')\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", bound, os.path.join(root, "examples", example), *args],
            env=env, capture_output=True, text=True, check=True,
        )
        return proc.stdout

    assert stdout(1) == stdout(2) != ""
