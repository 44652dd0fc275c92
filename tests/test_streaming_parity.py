"""Where a run's chunks live, and the one fold every run carries.

Every run folds its columnar chunks into aggregate state while freezing
them; a resident run then keeps the chunks in memory, a run with a spool
directory writes them to chunk files.  That both give the same capture
and the same answers is pinned once, in ``test_oracle``; this module
holds what differs between the two by design — the files a run leaves —,
that the facade and the examples never need the materialised view to
answer, and that a run folded over many chunks answers as a one-chunk
run does.
"""

import os
import subprocess
import sys
import tempfile
from collections import Counter

import pytest

from repro.analysis import AggregateSet, DatasetAnalytics
from repro.capture import CaptureStore, split_address, store
from repro.config import RunConfig
from repro.sim import run_dataset
from repro.workload import dataset

from .helpers import view_digest

DATASET = "nl-w2020"
QUERIES = 900
SEED = 20201027


def simulate(spool_dir=None):
    """One run of the dataset, its chunks spilled under ``spool_dir``."""
    return run_dataset(
        dataset(DATASET), client_queries=QUERIES, seed=SEED,
        config=RunConfig(spool_dir=spool_dir),
    )


@pytest.fixture(scope="module")
def mem_run():
    return simulate()


@pytest.fixture(scope="module")
def stream_run(tmp_path_factory):
    return simulate(spool_dir=str(tmp_path_factory.mktemp("spool")))


class TestOneFacadeConstructor:
    """``DatasetAnalytics.of`` answers from the folded state of any run
    (``test_oracle`` holds its answers to one literal)."""

    def test_of_books_what_it_did(self, mem_run, stream_run):
        for run in (mem_run, stream_run):
            analytics = DatasetAnalytics.of(run)
            assert analytics.aggregates is run.aggregates
            assert analytics.rssac().total_queries == len(run.capture)


def test_a_resident_run_answers_without_its_view(monkeypatch):
    """Every facade answer of a resident run comes from the state it
    folded: the canonical view is never materialised."""
    from repro.capture import SpooledCapture

    from .test_oracle import facade_answers

    calls = []
    monkeypatch.setattr(SpooledCapture, "view", lambda self: calls.append(self))
    fresh = simulate()
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
    ctx = ExperimentContext(scale=0.004, seed=SEED)
    assert figure5.run_server(ctx, "nl-a").rows
    assert figure5.run_server(ctx, "nl-b").rows
    assert extension_rssac.run(ctx).rows


def test_an_in_memory_run_touches_no_filesystem(tmp_path, monkeypatch):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    monkeypatch.chdir(tmp_path)
    run = run_dataset(dataset("nz-w2018"), client_queries=300, seed=SEED)
    assert not list(tmp_path.iterdir())
    assert len(run.capture.view()) == len(run.capture) > 0
    assert not list(tmp_path.iterdir())
    assert run.capture.spool.chunk_paths() == []


class TestSerialParity:
    def test_run_shapes(self, mem_run, stream_run):
        assert len(mem_run.capture) == len(stream_run.capture)
        for run in (mem_run, stream_run):
            assert run.aggregates.rows_fed == len(run.capture)
            assert run.telemetry.counter("runtime.rows_folded") == len(run.capture)
        assert mem_run.capture.spool.chunk_paths() == []
        assert stream_run.capture.spool.chunk_paths()


def exact_states(run):
    """The exact state of every aggregator a run folded: the registry's
    and the three beside it."""
    aggregates = run.aggregates
    return {
        **{name: aggregator.exact_state()
           for name, aggregator in aggregates.aggregators.items()},
        **{aggregator.name: aggregator.exact_state()
           for aggregator in aggregates._beside()},
    }


class TestManyChunks:
    """No small run passes one chunk (``DEFAULT_CHUNK_ROWS`` rows); cut
    to a few hundred rows, the chunks make a run fold over several, and
    it must answer as the one-chunk run does."""

    CHUNK_ROWS = 200

    @pytest.fixture
    def small_chunks(self, mem_run, monkeypatch):
        assert sum(1 for _ in mem_run.capture.iter_views()) == 1
        monkeypatch.setattr(store, "DEFAULT_CHUNK_ROWS", self.CHUNK_ROWS)

    def test_every_exact_state_is_the_one_chunk_runs(self, mem_run, small_chunks):
        run = simulate()
        assert sum(1 for _ in run.capture.iter_views()) > 1
        assert run.aggregates.rows_fed == len(run.capture) == len(mem_run.capture)
        assert exact_states(run) == exact_states(mem_run)

    def test_heavy_hitter_bounds_bracket_the_true_counts(self, small_chunks):
        run = simulate()
        sketch = run.aggregates["composition"].hot_names
        truth = Counter(run.capture.view().qname.tolist())
        assert sketch.evictions and sketch.total == sum(truth.values())
        for qname, count in truth.items():
            low, high = sketch.bounds(qname)
            assert low <= count <= high, qname

    def test_chunks_fold_while_the_fleet_runs(self, mem_run, small_chunks, monkeypatch):
        """A run lands each chunk as soon as it fills, between two
        members: the fold starts before the last row is appended, every
        chunk but the tail is full, the append buffer stays within a chunk
        plus one member's rows, and the per-chunk response-size histogram
        adds up to the one-chunk run's."""
        from repro.sim import driver

        stores, feeds = [], []

        class RecordingStore(CaptureStore):
            def __init__(self):
                super().__init__()
                stores.append(self)

        feed = AggregateSet.feed

        def recording_feed(self, view, attribution):
            (capture,) = stores
            feeds.append((capture.rows_appended, len(capture), len(view)))
            return feed(self, view, attribution)

        monkeypatch.setattr(driver, "CaptureStore", RecordingStore)
        monkeypatch.setattr(AggregateSet, "feed", recording_feed)
        run = simulate()
        total = len(run.capture)
        assert total == len(mem_run.capture) and len(feeds) > 1

        assert feeds[0][0] < total
        assert [rows for __, __, rows in feeds[:-1]] == [self.CHUNK_ROWS] * (len(feeds) - 1)
        assert sum(rows for __, __, rows in feeds) == total

        view = run.capture.view()
        per_source = Counter(zip(
            view.family.tolist(), view.src_hi.tolist(), view.src_lo.tolist()
        ))
        largest_member = max(
            sum(
                per_source[split_address(address)]
                for address in (member.resolver.v4, member.resolver.v6)
                if address is not None
            )
            for member in run.fleet
        )
        folded = 0
        for appended, buffered, rows in feeds:
            assert appended - folded <= self.CHUNK_ROWS + largest_member
            folded += rows
            assert buffered == appended - folded    # the chunk left the buffer

        name = "capture.response_size_bytes"
        assert run.telemetry.histograms[name] == mem_run.telemetry.histograms[name]

    def test_a_run_that_fails_leaves_no_chunk_file(self, small_chunks, tmp_path, monkeypatch):
        """Chunks are written while the fleet runs; a run that fails after
        them deletes them."""
        from repro.sim import driver

        def fail(*args):
            raise RuntimeError("failed after the fleet")

        monkeypatch.setattr(driver, "publish_fleet_metrics", fail)
        with pytest.raises(RuntimeError, match="failed after the fleet"):
            simulate(spool_dir=str(tmp_path))
        assert not list(tmp_path.rglob("*.chunk"))

    def test_a_spooled_run_writes_every_chunk(self, mem_run, small_chunks, tmp_path):
        run = simulate(spool_dir=str(tmp_path))
        assert len(list((tmp_path / DATASET).glob("*.chunk"))) > 1
        assert view_digest(run.capture.view()) == view_digest(mem_run.capture.view())
        assert exact_states(run) == exact_states(mem_run)


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


@pytest.mark.parametrize("example, args", [
    ("quickstart.py", ["0.01"]),
    ("transport_audit.py", ["nz-w2020", "0.01"]),
])
def test_examples_answer_the_same_streamed(example, args, tmp_path):
    """The examples are the documentation of ``DatasetAnalytics.of(run)``:
    they must not care where the run they were handed kept its chunks —
    in memory, or spilled to chunk files."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = {**os.environ, "PYTHONPATH": os.path.join(root, "src")}

    def stdout(spool_dir):
        # Every run_dataset call the example makes gets ``spool_dir``.
        bound = (
            "import functools, runpy, sys\n"
            "import repro.sim\n"
            "from repro.config import RunConfig\n"
            "repro.sim.run_dataset = functools.partial(\n"
            f"    repro.sim.run_dataset, config=RunConfig(spool_dir={spool_dir!r}))\n"
            "sys.argv = sys.argv[1:]\n"
            "runpy.run_path(sys.argv[0], run_name='__main__')\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", bound, os.path.join(root, "examples", example), *args],
            env=env, capture_output=True, text=True, check=True,
        )
        return proc.stdout

    assert stdout(None) == stdout(str(tmp_path)) != ""
    assert list(tmp_path.glob("*/*.chunk"))
