"""The collector policy: automatic cyclic garbage collection is paused for
a dataset run (:func:`repro.sim.run_dataset`) and for a pool worker's shard
(:func:`repro.runtime.execute_shard_task`), through
:func:`repro.runtime.collector_paused`.

Two things keep that pause safe, and this module pins both:

* every run hands the caller back the collector state it had — enabled by
  default, still disabled when the caller had disabled it — also when the
  run raises;
* a run leaves almost no reference cycles for the collector to find once
  it is back (0–317 unreachable objects today; a world build accounts for
  the 317).  A change that starts leaving a cycle per query breaks
  :data:`CYCLE_BUDGET` here long before a run's memory grows unbounded.

Nothing here counts collections: the generation thresholds differ between
Python versions.
"""

import gc
import multiprocessing
from dataclasses import replace

import pytest

from repro.__main__ import main
from repro.config import RunConfig
from repro.faults import chaos_scenario
from repro.resolver.engine import SimResolver
from repro.runtime import ShardTask, collector_paused, execute_shard_task, executor
from repro.sim import driver, run_dataset
from repro.workload import dataset

DATASET = "nz-w2020"
QUERIES = 1200

#: Unreachable objects ``gc.collect()`` may find straight after a run.
CYCLE_BUDGET = 1000


@pytest.fixture
def collector():
    """Hand the test an enabled, freshly swept collector; restore the
    state the session had afterwards, whatever the test did to it."""
    was_enabled = gc.isenabled()
    gc.enable()
    gc.collect()
    yield
    if was_enabled:
        gc.enable()
    else:
        gc.disable()


MODES = ("serial", "fork", "spawn", "trace", "chaos", "spool")


def _run(mode, tmp_path, monkeypatch):
    """One small ``nz-w2020`` run in ``mode``."""
    descriptor = dataset(DATASET)
    options = {"workers": 1}
    if mode in ("fork", "spawn"):
        if mode not in multiprocessing.get_all_start_methods():
            pytest.skip(f"no {mode} start method here")
        monkeypatch.setattr(
            executor, "pool_context", lambda: multiprocessing.get_context(mode)
        )
        options["workers"] = 2
    elif mode == "trace":
        options["trace"] = 0.05
    elif mode == "chaos":
        descriptor = replace(descriptor, fault_plan=chaos_scenario("flaky-server"))
    elif mode == "spool":
        options["spool_dir"] = str(tmp_path / "spool")
    run = run_dataset(descriptor, client_queries=QUERIES, config=RunConfig(**options))
    assert run.client_queries_run == QUERIES
    assert len(run.capture) > 0
    if options["workers"] > 1:
        assert run.runtime_report.mode == "process-pool"


class TestCallerStateSurvives:
    @pytest.mark.parametrize("mode", MODES)
    def test_enabled_collector_is_enabled_again(self, mode, collector, tmp_path, monkeypatch):
        _run(mode, tmp_path, monkeypatch)
        assert gc.isenabled()

    @pytest.mark.parametrize("mode", MODES)
    def test_disabled_collector_stays_disabled_and_finds_few_cycles(
        self, mode, collector, tmp_path, monkeypatch
    ):
        # With the caller's collector off, no automatic collection can
        # sweep the run's cycles before this count sees them.
        gc.disable()
        _run(mode, tmp_path, monkeypatch)
        assert not gc.isenabled()
        unreachable = gc.collect()
        assert unreachable <= CYCLE_BUDGET, (mode, unreachable)

    @pytest.mark.parametrize("enabled", [True, False])
    def test_a_run_that_raises_restores_the_collector(self, enabled, collector, monkeypatch):
        def broken(*args, **kwargs):
            assert not gc.isenabled()
            raise RuntimeError("world build failed")

        monkeypatch.setattr(driver, "build_environment", broken)
        if not enabled:
            gc.disable()
        with pytest.raises(RuntimeError, match="world build failed"):
            run_dataset(dataset(DATASET), client_queries=QUERIES, workers=1)
        assert gc.isenabled() is enabled

    def test_pauses_nest(self, collector):
        with collector_paused():
            with collector_paused():
                assert not gc.isenabled()
            assert not gc.isenabled()
        assert gc.isenabled()

    def test_cli_dataset_restores_the_collector(self, collector, capsys):
        # A pooled, lossy run reaches the pause through the CLI as well as
        # a serial one.  No cycle count here: building the argument parser
        # alone leaves ~600 unreachable objects a call.
        pooled = ["--workers", "2", "--chaos", "default-loss"]
        assert main(["dataset", DATASET, "--scale", "0.01"]) == 0
        assert gc.isenabled()
        gc.disable()
        assert main(["dataset", DATASET, "--scale", "0.01", *pooled]) == 0
        assert not gc.isenabled()
        capsys.readouterr()


@pytest.fixture
def resolve_sees(monkeypatch):
    """Record ``gc.isenabled()`` at every client query the member loop
    resolves."""
    seen = []
    resolve = SimResolver.resolve

    def recording(self, *args, **kwargs):
        seen.append(gc.isenabled())
        return resolve(self, *args, **kwargs)

    monkeypatch.setattr(SimResolver, "resolve", recording)
    return seen


class TestPauseCoversTheWork:
    def test_member_loop_runs_paused(self, collector, resolve_sees):
        run_dataset(dataset(DATASET), client_queries=QUERIES, workers=1)
        assert resolve_sees and not any(resolve_sees)
        assert gc.isenabled()

    def test_worker_entry_pauses_by_itself(self, collector, resolve_sees):
        # A spawned worker starts with the collector enabled and nothing
        # inherited from run_dataset; the entry it runs must pause it.
        task = ShardTask(
            descriptor=dataset(DATASET), seed=20201027, client_queries=QUERIES,
            shard_index=0,
        )
        result = execute_shard_task(task)
        assert result.queries_run == QUERIES
        assert resolve_sees and not any(resolve_sees)
        assert gc.isenabled()
