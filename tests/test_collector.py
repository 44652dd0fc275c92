"""The collector policy: automatic cyclic garbage collection is paused for
a dataset run (:func:`repro.sim.run_dataset`), through
:func:`repro.sim.driver.collector_paused`.

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
from dataclasses import replace

import pytest

from repro.__main__ import main
from repro.config import RunConfig
from repro.faults import chaos_scenario
from repro.resolver.engine import SimResolver
from repro.sim import driver, run_dataset
from repro.sim.driver import collector_paused
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


MODES = ("serial", "chaos", "spool")


def _run(mode, tmp_path):
    """One small ``nz-w2020`` run in ``mode``: plain (``serial``), under a
    chaos plan, or with its chunks spilled."""
    descriptor = dataset(DATASET)
    config = RunConfig()
    if mode == "chaos":
        descriptor = replace(descriptor, fault_plan=chaos_scenario("flaky-server"))
    elif mode == "spool":
        config = RunConfig(spool_dir=str(tmp_path / "spool"))
    run = run_dataset(descriptor, client_queries=QUERIES, config=config)
    assert run.client_queries_run == QUERIES
    assert len(run.capture) > 0


class TestCallerStateSurvives:
    @pytest.mark.parametrize("mode", MODES)
    def test_enabled_collector_is_enabled_again(self, mode, collector, tmp_path):
        _run(mode, tmp_path)
        assert gc.isenabled()

    @pytest.mark.parametrize("mode", MODES)
    def test_disabled_collector_stays_disabled_and_finds_few_cycles(
        self, mode, collector, tmp_path
    ):
        # With the caller's collector off, no automatic collection can
        # sweep the run's cycles before this count sees them.
        gc.disable()
        _run(mode, tmp_path)
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
            run_dataset(dataset(DATASET), client_queries=QUERIES)
        assert gc.isenabled() is enabled

    def test_pauses_nest(self, collector):
        with collector_paused():
            with collector_paused():
                assert not gc.isenabled()
            assert not gc.isenabled()
        assert gc.isenabled()

    def test_cli_dataset_restores_the_collector(self, collector, capsys):
        # A lossy run reaches the pause through the CLI as well as a plain
        # one.  No cycle count here: building the argument parser alone
        # leaves ~600 unreachable objects a call.
        lossy = ["--chaos", "default-loss"]
        assert main(["dataset", DATASET, "--scale", "0.01"]) == 0
        assert gc.isenabled()
        gc.disable()
        assert main(["dataset", DATASET, "--scale", "0.01", *lossy]) == 0
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
        run_dataset(dataset(DATASET), client_queries=QUERIES)
        assert resolve_sees and not any(resolve_sees)
        assert gc.isenabled()
