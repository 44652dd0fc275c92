"""Shared experiment context: simulate each dataset once, analyse many times.

The paper's pipeline separates collection (one week of pcap at the vantage)
from analytics (many ENTRADA queries over the same warehouse).  The
:class:`ExperimentContext` mirrors that: dataset simulations are cached by
id, as are their attribution passes, so every experiment and benchmark
re-uses the same captures.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Optional, Tuple

from ..analysis import AttributionResult, DatasetAnalytics
from ..config import RunConfig, resolve_scale
from ..sim import DatasetRun, run_dataset
from ..telemetry import MetricsRegistry, TraceBuffer
from ..workload import DatasetDescriptor, dataset, monthly_google_descriptor


class ExperimentContext:
    """Caches simulated datasets and their attribution results.

    Each context carries a session-level :class:`MetricsRegistry`; every
    dataset simulation merges its run telemetry into it, so after a batch
    of experiments ``ctx.telemetry.snapshot()`` is the whole session's
    phase/counter record (exported by the CLI's ``--telemetry-out``).
    """

    def __init__(
        self,
        scale: Optional[float] = None,
        seed: int = 20201027,
        telemetry: Optional[MetricsRegistry] = None,
        workers: Optional[int] = None,
        fault_plan=None,
        stream: Optional[bool] = None,
        spool_dir: Optional[str] = None,
        trace=None,
        vector: Optional[bool] = None,
        config: Optional[RunConfig] = None,
    ):
        # Stub kept only for bench/workloads.py, which passes vector=False
        # (see run_dataset); it goes with the next benchmark PR.
        if vector:
            raise ValueError(
                "the record/replay vector core was removed;"
                " vector= must be None or False"
            )
        self.scale = resolve_scale(scale)
        self.seed = seed
        #: How every simulation of this context executes: a ready
        #: ``config`` (the CLI passes the one it resolved), else
        #: ``workers`` / ``stream`` / ``spool_dir`` / ``trace`` resolved
        #: against the environment once, here.  Under ``stream``
        #: :meth:`analytics` answers from the aggregates each run folded
        #: instead of a materialised view.
        self.config = config if config is not None else RunConfig.resolve(
            workers=workers, stream=stream, spool_dir=spool_dir, trace=trace
        )
        self.telemetry = MetricsRegistry() if telemetry is None else telemetry
        #: Optional :class:`~repro.faults.FaultPlan` applied to *every*
        #: dataset this context simulates (the CLI's ``--chaos`` flag).
        self.fault_plan = fault_plan
        #: Session-level trace roll-up: every traced run's buffer merges in
        #: here (analogous to :attr:`telemetry` for counters).
        self.traces = TraceBuffer()
        self._runs: Dict[str, DatasetRun] = {}
        self._analytics: Dict[str, DatasetAnalytics] = {}

    # -- dataset runs --------------------------------------------------------

    def _simulate(self, descriptor: DatasetDescriptor) -> DatasetRun:
        """The (cached) simulation of one descriptor at this context's
        scale, under its fault plan (if any)."""
        cached = self._runs.get(descriptor.dataset_id)
        if cached is None:
            if self.fault_plan is not None:
                descriptor = replace(descriptor, fault_plan=self.fault_plan)
            cached = run_dataset(
                descriptor, seed=self.seed,
                client_queries=max(500, int(descriptor.client_queries * self.scale)),
                telemetry=self.telemetry, config=self.config,
            )
            if cached.traces is not None:
                self.traces.merge(cached.traces)
            self._runs[descriptor.dataset_id] = cached
        return cached

    def run(self, dataset_id: str) -> DatasetRun:
        """The (cached) simulation of one paper dataset."""
        return self._simulate(dataset(dataset_id))

    def monthly(self, vantage: str, year: int, month: int) -> DatasetRun:
        """The (cached) Google-only monthly run for Figure 3."""
        return self._simulate(monthly_google_descriptor(vantage, year, month))

    # -- derived views ---------------------------------------------------------

    def attribution(self, dataset_id: str) -> AttributionResult:
        return self.analytics(dataset_id).attribution()

    # -- the analytics facade ----------------------------------------------------

    def _facade(self, run: DatasetRun) -> DatasetAnalytics:
        key = run.descriptor.dataset_id
        cached = self._analytics.get(key)
        if cached is None:
            cached = self._analytics[key] = DatasetAnalytics.of(run, self.telemetry)
        return cached

    def analytics(self, dataset_id: str) -> DatasetAnalytics:
        """Metric access for one dataset, memoised per dataset.

        Answers from the aggregates the run folded while simulating
        (streaming mode — no row materialisation), or, for an in-memory
        run, from aggregators fed the frozen capture the first time a
        report reads them; every later report shares that state.
        """
        return self._facade(self.run(dataset_id))

    def monthly_analytics(
        self, vantage: str, year: int, month: int
    ) -> Tuple[DatasetRun, DatasetAnalytics]:
        """The monthly run plus its analytics facade (Figure 3's unit)."""
        run = self.monthly(vantage, year, month)
        return run, self._facade(run)
