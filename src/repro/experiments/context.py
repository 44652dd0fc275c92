"""Shared experiment context: simulate each dataset once, analyse many times.

The paper's pipeline separates collection (one week of pcap at the vantage)
from analytics (many ENTRADA queries over the same warehouse).  The
:class:`ExperimentContext` mirrors that: dataset simulations are cached by
id, so every experiment and benchmark re-uses the same captures and the
state each run folded.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Optional, Tuple

from ..analysis import DatasetAnalytics
from ..config import RunConfig, check_positive
from ..sim import DatasetRun, run_dataset
from ..sim.driver import reject_removed_keywords
from ..telemetry import MetricsRegistry
from ..workload import DatasetDescriptor, dataset, monthly_google_descriptor


class ExperimentContext:
    """Caches simulated datasets; every analytics facade answers from a
    cached run's folded state.

    Each context carries a session-level :class:`MetricsRegistry`; every
    dataset simulation merges its run telemetry into it, so after a batch
    of experiments ``ctx.telemetry.snapshot()`` is the whole session's
    phase/counter record (exported by the CLI's ``--telemetry-out``).
    """

    def __init__(
        self,
        scale: float = 1.0,
        seed: int = 20201027,
        workers: int = 1,
        fault_plan=None,
        stream: Optional[bool] = None,
        vector: Optional[bool] = None,
        config: Optional[RunConfig] = None,
    ):
        reject_removed_keywords(vector=vector, stream=stream, workers=workers)
        self.scale = check_positive("scale", scale)
        self.seed = seed
        #: How every simulation of this context executes: ``config`` (the
        #: CLI passes the one it built from its flags), else ``RunConfig()``.
        self.config = config if config is not None else RunConfig()
        self.telemetry = MetricsRegistry()
        #: Optional :class:`~repro.faults.FaultPlan` applied to *every*
        #: dataset this context simulates (the CLI's ``--chaos`` flag).
        self.fault_plan = fault_plan
        self._runs: Dict[str, DatasetRun] = {}

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
            self._runs[descriptor.dataset_id] = cached
        return cached

    def run(self, dataset_id: str) -> DatasetRun:
        """The (cached) simulation of one paper dataset."""
        return self._simulate(dataset(dataset_id))

    def monthly(self, vantage: str, year: int, month: int) -> DatasetRun:
        """The (cached) Google-only monthly run for Figure 3."""
        return self._simulate(monthly_google_descriptor(vantage, year, month))

    # -- the analytics facade ----------------------------------------------------

    def analytics(self, dataset_id: str) -> DatasetAnalytics:
        """Metric access for one dataset: answers from the aggregates the
        run folded, with no row materialisation; every report
        over the dataset shares that state.
        """
        return DatasetAnalytics.of(self.run(dataset_id))

    def monthly_analytics(
        self, vantage: str, year: int, month: int
    ) -> Tuple[DatasetRun, DatasetAnalytics]:
        """The monthly run plus its analytics facade (Figure 3's unit)."""
        run = self.monthly(vantage, year, month)
        return run, DatasetAnalytics.of(run)
