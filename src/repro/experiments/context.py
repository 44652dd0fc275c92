"""Shared experiment context: simulate each dataset once, analyse many times.

The paper's pipeline separates collection (one week of pcap at the vantage)
from analytics (many ENTRADA queries over the same warehouse).  The
:class:`ExperimentContext` mirrors that: each dataset is simulated once,
and the context keeps only the state the run folded, as a
:class:`~repro.analysis.DatasetAnalytics` cached by id.  The run itself —
its capture chunks, its servers and their plan caches — is dropped as
soon as it is folded; chunk files written under a spool directory stay
on disk.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Optional

from ..analysis import DatasetAnalytics
from ..config import RunConfig, check_positive
from ..sim import run_dataset
from ..sim.driver import reject_removed_keywords
from ..telemetry import MetricsRegistry
from ..workload import DatasetDescriptor, dataset, monthly_google_descriptor


class ExperimentContext:
    """Caches each simulated dataset's analytics facade, never its run.

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
        self._analytics: Dict[str, DatasetAnalytics] = {}

    def _folded(self, descriptor: DatasetDescriptor) -> DatasetAnalytics:
        """The (cached) analytics of one descriptor simulated at this
        context's scale, under its fault plan (if any)."""
        cached = self._analytics.get(descriptor.dataset_id)
        if cached is None:
            if self.fault_plan is not None:
                descriptor = replace(descriptor, fault_plan=self.fault_plan)
            cached = DatasetAnalytics.of(run_dataset(
                descriptor, seed=self.seed,
                client_queries=max(500, int(descriptor.client_queries * self.scale)),
                telemetry=self.telemetry, config=self.config,
            ))
            self._analytics[descriptor.dataset_id] = cached
        return cached

    def analytics(self, dataset_id: str) -> DatasetAnalytics:
        """Metric access for one paper dataset: answers from the aggregates
        its run folded, with no row materialisation; every report over the
        dataset shares that state.
        """
        return self._folded(dataset(dataset_id))

    def monthly_analytics(self, vantage: str, year: int, month: int) -> DatasetAnalytics:
        """The Google-only monthly run's analytics (Figure 3's unit)."""
        return self._folded(monthly_google_descriptor(vantage, year, month))
