"""Shared experiment context: simulate each dataset once, analyse many times.

The paper's pipeline separates collection (one week of pcap at the vantage)
from analytics (many ENTRADA queries over the same warehouse).  The
:class:`ExperimentContext` mirrors that: dataset simulations are cached by
id, as are their attribution passes, so every experiment and benchmark
re-uses the same captures.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Tuple

from ..analysis import AttributionResult, Attributor, DatasetAnalytics
from ..capture import CaptureStore, CaptureView
from ..clouds import PROVIDERS
from ..runtime import (
    RuntimeConfig,
    RuntimeReport,
    ShardExecutor,
    ShardTask,
    configured_workers,
    derive_shard_seed,
)
from ..sim import DatasetRun, configured_stream, run_dataset
from ..telemetry import (
    FlightRecorder,
    MetricsRegistry,
    TraceBuffer,
    resolve_trace_config,
)
from ..workload import PAPER_DATASETS, dataset, monthly_google_descriptor

#: Environment variable scaling all client-query volumes (default 1.0).
SCALE_ENV = "REPRO_SCALE"


def configured_scale(default: float = 1.0) -> float:
    """Global volume scale, overridable via the REPRO_SCALE env var."""
    raw = os.environ.get(SCALE_ENV)
    if raw is None:
        return default
    value = float(raw)
    if value <= 0:
        raise ValueError(f"{SCALE_ENV} must be positive")
    return value


class ExperimentContext:
    """Caches simulated datasets and their attribution results.

    Each context carries a session-level :class:`MetricsRegistry`; every
    dataset simulation merges its run telemetry into it, so after a batch
    of experiments ``ctx.telemetry.snapshot()`` is the whole session's
    phase/counter record (exported by the CLI's ``--telemetry-out`` and the
    benchmark suite's ``BENCH_telemetry.json``).
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
    ):
        # Stub kept only for bench/workloads.py, which passes vector=False
        # (see run_dataset); it goes with the next benchmark PR.
        if vector:
            raise ValueError(
                "the record/replay vector core was removed;"
                " vector= must be None or False"
            )
        self.scale = configured_scale() if scale is None else scale
        self.seed = seed
        self.workers = configured_workers() if workers is None else int(workers)
        self.telemetry = MetricsRegistry() if telemetry is None else telemetry
        #: Optional :class:`~repro.faults.FaultPlan` applied to *every*
        #: dataset this context simulates (the CLI's ``--chaos`` flag).
        self.fault_plan = fault_plan
        #: Streaming mode (the CLI's ``--stream`` flag / ``REPRO_STREAM``):
        #: every simulation folds its capture into single-pass aggregates
        #: and :meth:`analytics` answers from those instead of a
        #: materialised view.
        self.stream = configured_stream() if stream is None else bool(stream)
        #: Root directory for streaming spool chunks (``None`` = temp dirs).
        self.spool_dir = spool_dir
        #: Trace config applied to every simulation (the CLI's
        #: ``--trace-sample`` flag / ``REPRO_TRACE``); ``None`` = off.
        self.trace = resolve_trace_config(trace)
        #: Session-level trace roll-up: every traced run's buffer merges in
        #: here (analogous to :attr:`telemetry` for counters).
        self.traces = TraceBuffer()
        #: Session-level flight-recorder roll-up (``None`` until a traced
        #: run lands).
        self.timeseries: Optional[FlightRecorder] = None
        self._runs: Dict[str, DatasetRun] = {}
        self._attributions: Dict[str, AttributionResult] = {}
        self._analytics: Dict[str, DatasetAnalytics] = {}

    def _adopt_observability(self, run: DatasetRun) -> None:
        """Merge one run's traces/frames into the session roll-ups."""
        if run.traces is not None:
            self.traces.merge(run.traces)
        if run.timeseries is not None:
            if self.timeseries is None:
                self.timeseries = FlightRecorder(run.timeseries.window_s)
            self.timeseries.merge(run.timeseries)

    # -- dataset runs --------------------------------------------------------

    def _volume(self, descriptor) -> int:
        return max(500, int(descriptor.client_queries * self.scale))

    def _descriptor(self, descriptor):
        """Attach the context's fault plan (if any) to a descriptor."""
        if self.fault_plan is None:
            return descriptor
        from dataclasses import replace

        return replace(descriptor, fault_plan=self.fault_plan)

    def run(self, dataset_id: str) -> DatasetRun:
        """The (cached) simulation of one paper dataset."""
        cached = self._runs.get(dataset_id)
        if cached is None:
            descriptor = self._descriptor(dataset(dataset_id))
            cached = run_dataset(
                descriptor, seed=self.seed,
                client_queries=self._volume(descriptor),
                telemetry=self.telemetry, workers=self.workers,
                stream=self.stream, spool_dir=self.spool_dir,
                trace=self.trace,
            )
            self._adopt_observability(cached)
            self._runs[dataset_id] = cached
        return cached

    def monthly(self, vantage: str, year: int, month: int) -> DatasetRun:
        """The (cached) Google-only monthly run for Figure 3."""
        descriptor = self._descriptor(monthly_google_descriptor(vantage, year, month))
        cached = self._runs.get(descriptor.dataset_id)
        if cached is None:
            cached = run_dataset(
                descriptor, seed=self.seed,
                client_queries=self._volume(descriptor),
                telemetry=self.telemetry, workers=self.workers,
                stream=self.stream, spool_dir=self.spool_dir,
                trace=self.trace,
            )
            self._adopt_observability(cached)
            self._runs[descriptor.dataset_id] = cached
        return cached

    def prefetch(self, dataset_ids: Optional[Iterable[str]] = None) -> None:
        """Simulate several datasets concurrently, one pool task per dataset.

        Dataset runs are independent, so batching them across the worker
        pool parallelises better than sharding each run individually (one
        environment build per dataset instead of one per shard).  Each
        worker ships back its capture rows and telemetry; the parent
        rebuilds the (deterministic) environment to recover the run's
        registry/fleet/network objects and caches a :class:`DatasetRun`
        indistinguishable from a locally-executed one.

        Datasets whose shard failed even after the executor's retry and
        serial fallback are simply left uncached — first use simulates
        them lazily via :meth:`run`.
        """
        ids = sorted(PAPER_DATASETS) if dataset_ids is None else list(dataset_ids)
        pending = [i for i in ids if i not in self._runs]
        if not pending:
            return
        if self.workers <= 1 or len(pending) == 1:
            for dataset_id in pending:
                self.run(dataset_id)
            return

        # Lazy import: repro.sim.driver imports repro.runtime at module
        # level, so pulling its internals in at call time keeps this module
        # importable from either direction.
        from ..sim.driver import build_environment

        # Streaming prefetch: the parent owns one spool per dataset (so
        # chunk files outlive the workers that write them).
        spools: Dict[str, object] = {}
        if self.stream:
            from ..capture import CaptureSpool

            for dataset_id in pending:
                directory = (
                    os.path.join(self.spool_dir, dataset_id)
                    if self.spool_dir else None
                )
                spools[dataset_id] = CaptureSpool(directory=directory)

        batch_metrics = MetricsRegistry()
        tasks = []
        for index, dataset_id in enumerate(pending):
            descriptor = self._descriptor(dataset(dataset_id))
            tasks.append(ShardTask(
                descriptor=descriptor,
                seed=self.seed,
                client_queries=self._volume(descriptor),
                shard_index=index,
                shard_seed=derive_shard_seed(self.seed, index),
                stream=self.stream,
                spool_dir=(
                    str(spools[dataset_id].directory) if self.stream else None
                ),
                trace_sample=self.trace.sample if self.trace else 0.0,
                trace_window_s=self.trace.window_s if self.trace else 3600.0,
            ))
        executor = ShardExecutor(
            RuntimeConfig(workers=self.workers), batch_metrics
        )
        with batch_metrics.time_phase("runtime.prefetch"):
            executor.submit(tasks)
            results, batch_report = executor.collect()
        self.telemetry.merge_snapshot(batch_metrics.snapshot())

        by_index = {result.shard_index: result for result in results}
        for index, dataset_id in enumerate(pending):
            result = by_index.get(index)
            if result is None:
                continue
            descriptor = tasks[index].descriptor
            env = build_environment(descriptor, self.seed, MetricsRegistry())
            if self.stream:
                from ..capture import SpooledCapture

                spool = spools[dataset_id]
                spool.adopt(result.chunk_paths, result.chunk_row_counts)
                capture = SpooledCapture(spool, result.rows_appended)
            else:
                capture = CaptureStore.from_raw_rows(
                    result.rows, result.rows_appended
                )
                capture.sort_canonical()
            run_metrics = MetricsRegistry()
            run_metrics.merge_snapshot(result.telemetry)
            snapshot = run_metrics.snapshot()
            self.telemetry.merge_snapshot(snapshot)
            trace_buffer = None
            flight = None
            if self.trace is not None:
                trace_buffer = TraceBuffer(
                    dataset_id=descriptor.dataset_id, seed=self.seed,
                    sample=self.trace.sample, base_ts=descriptor.start,
                )
                trace_buffer.extend(result.traces)
                if result.frames is not None:
                    flight = FlightRecorder.from_dict(result.frames)
            outcome = batch_report.outcomes[index]
            self._runs[dataset_id] = DatasetRun(
                descriptor=descriptor,
                capture=capture,
                registry=env.registry,
                fleet=env.fleet,
                ptr_table=env.ptr_table,
                network=env.network,
                vantage_zone=env.vantage_zone,
                server_sets=env.server_sets,
                client_queries_run=result.queries_run,
                telemetry=snapshot,
                runtime_report=RuntimeReport(
                    mode="process-pool", workers=self.workers,
                    shard_count=1, fallbacks=int(result.fallback),
                    outcomes=[outcome],
                ),
                aggregates=result.aggregates,
                traces=trace_buffer,
                timeseries=flight,
            )
            self._adopt_observability(self._runs[dataset_id])

    # -- derived views ---------------------------------------------------------

    def view(self, dataset_id: str) -> CaptureView:
        return self.run(dataset_id).capture.view()

    def attribution(self, dataset_id: str) -> AttributionResult:
        cached = self._attributions.get(dataset_id)
        if cached is None:
            run = self.run(dataset_id)
            cached = self._attribute(run)
            self._attributions[dataset_id] = cached
        return cached

    def _attribute(self, run: DatasetRun) -> AttributionResult:
        view = run.capture.view()
        with self.telemetry.time_phase("attribution"):
            result = Attributor(run.registry, PROVIDERS).attribute(view)
        self.telemetry.counter("analysis.attribution_passes").inc()
        self.telemetry.counter("analysis.rows_attributed").inc(len(view))
        return result

    # -- the analytics facade ----------------------------------------------------

    def _analytics_for(self, run: DatasetRun, key: str) -> DatasetAnalytics:
        cached = self._analytics.get(key)
        if cached is None:
            if run.aggregates is not None:
                cached = DatasetAnalytics(run.aggregates)
                self.telemetry.counter("analysis.streaming_answers").inc()
            else:
                attribution = self._attributions.get(key)
                if attribution is None:
                    attribution = self._attribute(run)
                    self._attributions[key] = attribution
                cached = DatasetAnalytics.over(run.capture.view(), attribution)
            self._analytics[key] = cached
        return cached

    def analytics(self, dataset_id: str) -> DatasetAnalytics:
        """Metric access for one dataset, memoised per dataset.

        Answers from the aggregates the run folded while simulating
        (streaming mode — no row materialisation), or, for an in-memory
        run, from aggregators fed the frozen capture the first time a
        report reads them; every later report shares that state.
        """
        return self._analytics_for(self.run(dataset_id), dataset_id)

    def monthly_analytics(
        self, vantage: str, year: int, month: int
    ) -> Tuple[DatasetRun, DatasetAnalytics]:
        """The monthly run plus its analytics facade (Figure 3's unit)."""
        run = self.monthly(vantage, year, month)
        return run, self._analytics_for(run, run.descriptor.dataset_id)
