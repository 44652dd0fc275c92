"""repro.telemetry — dependency-free observability for the pipeline.

A :class:`MetricsRegistry` collects counters, gauges, fixed-bucket
histograms and re-entrant phase timers; :meth:`MetricsRegistry.snapshot`
freezes them into a JSON-safe :class:`TelemetrySnapshot`.  The simulation
driver instruments each :func:`~repro.sim.driver.run_dataset` call with a
fresh registry and attaches the snapshot to the returned
:class:`~repro.sim.driver.DatasetRun`; :class:`~repro.experiments.context.
ExperimentContext` rolls those per-run snapshots up into a session-level
registry that the CLI and benchmark suite export.

Quick use::

    metrics = MetricsRegistry()
    with metrics.time_phase("resolve"):
        metrics.counter("sim.client_queries", provider="Google").inc()
    snap = metrics.snapshot()
    snap.write_json("telemetry.json")
    print(format_summary(snap))

Three sibling layers build on the registry (PR 6):
:mod:`~repro.telemetry.tracing` records sampled per-query lifecycle
traces with deterministic hash-derived sampling,
:mod:`~repro.telemetry.timeseries` buckets metrics into windowed
rate-over-sim-time frames, and :mod:`~repro.telemetry.exposition` renders
snapshots in the Prometheus text format for the future live-serve mode.
"""

from .exposition import CONTENT_TYPE as PROMETHEUS_CONTENT_TYPE, to_prometheus, write_prometheus
from .logs import configure_logging, format_summary
from .timeseries import FlightRecorder
from .tracing import (
    QueryTrace,
    QueryTracer,
    TraceBuffer,
    TraceConfig,
    hash_uniform,
    mix32,
    read_trace_file,
    summarize_trace_file,
)
from .registry import (
    Counter,
    DEFAULT_BUCKETS,
    Gauge,
    Histogram,
    MetricsRegistry,
    PhaseStat,
    TelemetrySnapshot,
    metric_key,
    split_key,
)

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "PhaseStat",
    "QueryTrace",
    "QueryTracer",
    "TelemetrySnapshot",
    "TraceBuffer",
    "TraceConfig",
    "configure_logging",
    "format_summary",
    "hash_uniform",
    "metric_key",
    "mix32",
    "read_trace_file",
    "split_key",
    "summarize_trace_file",
    "PROMETHEUS_CONTENT_TYPE",
    "to_prometheus",
    "write_prometheus",
]
