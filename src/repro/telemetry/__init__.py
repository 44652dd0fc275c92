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

A sibling layer builds on the registry:
:mod:`~repro.telemetry.exposition` renders snapshots in the Prometheus
text format (``--metrics-out`` and the live service's ``/metrics``).
"""

from .exposition import CONTENT_TYPE as PROMETHEUS_CONTENT_TYPE, to_prometheus, write_prometheus
from .logs import configure_logging, format_summary
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
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "PhaseStat",
    "TelemetrySnapshot",
    "configure_logging",
    "format_summary",
    "metric_key",
    "split_key",
    "PROMETHEUS_CONTENT_TYPE",
    "to_prometheus",
    "write_prometheus",
]
