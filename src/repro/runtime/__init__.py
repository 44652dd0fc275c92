"""Sharded parallel execution engine for dataset simulation.

Turns one :func:`repro.sim.run_dataset` call into a plan of deterministic
shards executed on a worker pool and merged back into a bit-identical
result:

* :mod:`repro.runtime.planner` — weight-balanced contiguous shard plans;
* :mod:`repro.runtime.executor` — the process-pool backend with per-shard
  timeout, retry-once, serial-fallback semantics, and ``runtime.*``
  telemetry; the in-process backend is a loop in the driver itself;
* :mod:`repro.runtime.env_cache` — the bounded parking class behind the
  process's world stores (:mod:`repro.sim.worlds`): datasets of one
  ``(vantage, year, seed)`` share one fleet, every world shares its zones;
* merging — every shard's columnar chunks adopted in shard order into
  the run's :class:`repro.capture.CaptureSpool`
  (:meth:`repro.capture.SpooledCapture.view` applies the canonical
  ``(timestamp, server_id)`` ordering) plus
  :meth:`repro.telemetry.MetricsRegistry.merge_snapshot`;
* :func:`collector_paused` — no automatic cyclic GC in a run or a shard.

Determinism contract: per-resolver query streams are seeded by *global*
fleet index, every worker assembles the full environment from
``(descriptor, seed)``, and all cross-member simulation state is
deterministic, so ``run_dataset(..., workers=N)`` yields the same capture
and reports for any ``N``.
"""

from .env_cache import EnvironmentCache
from .executor import (
    FAULT_CRASH,
    FAULT_EXIT,
    FAULT_HANG,
    RuntimeReport,
    ShardExecutor,
    ShardOutcome,
    ShardResult,
    ShardTask,
    collector_paused,
    execute_shard_task,
    pool_context,
    record_outcome,
)
from .planner import Shard, ShardPlan, plan_shards

__all__ = [
    "EnvironmentCache",
    "FAULT_CRASH",
    "FAULT_EXIT",
    "FAULT_HANG",
    "RuntimeReport",
    "Shard",
    "ShardExecutor",
    "ShardOutcome",
    "ShardPlan",
    "ShardResult",
    "ShardTask",
    "collector_paused",
    "execute_shard_task",
    "plan_shards",
    "pool_context",
    "record_outcome",
]
