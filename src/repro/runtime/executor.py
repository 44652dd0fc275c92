"""Shard execution: worker-pool backend with retry and serial fallback.

The executor turns a list of :class:`ShardTask` descriptions into
:class:`ShardResult` objects.  Two backends exist:

* ``workers == 1`` — the simulation driver runs the whole fleet as one
  shard in-process, against the environment it built, and books it with
  :func:`record_outcome`;
* ``workers > 1`` — :class:`ShardExecutor` dispatches tasks onto a
  :class:`concurrent.futures.ProcessPoolExecutor`.  Every worker assembles
  the full deterministic environment from ``(descriptor, seed)`` and
  resolves only its member range, so no simulation state ever crosses a
  process boundary — only the plan goes in and columnar chunks come out.

Robustness semantics: a shard that crashes or exceeds the per-shard
timeout (:data:`SHARD_TIMEOUT_S`; none by default) is retried once on the
pool (:data:`RETRY_ON_POOL`), then re-run serially in the parent process.
Shards that still fail are surfaced in the :class:`RuntimeReport` (and the
``runtime.shard_failures`` counter) instead of crashing the session; the
merged run simply lacks their rows.

Telemetry: ``runtime.shards_total`` / ``runtime.shard_retries`` /
``runtime.shard_fallbacks`` / ``runtime.shard_failures`` counters, a
``runtime.workers`` gauge, per-shard ``runtime.shard.<index>`` phase spans
(worker-measured busy time), per-shard ``runtime.shard_queries{shard=}``
counters, and a ``runtime.worker_utilization`` gauge (busy seconds over
``workers × wall``).
"""

from __future__ import annotations

import gc
import logging
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..capture import CaptureView
from ..config import RunConfig
from ..telemetry import MetricsRegistry, TelemetrySnapshot
from ..workload import DatasetDescriptor

logger = logging.getLogger("repro.runtime")


def pool_context():
    """The multiprocessing context for shard pools: ``fork`` where the
    platform has it, so workers inherit the zones and the fleet the parent
    holds in its world stores (:mod:`repro.sim.worlds`); elsewhere the
    platform's default, under which a worker starts with empty stores,
    builds its parts itself and shares them across its own shards."""
    forks = "fork" in multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if forks else None)


#: Seconds the parent waits for a pool shard before it counts as failed
#: (``None`` = no limit).
SHARD_TIMEOUT_S: Optional[float] = None

#: Whether failed shards get one more attempt on the pool before the
#: serial fallback (skipped anyway when the pool itself died).
RETRY_ON_POOL = True

#: Injected-fault modes (testing hooks; see :attr:`ShardTask.fault`).
FAULT_CRASH = "crash"
FAULT_HANG = "hang"
#: Hard worker death (``os._exit``): breaks the whole pool, exercising the
#: BrokenProcessPool → serial-fallback recovery path end to end.
FAULT_EXIT = "exit"

#: How long an injected ``hang`` fault sleeps before proceeding.  Short
#: enough that pool shutdown after a timed-out test shard stays cheap.
_HANG_SECONDS = 2.0


@dataclass
class ShardTask:
    """Everything a worker needs to simulate one shard.

    The task is the *whole* cross-process payload: workers rebuild the
    deterministic environment from ``(descriptor, seed)`` and resolve fleet
    members ``[start, stop)`` (``stop=None`` → the full fleet).
    """

    descriptor: DatasetDescriptor
    seed: int
    client_queries: Optional[int]
    shard_index: int
    start: int = 0
    stop: Optional[int] = None
    #: Injected-fault mode for pool attempts (a hook for tests and
    #: drills); the serial fallback strips it.
    fault: Optional[str] = None
    #: The run's configuration: a traced shard samples by hash per fleet
    #: member, so the same queries are traced no matter how members are
    #: packed into shards.
    config: RunConfig = RunConfig()
    #: The parent spool's directory, where a spilling shard writes its
    #: chunk files (they must outlive the worker); ``None`` keeps them
    #: resident.
    spool_dir: Optional[str] = None


@dataclass
class ShardResult:
    """What comes back from one shard: its capture as columnar chunks,
    plus telemetry.

    ``chunks`` holds the shard's capture in append order — resident
    :class:`~repro.capture.CaptureView` chunks, or the paths of the chunk
    files it wrote into the run's spool directory — with
    ``chunk_row_counts`` alongside, and ``aggregates``, the analysis state
    it folded from them.
    """

    shard_index: int
    rows_appended: int
    queries_run: int
    telemetry: TelemetrySnapshot
    duration_s: float
    attempts: int = 1
    fallback: bool = False
    aggregates: Optional[object] = None
    chunks: List[Union[CaptureView, str]] = field(default_factory=list)
    chunk_row_counts: List[int] = field(default_factory=list)
    #: Completed trace dicts, in member order (tracing enabled only).  The
    #: parent extends its buffer in shard-index order, reproducing the
    #: serial trace sequence exactly — the same merge discipline as chunks.
    traces: List[dict] = field(default_factory=list)


@dataclass
class ShardOutcome:
    """Per-shard line of the run report (success or failure)."""

    index: int
    start: int
    stop: Optional[int]
    queries_run: int = 0
    rows: int = 0
    duration_s: float = 0.0
    attempts: int = 0
    fallback: bool = False
    error: Optional[str] = None


@dataclass
class RuntimeReport:
    """How a sharded run actually executed (attached to ``DatasetRun``)."""

    mode: str                      #: "serial" | "process-pool"
    workers: int
    shard_count: int
    retries: int = 0
    fallbacks: int = 0
    failures: int = 0
    outcomes: List[ShardOutcome] = field(default_factory=list)

    @property
    def failed_shards(self) -> List[ShardOutcome]:
        return [outcome for outcome in self.outcomes if outcome.error]

    def summary(self) -> str:
        parts = [
            f"{self.mode}: {self.shard_count} shards on {self.workers} workers"
        ]
        if self.retries:
            parts.append(f"{self.retries} retried")
        if self.fallbacks:
            parts.append(f"{self.fallbacks} fell back to serial")
        if self.failures:
            parts.append(f"{self.failures} FAILED")
        return ", ".join(parts)


def record_outcome(
    report: RuntimeReport, metrics: MetricsRegistry, task: ShardTask,
    result: ShardResult,
) -> None:
    """Book one finished shard: its ``runtime.shard.<i>`` span (busy time
    as the shard measured it), its ``runtime.shard_queries`` counter and
    its line of the run report."""
    index = task.shard_index
    metrics.observe_phase(f"runtime.shard.{index}", result.duration_s)
    metrics.counter("runtime.shard_queries", shard=index).inc(result.queries_run)
    report.outcomes.append(ShardOutcome(
        index=index, start=task.start, stop=task.stop,
        queries_run=result.queries_run, rows=result.rows_appended,
        duration_s=result.duration_s, attempts=result.attempts,
        fallback=result.fallback,
    ))


@contextmanager
def collector_paused():
    """Pause automatic cyclic garbage collection for the block.

    A dataset run allocates millions of objects but leaves almost no
    reference cycles, so every collection inside it rescans the parked
    world only to find it alive (12–22 % of ``nl-w2020`` in ``bench/``).  The
    collector is re-enabled on exit only if it was enabled on entry, so
    pauses nest and an exception restores the caller's state.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


@collector_paused()
def execute_shard_task(task: ShardTask) -> ShardResult:
    """Simulate one shard in the current process.

    This is the pool's target function (must stay module-level for
    pickling) and doubles as the serial-fallback entry point.  It pauses
    the collector itself: a spawned worker inherits no state from the
    :func:`~repro.sim.run_dataset` that started the pool.
    """
    if task.fault == FAULT_CRASH:
        raise RuntimeError(f"injected crash in shard {task.shard_index}")
    if task.fault == FAULT_HANG:
        time.sleep(_HANG_SECONDS)
    if task.fault == FAULT_EXIT:
        # Injected faults never reach the serial fallback (stripped there),
        # so this can only kill a pool worker, not the parent.
        os._exit(17)

    from ..sim.driver import simulate_shard

    return simulate_shard(task)


class ShardExecutor:
    """Process-pool shard execution with retry-then-serial-fallback.

    Usage: ``submit(tasks)`` starts the pool immediately (so callers can
    overlap their own work with the first wave), then ``collect()`` gathers
    results, applies the recovery policy, emits ``runtime.*`` telemetry
    into ``metrics``, and returns ``(results, report)`` with results in
    shard-index order.
    """

    def __init__(self, config: RunConfig, metrics: MetricsRegistry):
        self.config = config
        self.metrics = metrics
        self._pool: Optional[ProcessPoolExecutor] = None
        self._tasks: Dict[int, ShardTask] = {}
        self._futures: Dict[int, object] = {}
        self._submitted_at = 0.0

    def submit(self, tasks: Sequence[ShardTask]) -> None:
        if self._pool is not None:
            raise RuntimeError("executor already submitted")
        if not tasks:
            raise ValueError("no shard tasks to submit")
        workers = min(self.config.workers, len(tasks))
        self._pool = ProcessPoolExecutor(
            max_workers=workers, mp_context=pool_context()
        )
        self._submitted_at = time.perf_counter()
        for task in tasks:
            self._tasks[task.shard_index] = task
            self._futures[task.shard_index] = self._pool.submit(
                execute_shard_task, task
            )

    # -- collection -----------------------------------------------------------

    def _await_shard(self, index: int) -> Tuple[Optional[ShardResult], Optional[str], bool]:
        """(result, error, pool_broken) for one outstanding future."""
        future = self._futures[index]
        try:
            return future.result(timeout=SHARD_TIMEOUT_S), None, False
        except BrokenProcessPool as exc:
            return None, f"worker pool broken: {exc}", True
        except FutureTimeoutError:
            future.cancel()
            return None, f"shard timed out after {SHARD_TIMEOUT_S}s", False
        except Exception as exc:  # noqa: BLE001 — any worker failure is recoverable
            return None, f"{type(exc).__name__}: {exc}", False

    def collect(self) -> Tuple[List[ShardResult], RuntimeReport]:
        if self._pool is None:
            raise RuntimeError("nothing submitted")
        report = RuntimeReport(
            mode="process-pool",
            workers=min(self.config.workers, len(self._tasks)),
            shard_count=len(self._tasks),
        )
        results: Dict[int, ShardResult] = {}
        errors: Dict[int, str] = {}
        attempts: Dict[int, int] = {}
        pool_broken = False

        for index in sorted(self._futures):
            result, error, broken = self._await_shard(index)
            attempts[index] = 1
            pool_broken = pool_broken or broken
            if result is not None:
                results[index] = result
            else:
                errors[index] = error
                logger.warning("shard %d failed on pool: %s", index, error)

        # One retry round on the pool (skipped when the pool itself died).
        if errors and not pool_broken and RETRY_ON_POOL:
            retry_futures = {}
            for index in sorted(errors):
                try:
                    retry_futures[index] = self._pool.submit(
                        execute_shard_task, self._tasks[index]
                    )
                except BrokenProcessPool:
                    pool_broken = True
                    break
            for index, future in retry_futures.items():
                self.metrics.counter("runtime.shard_retries").inc()
                report.retries += 1
                attempts[index] += 1
                self._futures[index] = future
                result, error, broken = self._await_shard(index)
                pool_broken = pool_broken or broken
                if result is not None:
                    result.attempts = attempts[index]
                    results[index] = result
                    del errors[index]
                else:
                    errors[index] = error
                    logger.warning("shard %d failed on retry: %s", index, error)

        # Serial fallback in the parent process, with injected faults
        # stripped — a real crash/timeout cause may well not reproduce
        # in-process, and determinism guarantees the same rows either way.
        for index in sorted(errors):
            self.metrics.counter("runtime.shard_fallbacks").inc()
            report.fallbacks += 1
            attempts[index] += 1
            task = self._tasks[index]
            logger.warning(
                "shard %d: falling back to serial in-process execution", index
            )
            try:
                result = execute_shard_task(replace(task, fault=None))
            except Exception as exc:  # noqa: BLE001 — surface, don't crash
                self.metrics.counter("runtime.shard_failures").inc()
                report.failures += 1
                errors[index] = f"serial fallback failed: {type(exc).__name__}: {exc}"
                logger.error("shard %d failed serially: %s", index, errors[index])
                continue
            result.attempts = attempts[index]
            result.fallback = True
            results[index] = result
            del errors[index]

        wall = time.perf_counter() - self._submitted_at
        self._pool.shutdown(wait=False, cancel_futures=True)
        self._pool = None

        for index in sorted(self._tasks):
            task = self._tasks[index]
            if index in results:
                record_outcome(report, self.metrics, task, results[index])
            else:
                report.outcomes.append(ShardOutcome(
                    index=index, start=task.start, stop=task.stop,
                    attempts=attempts.get(index, 0), error=errors.get(index),
                ))
        busy = sum(result.duration_s for result in results.values())
        if wall > 0 and report.workers > 0:
            self.metrics.gauge("runtime.worker_utilization").set(
                min(1.0, busy / (report.workers * wall))
            )
        logger.info("runtime: %s", report.summary())
        return [results[i] for i in sorted(results)], report
