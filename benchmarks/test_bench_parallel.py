"""Benchmark P1: the sharded parallel runtime vs the serial driver.

Times one dataset simulation serially and with a 4-worker process pool,
verifies the two captures are bit-identical (the runtime's core
guarantee), and records the timings plus per-shard telemetry in
``BENCH_parallel.json`` next to this file.

The speedup assertion is gated on the machine actually having cores to
parallelise over — on a 1-core CI runner the pool legitimately cannot
beat serial (it still must produce identical results, which *is*
asserted unconditionally).
"""

import json
import os
import time

import numpy as np

from conftest import emit

from repro.config import resolve_scale
from repro.sim import run_dataset
from repro.workload import dataset

BENCH_PARALLEL_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "BENCH_parallel.json"
)

DATASET = "nl-w2020"
WORKERS = 4
BASE_VOLUME = 20_000


def _views_identical(a, b) -> bool:
    if len(a) != len(b):
        return False
    for name in a.__dataclass_fields__:
        x, y = getattr(a, name), getattr(b, name)
        if not np.array_equal(x, y, equal_nan=(name == "tcp_rtt_ms")):
            return False
    return True


def test_bench_parallel_speedup():
    descriptor = dataset(DATASET)
    volume = max(2_000, int(BASE_VOLUME * resolve_scale()))

    started = time.perf_counter()
    serial = run_dataset(descriptor, client_queries=volume, workers=1)
    serial_s = time.perf_counter() - started

    started = time.perf_counter()
    pooled = run_dataset(descriptor, client_queries=volume, workers=WORKERS)
    pool_s = time.perf_counter() - started

    assert _views_identical(serial.capture.view(), pooled.capture.view())
    report = pooled.runtime_report
    assert report.mode == "process-pool"
    assert report.failures == 0

    speedup = serial_s / pool_s if pool_s > 0 else 0.0
    cores = os.cpu_count() or 1
    if cores >= 4:
        speedup_assertion = "asserted: speedup > 1.5"
    elif cores >= 2:
        speedup_assertion = "asserted: speedup > 1.1"
    else:
        speedup_assertion = (
            "skipped: single-core machine — the speedup number below is NOT "
            "a regression signal, a 1-core box cannot beat serial"
        )
    telemetry = pooled.telemetry.as_dict()
    payload = {
        "generated_unix": time.time(),
        "dataset": DATASET,
        "client_queries": volume,
        "workers": WORKERS,
        "shards": report.shard_count,
        # cpu_cores leads the timing block: every number below it is only
        # meaningful relative to the cores the run actually had.
        "cpu_cores": cores,
        "speedup_assertion": speedup_assertion,
        "serial_s": serial_s,
        "parallel_s": pool_s,
        "speedup": speedup,
        "worker_utilization": telemetry["gauges"].get("runtime.worker_utilization"),
        "per_shard": {
            "phases": {
                name: stat for name, stat in telemetry["phases"].items()
                if name.startswith("runtime.")
            },
            "counters": {
                name: value for name, value in telemetry["counters"].items()
                if name.startswith("runtime.")
            },
            "outcomes": [
                {
                    "index": outcome.index,
                    "members": [outcome.start, outcome.stop],
                    "queries_run": outcome.queries_run,
                    "rows": outcome.rows,
                    "duration_s": outcome.duration_s,
                    "attempts": outcome.attempts,
                }
                for outcome in report.outcomes
            ],
        },
    }
    with open(BENCH_PARALLEL_PATH, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")

    emit(
        f"parallel runtime: {DATASET} @ {volume} queries — "
        f"serial {serial_s:.2f}s vs {WORKERS} workers {pool_s:.2f}s "
        f"({speedup:.2f}x on {cores} cores; {speedup_assertion})"
    )
    if cores >= 4:
        assert speedup > 1.5, f"expected >1.5x on {cores} cores, got {speedup:.2f}x"
    elif cores >= 2:
        assert speedup > 1.1, f"expected >1.1x on {cores} cores, got {speedup:.2f}x"
