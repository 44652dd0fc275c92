"""Benchmark P6: tracing overhead (ISSUE 6).

Measures serial queries/sec with tracing off and with tracing on at the
1% default sample, on the same workload ``BENCH_hotpath.json`` uses, and
writes ``BENCH_observability.json`` next to this file.

Two things are scored:

* **overhead** — the tracing-on/tracing-off throughput ratio.  The
  disabled-path cost is one module-global load + ``is None`` test per
  instrumentation site, and at a 1% sample only ~1% of queries build
  event lists, so the ratio should stay near 1.  The assertion floor is
  deliberately loose (shared CI boxes), the recorded number is the
  trajectory to watch.
* **bit-identity** — the traced run's capture must equal the untraced
  run's byte for byte; observability that perturbs the simulation is a
  bug, not overhead.

Best-of-``REPEATS`` timing, same rationale as ``test_bench_hotpath``.
"""

import json
import os
import time

import numpy as np

from conftest import emit

from repro.config import resolve_scale
from repro.sim import run_dataset
from repro.workload import dataset

BENCH_OBSERVABILITY_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "BENCH_observability.json"
)

DATASET = "nl-w2020"
BASE_VOLUME = 8_000
SEED = 20201027
TRACE_SAMPLE = 0.01
REPEATS = 2

#: Loose floor for traced/untraced throughput: generous slack for noisy
#: shared runners; the acceptance target (within 2% of baseline) is what
#: the recorded ratio should show on a quiet box.
MIN_QPS_RATIO = 0.80


def _views_identical(a, b) -> bool:
    if len(a) != len(b):
        return False
    for name in a.__dataclass_fields__:
        x, y = getattr(a, name), getattr(b, name)
        if not np.array_equal(x, y, equal_nan=(name == "tcp_rtt_ms")):
            return False
    return True


def _timed_runs(descriptor, volume, trace):
    best_s, run = None, None
    for _ in range(REPEATS):
        started = time.perf_counter()
        run = run_dataset(
            descriptor, seed=SEED, client_queries=volume, workers=1,
            trace=trace,
        )
        elapsed = time.perf_counter() - started
        if best_s is None or elapsed < best_s:
            best_s = elapsed
    return best_s, run


def test_bench_observability():
    descriptor = dataset(DATASET)
    volume = max(2_000, int(BASE_VOLUME * resolve_scale()))

    # trace=0.0 (not None) so an ambient REPRO_TRACE can never leak into
    # the baseline measurement.
    off_s, off_run = _timed_runs(descriptor, volume, trace=0.0)
    on_s, on_run = _timed_runs(descriptor, volume, trace=TRACE_SAMPLE)

    identical = _views_identical(
        off_run.capture.view(), on_run.capture.view()
    )
    off_qps = volume / off_s
    on_qps = volume / on_s
    ratio = on_qps / off_qps

    payload = {
        "generated_unix": time.time(),
        "dataset": DATASET,
        "seed": SEED,
        "client_queries": volume,
        "cpu_cores": os.cpu_count() or 1,
        "trace_sample": TRACE_SAMPLE,
        "traces_collected": len(on_run.traces),
        "tracing_off_s": off_s,
        "tracing_off_queries_per_s": off_qps,
        "tracing_on_s": on_s,
        "tracing_on_queries_per_s": on_qps,
        "traced_qps_ratio": ratio,
        "qps_ratio_floor": MIN_QPS_RATIO,
        "captures_bit_identical": identical,
        "how_to_read": (
            "traced_qps_ratio is tracing-on throughput relative to tracing"
            "-off on the BENCH_hotpath workload; 1.0 = free. Captures must"
            " be bit-identical — tracing is an observer, never an input."
        ),
    }
    with open(BENCH_OBSERVABILITY_PATH, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")

    emit(
        f"observability: {DATASET} @ {volume} queries — tracing off "
        f"{off_qps:,.0f} q/s, on ({TRACE_SAMPLE:.0%} sample) {on_qps:,.0f} "
        f"q/s = {ratio:.3f}x, {len(on_run.traces)} traces collected, "
        f"captures identical: {identical}"
    )

    assert identical, "tracing perturbed the capture"
    assert len(on_run.traces) > 0, "no traces collected at a 1% sample"
    assert ratio >= MIN_QPS_RATIO, (
        f"tracing overhead too high: {ratio:.3f}x (floor {MIN_QPS_RATIO})"
    )
