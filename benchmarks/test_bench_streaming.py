"""Benchmark: streaming capture spool vs in-memory row shipping.

Runs one dataset through the pooled runtime at a base volume and at 4x
that volume, in both execution modes, each in a **fresh interpreter** so
``ru_maxrss`` reflects that run alone.  Records peak parent RSS and
end-to-end throughput in ``BENCH_streaming.json``.

What the numbers must show (the streaming tentpole's acceptance):

* **sublinear parent memory** — in-memory mode ships every raw row tuple
  to the parent and materialises the full view, so its peak RSS grows
  with volume; streaming mode ships constant-size aggregate states plus
  chunk paths, so its RSS *growth* between 1x and 4x must stay well below
  the in-memory growth;
* **throughput parity** — folding chunks into aggregates while spooling
  must not cost more than 15% of in-memory q/s at the 4x volume.

RSS deltas on tiny volumes are runner noise, so the memory assertion is
gated on the in-memory growth actually being measurable (≥ MIN_DELTA_KB).
"""

import json
import os
import subprocess
import sys
import time

from conftest import emit

from repro.config import resolve_scale

BENCH_STREAMING_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "BENCH_streaming.json"
)
SRC_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
)

DATASET = "nl-w2020"
WORKERS = 2
BASE_VOLUME = 6_000
SCALE_FACTOR = 4
#: Below this in-memory RSS growth the 1x/4x difference is allocator
#: noise, not signal; the sublinearity assertion only fires above it.
MIN_DELTA_KB = 4_096
#: Streaming throughput floor relative to in-memory (acceptance: ≤15% hit).
MIN_QPS_RATIO = 0.85

#: Child workload: one pooled dataset run + its headline analysis, then
#: report peak RSS of *this* (parent) process — worker RSS is charged to
#: RUSAGE_CHILDREN, which is exactly the separation being measured.
CHILD_SCRIPT = r"""
import json, resource, sys, time

mode, volume, workers = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])

from repro.analysis import Attributor, DatasetAnalytics
from repro.clouds import PROVIDERS
from repro.sim import run_dataset
from repro.workload import dataset

start = time.perf_counter()
run = run_dataset(
    dataset("%(dataset)s"), client_queries=volume, workers=workers,
    stream=(mode == "stream"),
)
if mode == "stream":
    analytics = DatasetAnalytics(run.aggregates)
else:
    view = run.capture.view()
    analytics = DatasetAnalytics.over(
        view, Attributor(run.registry, PROVIDERS).attribute(view)
    )
summary = analytics.dataset_summary()
shares = analytics.provider_shares(PROVIDERS)
elapsed = time.perf_counter() - start

print(json.dumps({
    "mode": mode,
    "queries": volume,
    "rows": len(run.capture),
    "resolvers": summary.resolvers,
    "cloud_share": float(sum(shares.values())),
    "elapsed_s": elapsed,
    "qps": volume / elapsed,
    "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
}))
""" % {"dataset": DATASET}


def run_child(mode: str, volume: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_PATH
    env.pop("REPRO_STREAM", None)  # the child's mode comes from argv only
    proc = subprocess.run(
        [sys.executable, "-c", CHILD_SCRIPT, mode, str(volume), str(WORKERS)],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_bench_streaming_memory_and_throughput():
    base = max(1_000, int(BASE_VOLUME * resolve_scale()))
    big = base * SCALE_FACTOR

    results = {
        (mode, volume): run_child(mode, volume)
        for mode in ("memory", "stream")
        for volume in (base, big)
    }

    # Same simulation either way: identical captured row counts.
    for volume in (base, big):
        assert results[("memory", volume)]["rows"] == results[("stream", volume)]["rows"]
        assert results[("memory", volume)]["cloud_share"] == results[("stream", volume)]["cloud_share"]

    mem_delta_kb = (
        results[("memory", big)]["peak_rss_kb"]
        - results[("memory", base)]["peak_rss_kb"]
    )
    stream_delta_kb = (
        results[("stream", big)]["peak_rss_kb"]
        - results[("stream", base)]["peak_rss_kb"]
    )
    qps_ratio = results[("stream", big)]["qps"] / results[("memory", big)]["qps"]

    if mem_delta_kb >= MIN_DELTA_KB:
        memory_assertion = (
            f"asserted: stream RSS growth < 0.5x in-memory growth "
            f"({stream_delta_kb} KB vs {mem_delta_kb} KB)"
        )
    else:
        memory_assertion = (
            f"skipped: in-memory growth {mem_delta_kb} KB is below the "
            f"{MIN_DELTA_KB} KB noise floor at this scale"
        )

    payload = {
        "generated_unix": time.time(),
        "dataset": DATASET,
        "workers": WORKERS,
        "base_queries": base,
        "scaled_queries": big,
        "runs": {f"{mode}@{volume}": r for (mode, volume), r in results.items()},
        "parent_rss_growth_kb": {
            "memory": mem_delta_kb,
            "stream": stream_delta_kb,
        },
        "memory_assertion": memory_assertion,
        "stream_qps_ratio": qps_ratio,
        "qps_ratio_floor": MIN_QPS_RATIO,
    }
    with open(BENCH_STREAMING_PATH, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")

    emit(
        f"streaming runtime: {DATASET} @ {base}->{big} queries, "
        f"{WORKERS} workers — parent RSS growth: in-memory "
        f"{mem_delta_kb} KB vs streaming {stream_delta_kb} KB; "
        f"streaming q/s = {qps_ratio:.2f}x in-memory ({memory_assertion})"
    )

    if mem_delta_kb >= MIN_DELTA_KB:
        assert stream_delta_kb < 0.5 * mem_delta_kb, (
            f"streaming parent RSS grew {stream_delta_kb} KB between {base} and "
            f"{big} queries — expected < half the in-memory growth of "
            f"{mem_delta_kb} KB"
        )
    assert qps_ratio >= MIN_QPS_RATIO, (
        f"streaming throughput is {qps_ratio:.2f}x in-memory at {big} queries "
        f"(floor {MIN_QPS_RATIO})"
    )
