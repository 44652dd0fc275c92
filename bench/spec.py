"""The benchmark's fixed vocabulary: workloads, metrics, units, bounds.

``BENCHMARK.json`` at the repository root is :func:`manifest` written out;
``bench/tests`` keeps the two in step.
"""

from __future__ import annotations

from typing import Dict, List

from layers import ENTRY_POINTS, LAYERS
from workloads import WHY

DEFAULT_SEED = 20201027
#: Seconds of timed repetitions per run (``--seconds`` default).
RUN_SECONDS = 8

#: Fewest timed repetitions per run, whatever ``--seconds`` says.
MIN_REPS = {"full": 3, "quick": 1}

WORKLOADS = tuple(WHY)

#: name -> (unit, regression bound as a share of the parent's median).
#: All four are "lower is better".  Each bound is about three times the worst
#: seed-to-seed spread measured on the 2-vCPU reference box (README.md).
END_TO_END = {
    "ref_us_per_op": ("us", 0.20),
    "calls_per_op": ("calls/op", 0.04),
    "peak_rss_mb": ("MB", 0.10),
    "setup_s": ("s", 0.25),
}

AGGREGATORS = (
    "provider_shares", "rrtype_mix", "junk", "transport", "google_split",
    "edns", "summary", "inventory", "qmin", "sovereignty", "composition",
)

_HIGHER = "higher"
_LOWER = "lower"


def _per_layer() -> List[Dict[str, str]]:
    rows: List[Dict[str, str]] = []

    def add(name: str, unit: str, better: str = _LOWER) -> None:
        rows.append({"name": name, "unit": unit, "better": better})

    for layer in LAYERS:
        add(f"{layer}.self_share", "share")
        add(f"{layer}.calls_per_op", "calls/op")
    for name in ENTRY_POINTS:
        add(f"{name}.incl_share", "share")
        add(f"{name}.calls_per_op", "calls/op")
    add("server.plan_cache_hit_ratio", "ratio", _HIGHER)
    add("resolver.cache_hit_ratio", "ratio", _HIGHER)
    add("resolver.auth_queries_per_client_query", "ratio")
    add("capture.rows_per_client_query", "ratio")
    add("sim.environments_built", "count")
    add("capture.spool_bytes_per_row", "B/row")
    add("capture.spool_chunks", "count")
    add("analysis.sketch_heavy_hitters", "count")
    add("capture.spool_write_share", "share")
    add("capture.spool_read_share", "share")
    add("analysis.attribute_share", "share")
    add("analysis.fold_share", "share")
    add("analysis.finalize_share", "share")
    for aggregator in AGGREGATORS:
        add(f"analysis.feed.{aggregator}_share", "share")
    add("service.handle_p50_us", "us")
    add("service.handle_p99_us", "us")
    add("service.hit_share", "share", _HIGHER)
    add("service.miss_share", "share")
    add("service.formerr_share", "share")
    add("service.tcp_share", "share")
    add("service.loop_rtt_p50_us", "us")
    add("service.loop_overhead_us", "us")
    add("harness.wall_s", "s")
    add("harness.cpu_s", "s")
    add("harness.speed_index", "ratio")
    add("harness.speed_spread", "ratio")
    add("harness.samples", "count", _HIGHER)
    add("harness.loadavg_1m", "count")
    add("harness.trace_overhead_ratio", "ratio")
    return rows


PER_LAYER = _per_layer()
PER_LAYER_UNITS = {row["name"]: row["unit"] for row in PER_LAYER}


def manifest() -> dict:
    """The content of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": WHY[name]} for name in WORKLOADS],
        "end_to_end": [
            {"name": name, "unit": unit, "better": _LOWER, "bound": bound}
            for name, (unit, bound) in END_TO_END.items()
        ],
        "per_layer": PER_LAYER,
    }
