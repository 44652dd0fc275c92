"""Compare two benchmark records, metric by metric and workload by workload.

    python3 bench/compare.py before.json after.json

Each file is what ``run.py`` writes: a matrix (``bench/out/result-*.json``)
or a self-check / baseline holding several matrices under ``runs``
(``bench/BASELINE.json``).  For every end-to-end metric x workload it prints
both medians, the relative change, the metric's bound and a verdict:

  ``better`` / ``worse``  the median moved past the bound
  ``within``              it did not
  ``unresolved``          one side's own run-to-run spread exceeds the bound,
                          or (time metrics) the machine's speed was too
                          uneven for the sampler to normalise

Per-layer metrics that moved by more than ``LAYER_CHANGE`` are listed under
each workload, so a reviewer can see which layer a claimed gain came from.
"""

from __future__ import annotations

import json
import statistics
import sys
from typing import Dict, List, Optional

import spec

#: ``harness.speed_spread`` (p90/p10 of the kernel times) above which time
#: metrics are not trusted.
SPEED_SPREAD_LIMIT = 3.0
#: Per-layer metrics are listed when they moved by more than this share.
LAYER_CHANGE = 0.05
TIME_METRICS = ("ref_us_per_op", "setup_s")


def load_runs(path: str) -> List[dict]:
    """The matrices a record holds (one for a plain result file)."""
    with open(path) as handle:
        record = json.load(handle)
    return record["runs"] if "runs" in record else [record]


def side(runs: List[dict], workload: str, group: str, name: str) -> Optional[dict]:
    """Median and own spread ((max - min) / median) of one metric over a
    side's runs; ``None`` when no run has it."""
    values = [
        run["workloads"][workload][group][name]
        for run in runs
        if name in run["workloads"].get(workload, {}).get(group, {})
    ]
    if not values:
        return None
    median = statistics.median(values)
    spread = (max(values) - min(values)) / median if median and len(values) > 1 else 0.0
    return {"median": median, "spread": spread, "runs": len(values)}


def verdict(
    name: str, before: dict, after: dict, bound: float,
    speed_spreads: List[float],
) -> str:
    """All end-to-end metrics are lower-is-better."""
    if before["spread"] > bound or after["spread"] > bound:
        return "unresolved"
    if name in TIME_METRICS and any(s > SPEED_SPREAD_LIMIT for s in speed_spreads):
        return "unresolved"
    change = (after["median"] - before["median"]) / before["median"]
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    return "within"


def compare(before_runs: List[dict], after_runs: List[dict]) -> List[dict]:
    rows = []
    for workload in spec.WORKLOADS:
        speed_spreads = [
            s["median"] for s in (
                side(runs, workload, "per_layer", "harness.speed_spread")
                for runs in (before_runs, after_runs)
            ) if s is not None
        ]
        for name, (unit, bound) in spec.END_TO_END.items():
            before = side(before_runs, workload, "end_to_end", name)
            after = side(after_runs, workload, "end_to_end", name)
            if before is None or after is None:
                continue
            rows.append({
                "workload": workload, "metric": name, "unit": unit,
                "before": before["median"], "after": after["median"],
                "change": (after["median"] - before["median"]) / before["median"],
                "bound": bound,
                "verdict": verdict(name, before, after, bound, speed_spreads),
            })
    return rows


def layer_changes(before_runs: List[dict], after_runs: List[dict]) -> Dict[str, list]:
    moved: Dict[str, list] = {}
    for workload in spec.WORKLOADS:
        for name in spec.PER_LAYER_UNITS:
            if name.startswith("harness."):
                continue
            before = side(before_runs, workload, "per_layer", name)
            after = side(after_runs, workload, "per_layer", name)
            if before is None or after is None or not before["median"]:
                continue
            change = (after["median"] - before["median"]) / before["median"]
            if abs(change) > LAYER_CHANGE:
                moved.setdefault(workload, []).append(
                    (name, before["median"], after["median"], change)
                )
    return moved


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    before_runs, after_runs = load_runs(argv[0]), load_runs(argv[1])
    rows = compare(before_runs, after_runs)
    moved = layer_changes(before_runs, after_runs)
    for workload in spec.WORKLOADS:
        print(f"== {workload}")
        for row in rows:
            if row["workload"] == workload:
                print(
                    f"  {row['metric']:<14} {row['before']:>12.6g} -> "
                    f"{row['after']:>12.6g} {row['unit']:<9} {row['change']:+8.2%}  "
                    f"bound {row['bound']:.0%}  {row['verdict']}"
                )
        for name, before, after, change in moved.get(workload, []):
            print(f"    {name:<44} {before:>12.5g} -> {after:>12.5g} {change:+8.1%}")
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
