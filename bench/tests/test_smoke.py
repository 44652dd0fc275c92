"""``--quick`` smoke of all four workloads (sizes that mean nothing, the
whole path exercised), and the bare-directory refusal."""

import json
import shutil
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import spec
from layers import LAYERS

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent


def _run(*args, cwd=ROOT, script=BENCH_DIR / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *args], cwd=cwd, capture_output=True,
        text=True, timeout=170,
    )


def test_quick_smoke_of_all_four_workloads_under_30_s():
    started = time.perf_counter()
    # Two at a time (the box has two cores): a smoke's timings mean nothing.
    with ThreadPoolExecutor(max_workers=2) as pool:
        runs = list(pool.map(
            lambda w: _run("--quick", "--workload", w, "--seed", "11", "--trace", "1"),
            spec.WORKLOADS,
        ))
    for done in runs:
        assert done.returncode == 0, done.stderr
        line = json.loads(done.stdout.strip().split("\n")[-1])
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0
        assert line["attempted"] >= 1
        assert set(line["metrics"]) == set(spec.PER_LAYER_UNITS)
        values = {name: cell["value"] for name, cell in line["metrics"].items()}
        shares = sum(values[f"{layer}.self_share"] for layer in LAYERS)
        assert abs(shares - 1.0) <= 0.001
        assert values["harness.trace_overhead_ratio"] > 1.0
        assert values["sim.environments_built"] >= 1
    assert time.perf_counter() - started < 30


def test_end_to_end_line_has_exactly_the_end_to_end_metrics():
    done = _run("--quick", "--workload", "serve_wire", "--seed", "12", "--trace", "0")
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.strip().split("\n")[-1])
    assert set(line["metrics"]) == set(spec.END_TO_END)
    for name, cell in line["metrics"].items():
        assert cell["unit"] == spec.END_TO_END[name][0] and cell["value"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = _run("--workload", "nl_cold", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path, script=tmp_path / "bench" / "run.py")
    assert done.returncode != 0
    assert done.stdout == ""
