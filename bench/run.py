"""The benchmark: four workloads, speed-normalised time, exact call counts.

    python3 bench/run.py                       # the whole matrix, every metric
    python3 bench/run.py --selfcheck           # matrix twice, differences vs bounds
    python3 bench/run.py --update-goldens      # regenerate bench/goldens.json
    python3 bench/run.py --workload nl_cold --seed 7 --seconds 8 --trace 0

The last form is the one-run contract of BENCHMARK.json: the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``).

This process only orchestrates: every measurement happens in a fresh child
(``child.py``) with ``REPRO_*`` scrubbed from the environment,
``PYTHONHASHSEED=0`` and a private cwd/``TMPDIR`` under ``bench/out/``.
Nothing outside the checkout is read or written.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
GOLDENS_PATH = BENCH_DIR / "goldens.json"

import sampler  # noqa: E402  (script dir is on sys.path)
import spec  # noqa: E402
from spans import Spans  # noqa: E402
from workloads import REFOLD_STAGE_METRICS, WORLDS  # noqa: E402

#: Every child of one run must finish inside this (the contract allows 180 s).
RUN_DEADLINE_S = 170.0


class BenchError(RuntimeError):
    """The run cannot produce a result (a child failed or timed out)."""


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


#: Ambient Python settings a child must not inherit.
_SCRUBBED = ("PYTHONPATH", "PYTHONSTARTUP", "PYTHONDONTWRITEBYTECODE")


def clean_env(tmp: str) -> Dict[str, str]:
    """The child's environment: nothing that steers ``repro``
    (``REPRO_*``, ``PYTHONPATH``), a fixed hash seed, a private TMPDIR, and
    bytecode caching always on, under ``bench/out/`` — whatever the caller's
    shell says, so that the import inside ``setup_s`` costs the same
    everywhere (the first run in a checkout compiles; later ones do not)."""
    env = {
        key: value for key, value in os.environ.items()
        if not key.startswith("REPRO_") and key not in _SCRUBBED
    }
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPYCACHEPREFIX"] = str(OUT_DIR / "pycache")
    env["TMPDIR"] = tmp
    return env


class Run:
    """One workload run: its scratch directory, deadline and spans."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool, size: str):
        self.workload, self.seconds = workload, seconds
        #: ``requested_seed`` is the caller's; ``seed`` is what the program
        #: gets (see ``workloads.usable_seed``).
        self.requested_seed = self.seed = seed
        self.trace, self.size = trace, size
        self.started = time.perf_counter()
        self.dir = OUT_DIR / f"run-{os.getpid()}-{workload}-{seed}"
        self.spans = Spans(workload)
        self.children = 0

    def __enter__(self) -> "Run":
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        return self

    def __exit__(self, *exc) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)

    def child(self, mode: str, seconds: float = 0.0) -> dict:
        """Run one fresh child to completion and return its JSON."""
        self.children += 1
        tmp = self.dir / f"child-{self.children}"
        tmp.mkdir()
        out = tmp / "result.json"
        command = [
            sys.executable, str(BENCH_DIR / "child.py"), self.workload, mode,
            "--seed", str(self.seed), "--seconds", str(seconds),
            "--trace", str(int(self.trace)), "--size", self.size,
            "--tmp", str(tmp), "--out", str(out),
            "--process", f"child-{self.children}",
        ]
        if self.trace:
            command += ["--artefacts", str(OUT_DIR)]
        remaining = RUN_DEADLINE_S - (time.perf_counter() - self.started)
        try:
            with self.spans.span(f"child:{mode}"):
                done = subprocess.run(
                    command, cwd=tmp, env=clean_env(str(tmp)),
                    timeout=max(1.0, remaining), stdout=subprocess.DEVNULL,
                    stderr=subprocess.PIPE, text=True,
                )
        except subprocess.TimeoutExpired:
            raise BenchError(f"{self.workload}/{mode}: child exceeded the run deadline")
        if done.returncode != 0:
            raise BenchError(
                f"{self.workload}/{mode}: child exited {done.returncode}\n"
                + done.stderr[-2000:]
            )
        with open(out) as handle:
            result = json.load(handle)
        shutil.rmtree(tmp, ignore_errors=True)
        self.spans.rows.extend(result.pop("spans", []))
        return result


def collect(run: Run) -> dict:
    """Run the workload's children; returns the measuring child's record
    plus every digest it produced."""
    if WORLDS[run.workload]:
        run.seed = run.child("probe")["seed"]
    raw = run.child("measure", run.seconds)
    raw["digests"] = (
        [raw["warmup"]["digest"]]
        + [rep["digest"] for rep in raw["reps"]]
        + [raw["traced"]["digest"]]
    )
    return raw


def load_goldens() -> dict:
    with open(GOLDENS_PATH) as handle:
        return json.load(handle)


def expected_digest(run: Run, digests: List[str], goldens: Optional[dict]) -> str:
    """The golden for the default seed at full size; for any other input
    every repetition must agree with the first."""
    if goldens is not None and run.requested_seed == spec.DEFAULT_SEED and run.size == "full":
        return goldens["digests"][run.workload]
    return digests[0]


def assemble(run: Run, raw: dict, goldens: Optional[dict]) -> dict:
    """Raw child records -> the run's result: verdict, counts, metrics."""
    reps, traced = raw["reps"], raw["traced"]
    with run.spans.span("digest-check"):
        expected = expected_digest(run, raw["digests"], goldens)
        attempted = sum(rep["ops"] for rep in reps) + traced["ops"]
        failed = raw["warmup"]["failed"]
        for record in reps + [traced]:
            failed += record["ops"] if record["digest"] != expected else record["failed"]
        correct = failed == 0 and all(digest == expected for digest in raw["digests"])

    ops = sum(rep["ops"] for rep in reps)
    end_to_end = {
        "ref_us_per_op": statistics.median(
            rep["ref_s"] / rep["ops"] * 1e6 for rep in reps
        ),
        "calls_per_op": traced["total_calls"] / traced["ops"],
        "peak_rss_mb": raw["peak_rss_mb"],
        "setup_s": raw["setup"]["ref_s"],
    }
    result = {
        "workload": run.workload, "seed": run.requested_seed,
        "program_seed": run.seed, "size": run.size,
        "correct": correct, "attempted": attempted, "failed": failed,
        "digest": raw["digests"][0], "repetitions": len(reps), "timed_ops": ops,
        "end_to_end": end_to_end,
    }
    if run.trace:
        per_layer = dict.fromkeys(spec.PER_LAYER_UNITS, 0.0)
        per_layer.update(traced["layers"])
        per_layer.update(raw["counts"])
        per_layer.update(raw["extras"])
        stage_total = sum(raw["stages"].values())
        for stage, seconds in raw["stages"].items():
            per_layer[REFOLD_STAGE_METRICS[stage]] = seconds / stage_total
        cpu_s = sum(rep["cpu_s"] for rep in reps)
        per_layer.update({
            "harness.wall_s": sum(rep["wall_s"] for rep in reps),
            "harness.cpu_s": cpu_s,
            "harness.speed_index": raw["speed"]["speed_index"],
            "harness.speed_spread": raw["speed"]["speed_spread"],
            "harness.samples": float(sum(rep["samples"] for rep in reps)),
            "harness.loadavg_1m": os.getloadavg()[0],
            "harness.trace_overhead_ratio": (
                (traced["cpu_s"] / traced["ops"]) / (cpu_s / ops) if cpu_s else 0.0
            ),
        })
        unknown = set(per_layer) - set(spec.PER_LAYER_UNITS)
        if unknown:
            raise BenchError(f"metrics missing from spec.PER_LAYER: {sorted(unknown)}")
        result["per_layer"] = per_layer
    return result


def run_workload(
    workload: str, seed: int, seconds: float, trace: bool, size: str = "full",
    goldens: Optional[dict] = None,
) -> dict:
    with Run(workload, seed, seconds, trace, size) as run:
        raw = collect(run)
        result = assemble(run, raw, goldens)
        if trace:
            with open(OUT_DIR / f"{workload}-{seed}-spans.json", "w") as handle:
                json.dump(run.spans.rows, handle)
    return result


# -- reporting -------------------------------------------------------------------


def contract_line(result: dict, trace: bool) -> str:
    """The one JSON object the benchmark contract asks for."""
    if trace:
        metrics = {
            name: {"value": value, "unit": spec.PER_LAYER_UNITS[name]}
            for name, value in result["per_layer"].items()
        }
    else:
        metrics = {
            name: {"value": value, "unit": spec.END_TO_END[name][0]}
            for name, value in result["end_to_end"].items()
        }
    return json.dumps({
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"], "metrics": metrics,
    })


def host_header() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        from importlib.metadata import version

        numpy_version = version("numpy")
    except Exception:  # metadata backends raise their own error types
        numpy_version = "unknown"
    commit = "unknown"
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True,
        )
        if done.returncode == 0:
            commit = done.stdout.strip()
    return {
        "cpu_model": model, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy_version,
        "commit": commit, "kernel_version": sampler.KERNEL_VERSION,
        "c_ref_s": sampler.C_REF, "run_seconds": spec.RUN_SECONDS,
        "bytecode_caching": "on, under bench/out/pycache",
    }


def print_result(result: dict) -> None:
    """Every metric by name, with unit and (end-to-end) bound."""
    print(
        f"== {result['workload']} (seed {result['seed']}): "
        f"{'correct' if result['correct'] else 'INCORRECT'}, "
        f"{result['attempted']} ops attempted, {result['failed']} failed, "
        f"{result['repetitions']} timed repetitions"
    )
    for name, value in result["end_to_end"].items():
        unit, bound = spec.END_TO_END[name]
        print(f"  {name:<44} {value:>14.6g} {unit:<9} bound {bound}")
    for name, value in result.get("per_layer", {}).items():
        print(f"  {name:<44} {value:>14.6g} {spec.PER_LAYER_UNITS[name]}")


def run_matrix(seed: int, seconds: float, size: str, goldens: Optional[dict]) -> dict:
    results = {}
    for workload in spec.WORKLOADS:
        log(f"running {workload} ...")
        results[workload] = run_workload(workload, seed, seconds, True, size, goldens)
        print_result(results[workload])
    return {"host": host_header(), "seed": seed, "size": size, "workloads": results}


def selfcheck(seed: int, seconds: float, size: str, goldens: Optional[dict]) -> int:
    """The matrix twice on the same code: every end-to-end metric must
    repeat within its own bound."""
    first = run_matrix(seed, seconds, size, goldens)
    second = run_matrix(seed, seconds, size, goldens)
    worst = 0
    rows = []
    print("== selfcheck: relative difference of run 2 vs run 1")
    for workload in spec.WORKLOADS:
        a, b = first["workloads"][workload], second["workloads"][workload]
        for name, (unit, bound) in spec.END_TO_END.items():
            before, after = a["end_to_end"][name], b["end_to_end"][name]
            change = abs(after - before) / before
            verdict = "ok" if change <= bound else "PAST BOUND"
            worst += change > bound
            rows.append({
                "workload": workload, "metric": name, "first": before,
                "second": after, "difference": change, "bound": bound,
            })
            print(
                f"  {workload:<14} {name:<14} {before:>12.6g} {after:>12.6g} {unit:<9}"
                f" diff {change:7.4f}  bound {bound}  {verdict}"
            )
        raw = [r["per_layer"]["harness.cpu_s"] / r["timed_ops"] for r in (a, b)]
        print(
            f"  {workload:<14} raw harness.cpu_s/op differs by "
            f"{abs(raw[1] - raw[0]) / raw[0]:.4f} (not a metric: shown for contrast)"
        )
    path = OUT_DIR / f"selfcheck-{seed}.json"
    with open(path, "w") as handle:
        json.dump({"host": first["host"], "seed": seed, "runs": [first, second],
                   "differences": rows}, handle, indent=1, sort_keys=True)
    print(f"wrote {path.relative_to(ROOT)}")
    correct = all(
        r["correct"] for m in (first, second) for r in m["workloads"].values()
    )
    return 0 if correct and not worst else 1


def update_goldens(seconds: float) -> int:
    digests = {}
    for workload in spec.WORKLOADS:
        log(f"running {workload} ...")
        result = run_workload(workload, spec.DEFAULT_SEED, seconds, False)
        if not result["correct"]:
            log(f"{workload}: repetitions disagree with each other; goldens not written")
            return 1
        digests[workload] = result["digest"]
    with open(GOLDENS_PATH, "w") as handle:
        json.dump({"seed": spec.DEFAULT_SEED, "digests": digests}, handle, indent=1)
        handle.write("\n")
    print(f"wrote {GOLDENS_PATH.relative_to(ROOT)}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=spec.WORKLOADS)
    parser.add_argument("--seed", type=int, default=spec.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="smoke sizes (no goldens; numbers mean nothing)")
    parser.add_argument("--selfcheck", action="store_true")
    parser.add_argument("--update-goldens", action="store_true")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        log(f"no program to measure: {ROOT / 'src' / 'repro'} is missing")
        return 2
    size = "quick" if args.quick else "full"
    seconds = args.seconds
    if seconds is None:
        seconds = 1.0 if args.quick else float(spec.RUN_SECONDS)
    OUT_DIR.mkdir(exist_ok=True)
    try:
        if args.update_goldens:
            return update_goldens(seconds)
        goldens = load_goldens()
        if args.selfcheck:
            return selfcheck(args.seed, seconds, size, goldens)
        if args.workload is None:
            matrix = run_matrix(args.seed, seconds, size, goldens)
            path = OUT_DIR / f"result-{args.seed}.json"
            with open(path, "w") as handle:
                json.dump(matrix, handle, indent=1, sort_keys=True)
            print(f"wrote {path.relative_to(ROOT)}")
            return 0 if all(r["correct"] for r in matrix["workloads"].values()) else 1
        result = run_workload(
            args.workload, args.seed, seconds, bool(args.trace), size, goldens
        )
    except BenchError as error:
        log(f"benchmark failed: {error}")
        return 1
    print(contract_line(result, bool(args.trace)))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
