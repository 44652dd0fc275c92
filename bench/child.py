"""One fresh measuring process.  ``run.py`` starts it with a scrubbed
environment (no ``REPRO_*``, ``PYTHONHASHSEED=0``, private cwd + ``TMPDIR``)
and reads the JSON it writes to ``--out``.

Modes:
  ``probe``      which seed at or after ``--seed`` the workload's worlds build from
  ``measure``    set-up, timed repetitions for ``--seconds``, then one
                 repetition under cProfile (and, traced, the extra passes)

Timed regions run in this process's main thread under the reference-speed
sampler; the profiler never runs inside one.
"""

from __future__ import annotations

import argparse
import cProfile
import importlib
import json
import os
import pstats
import resource
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"

from sampler import Region, Sampler, speed_summary  # noqa: E402  (script dir is on sys.path)
from spans import Spans  # noqa: E402


def region_record(region: Region, cpu_s: float) -> dict:
    """A timed region as JSON.  ``cpu_s`` is the process CPU time over the
    region scaled by the share of its wall time the workload (not the
    calibration kernel) had."""
    kernel_s = sum(region.kernel_times())
    busy = region.wall_s + kernel_s
    return {
        "ref_s": region.ref_s,
        "wall_s": region.wall_s,
        "cpu_s": cpu_s * region.wall_s / busy if busy else 0.0,
        "samples": region.samples,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def profiled(call):
    """Run ``call()`` under cProfile; returns (result, profile, CPU seconds)."""
    profile = cProfile.Profile()
    cpu0 = time.process_time()
    profile.enable()
    try:
        result = call()
    finally:
        profile.disable()
    cpu_s = time.process_time() - cpu0
    return result, profile, cpu_s


def traced_record(profile, ops: int, cpu_s: float, args) -> dict:
    import layers

    stats = pstats.Stats(profile).stats
    record = {
        "ops": ops,
        "total_calls": layers.total_calls(stats),
        "cpu_s": cpu_s,
    }
    if args.trace:
        record["layers"] = layers.layer_metrics(stats, ops)
        if args.artefacts:
            profile.dump_stats(
                os.path.join(args.artefacts, f"{args.workload}-{args.seed}.pstats")
            )
    return record


def measure(args) -> dict:
    from spec import MIN_REPS
    from workloads import SIZES, WORKLOADS

    workload = WORKLOADS[args.workload]()
    size = SIZES[args.workload][args.size]
    spans = Spans(args.workload, process=args.process)
    sampler = Sampler()
    sampler.start()

    cpu0 = time.process_time()
    begin = sampler.mark()
    with spans.span("setup"):
        with spans.span("import"):
            for module in workload.modules:
                importlib.import_module(module)
        with spans.span("build"):
            state = workload.build(args.seed, size, args.tmp)
        with spans.span("warmup"):
            warmup = workload.rep(state)
    end = sampler.mark()
    setup = region_record(sampler.region(begin, end), time.process_time() - cpu0)

    reps, kernel_times, stages = [], [], {}
    deadline = time.perf_counter() + args.seconds
    while len(reps) < MIN_REPS[args.size] or time.perf_counter() < deadline:
        cpu0 = time.process_time()
        begin = sampler.mark()
        with spans.span("rep"):
            rep = workload.rep(state)
        end = sampler.mark()
        region = sampler.region(begin, end)
        record = region_record(region, time.process_time() - cpu0)
        record.update(ops=rep.ops, failed=rep.failed, digest=rep.digest)
        reps.append(record)
        kernel_times.extend(region.kernel_times())
        for stage, seconds in rep.stages.items():
            stages[stage] = stages.get(stage, 0.0) + seconds
    rss_mb = peak_rss_mb()
    sampler.stop()

    with spans.span("traced"):
        rep, profile, cpu_s = profiled(lambda: workload.traced_rep(state))
    traced = traced_record(profile, rep.ops, cpu_s, args)
    traced.update(failed=rep.failed, digest=rep.digest)

    extras = {}
    if args.trace:
        with spans.span("extras"):
            extras = workload.extras(state)
    counts = workload.counts(state)
    workload.close(state)
    return {
        "setup": setup,
        "warmup": {"ops": warmup.ops, "failed": warmup.failed, "digest": warmup.digest},
        "reps": reps,
        "stages": stages,
        "peak_rss_mb": rss_mb,
        "traced": traced,
        "extras": extras,
        "counts": counts,
        "speed": speed_summary(kernel_times),
        "spans": spans.rows,
    }


def probe(args) -> dict:
    from workloads import usable_seed

    return {"seed": usable_seed(args.workload, args.seed)}


MODES = {"probe": probe, "measure": measure}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("workload")
    parser.add_argument("mode", choices=sorted(MODES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--size", choices=("full", "quick"), default="full")
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--process", default="child")
    parser.add_argument("--artefacts", default=None)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC_DIR))
    started = time.perf_counter()
    result = MODES[args.mode](args)
    result["child_wall_s"] = time.perf_counter() - started
    with open(args.out, "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
