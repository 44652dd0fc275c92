"""Schema check for committed benchmark artefacts.

Every ``benchmarks/BENCH_*.json`` is a machine-read perf record that CI
and later sessions compare against; a malformed or key-stripped artefact
would silently break those comparisons.  This guard asserts each file
parses and carries the shared contract keys (``dataset`` naming the
simulated workload, ``generated_unix`` timestamping the run) — the
session-telemetry roll-up (``BENCH_telemetry.json``) is the one artefact
keyed by session rather than dataset and is only held to the timestamp.
"""

import glob
import json
import os

import pytest

BENCH_DIR = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), os.pardir, "benchmarks"
)

#: Keys every per-benchmark artefact must carry.
REQUIRED_KEYS = ("dataset", "generated_unix")

#: Artefacts keyed by session, not by a single dataset.
SESSION_LEVEL = {"BENCH_telemetry.json"}

#: Extra contract keys for the chaos-soak benchmark: CI and later
#: sessions trend graceful-degradation behaviour from these.
RESILIENCE_KEYS = (
    "offered_qps",
    "admission_qps",
    "deadline_ms",
    "shed_ratio",
    "answered_or_graceful",
    "p50_ms",
    "p99_ms",
    "breaker_opened",
    "breaker_closed",
)

#: Extra contract keys for the sovereignty/composition benchmark: CI and
#: later sessions trend aggregator fold throughput and the headline
#: jurisdiction/taxonomy cuts from these.
SOVEREIGNTY_KEYS = (
    "workers",
    "queries",
    "rows",
    "sovereignty_rows_per_s",
    "composition_rows_per_s",
    "countries_observed",
    "five_eyes_query_share",
    "five_eyes_cloud_share",
    "eu_query_share",
    "noerror_share",
    "chromium_probe_share",
    "heavy_hitters_tracked",
    "cm_error_bound",
    "cm_confidence",
)


def bench_paths():
    return sorted(glob.glob(os.path.join(BENCH_DIR, "BENCH_*.json")))


def test_benchmark_artifacts_exist():
    names = {os.path.basename(path) for path in bench_paths()}
    assert {"BENCH_hotpath.json", "BENCH_parallel.json",
            "BENCH_streaming.json", "BENCH_resilience.json",
            "BENCH_sovereignty.json"} <= names


@pytest.mark.parametrize(
    "path", bench_paths(), ids=[os.path.basename(p) for p in bench_paths()]
)
def test_benchmark_artifact_schema(path):
    with open(path) as handle:
        data = json.load(handle)
    assert isinstance(data, dict), f"{path}: top level must be an object"

    generated = data.get("generated_unix")
    assert isinstance(generated, (int, float)) and generated > 0, (
        f"{path}: generated_unix must be a positive unix timestamp"
    )

    if os.path.basename(path) in SESSION_LEVEL:
        return
    dataset = data.get("dataset")
    assert isinstance(dataset, str) and dataset, (
        f"{path}: dataset must name the simulated workload"
    )

    if os.path.basename(path) == "BENCH_resilience.json":
        for key in RESILIENCE_KEYS:
            value = data.get(key)
            assert isinstance(value, (int, float)), (
                f"{path}: {key} must be numeric"
            )
        assert 0.0 <= data["shed_ratio"] <= 1.0, (
            f"{path}: shed_ratio must be a fraction"
        )
        assert 0.0 <= data["answered_or_graceful"] <= 1.0, (
            f"{path}: answered_or_graceful must be a fraction"
        )
        slos = data.get("slos")
        assert isinstance(slos, dict) and slos, (
            f"{path}: slos must record the per-SLO verdicts"
        )

    if os.path.basename(path) == "BENCH_sovereignty.json":
        for key in SOVEREIGNTY_KEYS:
            value = data.get(key)
            assert isinstance(value, (int, float)), (
                f"{path}: {key} must be numeric"
            )
        for key in (
            "five_eyes_query_share",
            "five_eyes_cloud_share",
            "eu_query_share",
            "noerror_share",
            "chromium_probe_share",
            "cm_confidence",
        ):
            assert 0.0 <= data[key] <= 1.0, f"{path}: {key} must be a fraction"
        assert data["workers"] >= 2, (
            f"{path}: the committed artefact must come from a pooled "
            f"(workers >= 2) streaming run"
        )
