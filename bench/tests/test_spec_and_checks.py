import json
import re
from pathlib import Path

import compare
import run
import spec
from workloads import canonical, normalise_markdown

ROOT = Path(__file__).resolve().parent.parent.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


def test_benchmark_json_is_the_spec_written_out():
    with open(ROOT / "BENCHMARK.json") as handle:
        assert json.load(handle) == spec.manifest()


def test_manifest_stays_inside_the_contract():
    manifest = spec.manifest()
    assert set(manifest) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert 2 <= len(manifest["workloads"]) <= 8
    assert 1 <= len(manifest["end_to_end"]) <= 16
    assert 1 <= len(manifest["per_layer"]) <= 128
    assert 1 <= manifest["run_seconds"] <= 60
    names = [row["name"] for key in ("workloads", "end_to_end", "per_layer")
             for row in manifest[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for row in manifest["end_to_end"] + manifest["per_layer"]:
        assert UNIT.match(row["unit"]) and row["better"] in ("lower", "higher")
    assert all(0 < row["bound"] <= 0.25 for row in manifest["end_to_end"])
    assert all(len(row["why"]) <= 200 and "\n" not in row["why"]
               for row in manifest["workloads"])
    setup = [row for row in manifest["end_to_end"] if row["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(r["bound"] for r in manifest["end_to_end"])}]
    assert len(json.dumps(manifest)) < 64 * 1024


def test_goldens_cover_every_workload():
    goldens = run.load_goldens()
    assert goldens["seed"] == spec.DEFAULT_SEED
    assert set(goldens["digests"]) == set(spec.WORKLOADS)


def test_markdown_normalisation_strips_only_the_wall_time_lines():
    markdown = "\n".join([
        "# EXPERIMENTS", "* simulation scale: 0.03", "* total wall time: 12s",
        "```", "== table5: x ==", "metric  1  2", "telemetry: wall 0.31s; a +1",
        "note: telemetry: is fine mid-line", "```",
    ])
    kept = normalise_markdown(markdown).split("\n")
    assert "* total wall time: 12s" not in kept
    assert not any(line.startswith("telemetry: ") for line in kept)
    assert "note: telemetry: is fine mid-line" in kept
    assert len(kept) == 7
    other = markdown.replace("12s", "99s").replace("0.31s", "7.5s")
    assert normalise_markdown(other) == normalise_markdown(markdown)


def test_canonical_state_ignores_container_order():
    a = {"b": {3, 1, 2}, "a": (1, 2.5, None), ("k", 1): {"y": 1, "x": 2}}
    b = {("k", 1): {"x": 2, "y": 1}, "a": (1, 2.5, None), "b": {2, 3, 1}}
    assert json.dumps(canonical(a)) == json.dumps(canonical(b))
    assert canonical({"a": {1}}) != canonical({"a": {2}})


def test_environment_scrubbing(monkeypatch):
    monkeypatch.setenv("REPRO_VECTOR", "1")
    monkeypatch.setenv("REPRO_WORKERS", "4")
    monkeypatch.setenv("PYTHONPATH", "/somewhere/else")
    monkeypatch.setenv("PYTHONHASHSEED", "random")
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    monkeypatch.setenv("HOME", "/home/someone")
    env = run.clean_env("/tmp/private")
    assert not [key for key in env if key.startswith("REPRO_")]
    assert "PYTHONPATH" not in env and "PYTHONDONTWRITEBYTECODE" not in env
    assert env["PYTHONPYCACHEPREFIX"].endswith("bench/out/pycache")
    assert env["PYTHONHASHSEED"] == "0"
    assert env["TMPDIR"] == "/tmp/private"
    assert env["HOME"] == "/home/someone"


def _matrix(ref, calls, speed_spread=1.5):
    return {"workloads": {w: {
        "end_to_end": {"ref_us_per_op": ref, "calls_per_op": calls,
                       "peak_rss_mb": 100.0, "setup_s": 2.0},
        "per_layer": {"harness.speed_spread": speed_spread, "dnscore.self_share": 0.3},
    } for w in spec.WORKLOADS}}


def _verdicts(before, after, metric):
    return {row["verdict"] for row in compare.compare(before, after)
            if row["metric"] == metric}


def test_compare_verdicts():
    base = [_matrix(100.0, 500.0)]
    assert _verdicts(base, [_matrix(101.0, 500.0)], "ref_us_per_op") == {"within"}
    assert _verdicts(base, [_matrix(130.0, 500.0)], "ref_us_per_op") == {"worse"}
    assert _verdicts(base, [_matrix(60.0, 500.0)], "ref_us_per_op") == {"better"}
    assert _verdicts(base, [_matrix(100.0, 550.0)], "calls_per_op") == {"worse"}
    # a side whose own runs disagree by more than the bound resolves nothing
    noisy = [_matrix(100.0, 500.0), _matrix(140.0, 500.0)]
    assert _verdicts(noisy, [_matrix(60.0, 500.0)], "ref_us_per_op") == {"unresolved"}
    # an erratic machine voids time metrics, not counts
    erratic = [_matrix(60.0, 400.0, speed_spread=4.0)]
    assert _verdicts(base, erratic, "ref_us_per_op") == {"unresolved"}
    assert _verdicts(base, erratic, "calls_per_op") == {"better"}
