"""Tests for the observability layer (ISSUE 6): sampled per-query
tracing, the flight recorder, and Prometheus exposition.

The contract under test mirrors the hot-path caches' one: observability
is an *observer* and must be invisible in the results — captures stay
bit-identical with tracing off or on, serially, on a pool, and under a
chaos plan — while the trace artefacts themselves are deterministic
(same bytes across repeat runs and across worker counts).
"""

import json
import struct
from dataclasses import replace

import numpy as np
import pytest

from repro.__main__ import main
from repro.config import RunConfig
from repro.faults import chaos_scenario
from repro.telemetry import (
    FlightRecorder,
    MetricsRegistry,
    QueryTracer,
    TraceBuffer,
    TraceConfig,
    hash_uniform,
    mix32,
    read_trace_file,
    split_key,
    summarize_trace_file,
    to_prometheus,
    write_prometheus,
)
from repro.sim import forget_worlds, run_dataset
from repro.workload import dataset

DATASET = "nz-w2018"
QUERIES = 700
SEED = 20201027
SAMPLE = 0.1


def assert_views_equal(a, b):
    assert len(a) == len(b)
    for name in a.__dataclass_fields__:
        x, y = getattr(a, name), getattr(b, name)
        equal_nan = name == "tcp_rtt_ms"
        assert np.array_equal(x, y, equal_nan=equal_nan), f"column {name} differs"


def chrome_bytes(run):
    return json.dumps(
        run.traces.to_chrome_trace(run.timeseries),
        sort_keys=True, separators=(",", ":"),
    )


@pytest.fixture(scope="module")
def descriptor():
    return dataset(DATASET)


@pytest.fixture(scope="module")
def base_run(descriptor):
    """Tracing off — the reference capture.  ``trace=0.0`` (not None) so
    an ambient ``REPRO_TRACE`` (the CI trace-smoke lane sets one) cannot
    leak into the baseline.  Both this run and ``traced_run`` start from
    a cold world store, so both publish the same ``runtime.env_cache.*``
    keys whatever the process ran before."""
    forget_worlds()
    return run_dataset(descriptor, seed=SEED, client_queries=QUERIES, trace=0.0)


@pytest.fixture(scope="module")
def traced_run(descriptor):
    forget_worlds()
    return run_dataset(
        descriptor, seed=SEED, client_queries=QUERIES, trace=SAMPLE
    )


@pytest.fixture(scope="module")
def pooled_traced_run(descriptor):
    return run_dataset(
        descriptor, seed=SEED, client_queries=QUERIES, workers=2, trace=SAMPLE
    )


class TestHashSampling:
    def test_mix32_avalanches_and_stays_32bit(self):
        seen = {mix32(i) for i in range(1024)}
        assert len(seen) == 1024  # the finalizer is a bijection
        assert all(0 <= v <= 0xFFFFFFFF for v in seen)

    def test_hash_uniform_range_and_determinism(self):
        seed = struct.pack("<q", 7) + b"repro.trace"
        values = [
            hash_uniform(seed, struct.pack("<qq", i, j))
            for i in range(20) for j in range(20)
        ]
        assert all(0.0 <= v < 1.0 for v in values)
        assert values == [
            hash_uniform(seed, struct.pack("<qq", i, j))
            for i in range(20) for j in range(20)
        ]
        # Roughly uniform: the mean of 400 draws is near 1/2.
        assert 0.4 < sum(values) / len(values) < 0.6

    def test_sampling_is_pure_function_of_seed_index_seq(self):
        config = TraceConfig(sample=0.25)
        a = QueryTracer(config, seed=SEED, dataset_id="x")
        b = QueryTracer(config, seed=SEED, dataset_id="y", base_ts=123.0)
        picks = [(i, s) for i in range(50) for s in range(20)]
        assert [a.sampled(i, s) for i, s in picks] == [
            b.sampled(i, s) for i, s in picks
        ]
        other = QueryTracer(config, seed=SEED + 1, dataset_id="x")
        assert [a.sampled(i, s) for i, s in picks] != [
            other.sampled(i, s) for i, s in picks
        ]

    def test_sample_one_traces_everything(self):
        tracer = QueryTracer(TraceConfig(sample=1.0), seed=1, dataset_id="d")
        assert all(tracer.sampled(i, s) for i in range(10) for s in range(10))

    def test_trace_config_validation(self):
        with pytest.raises(ValueError):
            TraceConfig(sample=1.5)
        with pytest.raises(ValueError):
            TraceConfig(sample=-0.1)
        with pytest.raises(ValueError):
            TraceConfig(sample=0.5, window_s=0.0)

    def test_resolve_trace_config(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        resolve = lambda trace: RunConfig.resolve(trace=trace).trace
        assert resolve(None) is None
        assert resolve(0.0) is None
        assert resolve(0.25).sample == 0.25
        config = TraceConfig(sample=0.5, window_s=60.0)
        assert resolve(config) is config
        assert resolve(TraceConfig(sample=0.0)) is None
        monkeypatch.setenv("REPRO_TRACE", "0.125")
        assert resolve(None).sample == 0.125
        assert resolve(0.25).sample == 0.25
        monkeypatch.setenv("REPRO_TRACE", "2.0")
        with pytest.raises(ValueError):
            resolve(None)


class TestCaptureBitIdentity:
    """Tracing must never perturb the simulated world."""

    def test_serial_capture_identical(self, base_run, traced_run):
        assert_views_equal(base_run.capture.view(), traced_run.capture.view())

    def test_pooled_capture_identical(self, base_run, pooled_traced_run):
        assert_views_equal(
            base_run.capture.view(), pooled_traced_run.capture.view()
        )

    def test_chaos_capture_identical(self, descriptor):
        chaos = replace(descriptor, fault_plan=chaos_scenario("flaky-server"))
        off = run_dataset(chaos, seed=SEED, client_queries=QUERIES, trace=0.0)
        on = run_dataset(chaos, seed=SEED, client_queries=QUERIES, trace=SAMPLE)
        assert_views_equal(off.capture.view(), on.capture.view())
        assert len(on.traces) > 0

    def test_tracing_does_not_switch_execution_path(self, base_run, traced_run):
        """One resolve loop: a traced run takes the same path as an
        untraced one, so both publish the same ``runtime.*`` counters."""
        def runtime_counters(run):
            return {
                key for key in run.telemetry.counters if key.startswith("runtime.")
            }

        assert runtime_counters(base_run)
        assert runtime_counters(base_run) == runtime_counters(traced_run)

    def test_untraced_run_has_no_observability_payloads(self, base_run):
        assert base_run.traces is None
        assert base_run.timeseries is None
        assert base_run.telemetry.total("trace.queries_sampled") == 0


class TestTraceDeterminism:
    def test_some_queries_sampled(self, traced_run):
        count = len(traced_run.traces)
        assert 0 < count < QUERIES
        # Near the nominal rate (hash-uniform, so binomial-ish bounds).
        assert QUERIES * SAMPLE * 0.4 < count < QUERIES * SAMPLE * 2.5

    def test_sampled_counter_matches_buffer(self, traced_run):
        assert traced_run.telemetry.total("trace.queries_sampled") == len(
            traced_run.traces
        )

    def test_pool_samples_the_same_queries(self, traced_run, pooled_traced_run):
        assert [t["id"] for t in traced_run.traces.traces] == [
            t["id"] for t in pooled_traced_run.traces.traces
        ]

    def test_chrome_export_identical_across_worker_counts(
        self, traced_run, pooled_traced_run
    ):
        assert chrome_bytes(traced_run) == chrome_bytes(pooled_traced_run)

    def test_chrome_export_identical_across_runs(self, descriptor, traced_run):
        again = run_dataset(
            descriptor, seed=SEED, client_queries=QUERIES, trace=SAMPLE
        )
        assert chrome_bytes(traced_run) == chrome_bytes(again)

    def test_streaming_run_produces_same_observability(
        self, descriptor, traced_run
    ):
        streamed = run_dataset(
            descriptor, seed=SEED, client_queries=QUERIES, stream=True,
            trace=SAMPLE,
        )
        assert chrome_bytes(streamed) == chrome_bytes(traced_run)
        assert streamed.timeseries == traced_run.timeseries

    def test_trace_contents_cover_the_lifecycle(self, traced_run):
        names = set()
        for trace in traced_run.traces.traces:
            assert trace["end"] >= trace["begin"]
            assert trace["rcode"] is not None
            for ts, cat, name, dur, _args in trace["events"]:
                assert cat in ("sim", "runtime")
                names.add(name)
        # Every sampled query misses the cold resolver cache and lands in
        # the capture; authoritative exchanges happen for the misses.
        assert {"cache_miss", "auth_exchange", "capture_append"} <= names


CHROME_EVENT_PHASES = {"X", "i", "M"}


class TestChromeTraceSchema:
    def test_payload_validates(self, traced_run):
        payload = traced_run.traces.to_chrome_trace(traced_run.timeseries)
        assert isinstance(payload["traceEvents"], list)
        assert payload["traceEvents"], "no events exported"
        assert payload["displayTimeUnit"] == "ms"
        meta = payload["metadata"]
        assert meta["dataset"] == DATASET
        assert meta["seed"] == SEED
        assert meta["traces"] == len(traced_run.traces)
        for event in payload["traceEvents"]:
            assert event["ph"] in CHROME_EVENT_PHASES
            assert isinstance(event["pid"], int)
            assert isinstance(event["tid"], int)
            if event["ph"] == "M":
                assert event["name"] in ("process_name", "thread_name")
                assert "name" in event["args"]
                continue
            assert isinstance(event["ts"], int)
            assert event["ts"] >= 0
            if event["ph"] == "X":
                assert isinstance(event["dur"], int)
                assert event["dur"] >= 1
            else:
                assert event["s"] == "t"
        assert "timeseries" in payload

    def test_runtime_events_excluded_by_default(self, traced_run):
        payload = traced_run.traces.to_chrome_trace()
        cats = {e.get("cat") for e in payload["traceEvents"]}
        assert "runtime" not in cats
        with_runtime = traced_run.traces.to_chrome_trace(include_runtime=True)
        assert len(with_runtime["traceEvents"]) >= len(payload["traceEvents"])

    def test_timestamps_rebased_to_window_start(self, descriptor, traced_run):
        payload = traced_run.traces.to_chrome_trace()
        starts = [
            e["ts"] for e in payload["traceEvents"] if e["ph"] != "M"
        ]
        # Rebased to the capture-window start: offsets are window-sized
        # (a day is 86.4e9 us), not epoch-sized (2020 ~ 1.6e15 us).
        assert min(starts) >= 0
        assert max(starts) < (descriptor.duration + 3600) * 1e6

    def test_event_cap_bounds_trace_size(self):
        from repro.telemetry.tracing import MAX_EVENTS_PER_TRACE, QueryTrace

        trace = QueryTrace("0:0", 0, 0, "r", "P", "q.nl.", 1, begin=0.0)
        for i in range(MAX_EVENTS_PER_TRACE + 25):
            trace.event(float(i), "e")
        assert len(trace.events) == MAX_EVENTS_PER_TRACE
        assert trace.events_dropped == 25
        assert trace.last_ts == float(MAX_EVENTS_PER_TRACE + 24)


class TestJsonlExport:
    def test_round_trip(self, traced_run, tmp_path):
        path = tmp_path / "trace.jsonl"
        assert traced_run.traces.write(str(path)) == "jsonl"
        records = [
            json.loads(line) for line in path.read_text().splitlines()
        ]
        begins = [r for r in records if r["record"] == "trace_begin"]
        events = [r for r in records if r["record"] == "event"]
        assert len(begins) == len(traced_run.traces)
        assert len(begins) + len(events) == len(records)
        ids = {b["id"] for b in begins}
        assert all(e["trace"] in ids for e in events)

    def test_summary_reads_both_formats(self, traced_run, tmp_path):
        chrome = tmp_path / "trace.json"
        jsonl = tmp_path / "trace.jsonl"
        assert traced_run.traces.write(
            str(chrome), timeseries=traced_run.timeseries
        ) == "chrome"
        traced_run.traces.write(str(jsonl))
        for path in (chrome, jsonl):
            data = read_trace_file(str(path))
            assert len(data["queries"]) == len(traced_run.traces)
            assert "auth_exchange" in data["phases"]
            text = summarize_trace_file(str(path), top=3)
            assert "slowest 3 sampled queries" in text
            assert "per-phase critical path" in text


class TestFlightRecorder:
    def test_run_totals_match_capture(self, traced_run):
        ts = traced_run.timeseries
        assert ts is not None
        assert ts.family_total("capture.rows") == len(traced_run.capture)
        assert ts.family_total("sim.client_queries") == (
            traced_run.client_queries_run
        )
        assert ts.family_total("capture.responses") == len(traced_run.capture)

    def test_series_are_windowed_rates(self, traced_run):
        ts = traced_run.timeseries
        name, labels = split_key(sorted(ts.keys())[0])
        points = ts.series(name, **labels)
        assert points
        for window_start, count, rate in points:
            assert count >= 1
            assert rate == pytest.approx(count / ts.window_s)
            assert window_start % ts.window_s == 0

    def test_dict_round_trip(self, traced_run):
        ts = traced_run.timeseries
        clone = FlightRecorder.from_dict(ts.as_dict())
        assert clone == ts
        assert clone.as_dict() == ts.as_dict()

    def test_merge_rejects_window_mismatch(self):
        a = FlightRecorder(window_s=60.0)
        b = FlightRecorder(window_s=30.0)
        with pytest.raises(ValueError):
            a.merge(b)


class TestPrometheusExposition:
    def test_run_snapshot_renders(self, traced_run):
        text = to_prometheus(traced_run.telemetry)
        assert "# TYPE repro_capture_rows_appended_total counter" in text
        assert "repro_resolver_client_queries_total{" in text
        assert 'provider="Google"' in text
        assert "# TYPE repro_sim_fleet_size gauge" in text
        assert "# TYPE repro_phase_seconds_total counter" in text
        assert text.endswith("\n")

    def test_histogram_buckets_are_cumulative(self, traced_run):
        text = to_prometheus(traced_run.telemetry)
        lines = [
            line for line in text.splitlines()
            if line.startswith("repro_capture_response_size_bytes_bucket")
        ]
        assert lines, "histogram missing from exposition"
        counts = [float(line.rsplit(" ", 1)[1]) for line in lines]
        assert counts == sorted(counts)
        assert lines[-1].startswith(
            'repro_capture_response_size_bytes_bucket{le="+Inf"}'
        )
        count_line = next(
            line for line in text.splitlines()
            if line.startswith("repro_capture_response_size_bytes_count")
        )
        assert counts[-1] == float(count_line.rsplit(" ", 1)[1])

    def test_label_escaping(self):
        metrics = MetricsRegistry()
        metrics.counter("odd.metric", label='quo"te\\back\nline').inc(3)
        text = to_prometheus(metrics.snapshot())
        assert 'label="quo\\"te\\\\back\\nline"' in text

    def test_write_prometheus(self, traced_run, tmp_path):
        path = tmp_path / "metrics.prom"
        write_prometheus(traced_run.telemetry, str(path))
        content = path.read_text()
        assert content == to_prometheus(traced_run.telemetry)


class TestObservabilityCLI:
    def test_trace_out_and_summary(self, capsys, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        trace_path = tmp_path / "trace.json"
        metrics_path = tmp_path / "metrics.prom"
        assert main([
            "dataset", DATASET, "--scale", "0.02",
            "--trace-out", str(trace_path),
            "--trace-sample", "0.5",
            "--metrics-out", str(metrics_path),
        ]) == 0
        err = capsys.readouterr().err
        assert "wrote Prometheus metrics" in err
        assert "traces (chrome)" in err
        payload = json.loads(trace_path.read_text())
        assert payload["traceEvents"]
        assert payload["metadata"]["sample"] == 0.5
        assert metrics_path.read_text().startswith("# HELP repro_")

        assert main(["trace", str(trace_path), "--top", "4"]) == 0
        out = capsys.readouterr().out
        assert "slowest 4 sampled queries" in out
        assert "auth_exchange" in out

    def test_trace_out_alone_implies_default_sample(
        self, capsys, tmp_path, monkeypatch
    ):
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        trace_path = tmp_path / "trace.json"
        assert main([
            "dataset", DATASET, "--scale", "0.02",
            "--trace-out", str(trace_path),
        ]) == 0
        capsys.readouterr()
        payload = json.loads(trace_path.read_text())
        assert payload["metadata"]["sample"] == 0.01

    def test_env_default_enables_tracing(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", "0.3")
        trace_path = tmp_path / "trace.jsonl"
        assert main([
            "dataset", DATASET, "--scale", "0.02",
            "--trace-out", str(trace_path),
        ]) == 0
        err = capsys.readouterr().err
        assert "traces (jsonl)" in err
        records = [
            json.loads(line)
            for line in trace_path.read_text().splitlines()
        ]
        assert any(r["record"] == "trace_begin" for r in records)

    def test_simulating_commands_share_the_flag_surface(self, capsys):
        """Satellite audit: dataset and experiments expose the same
        observability/simulation flags with identical help text."""
        shared = [
            "--scale", "--seed", "--telemetry-out", "--metrics-out",
            "--trace-out", "--trace-sample", "--workers", "--chaos",
            "--chaos-seed", "--stream", "--spool-dir",
        ]
        helps = {}
        for command in ("dataset", "experiments"):
            with pytest.raises(SystemExit):
                main([command, "--help"])
            helps[command] = capsys.readouterr().out
        for flag in shared:
            for command, text in helps.items():
                assert flag in text, f"{command} missing {flag}"
        # Identical wording for flags whose semantics match exactly.
        def entry(text, flag):
            """The whitespace-normalised help entry for one option."""
            lines = text.splitlines()
            start = next(
                i for i, line in enumerate(lines)
                if line.strip().startswith(flag + " ")
                or line.strip() == flag
            )
            block = [lines[start]]
            for line in lines[start + 1:]:
                if not line.strip() or line.lstrip().startswith("--"):
                    break
                block.append(line)
            return " ".join(" ".join(block).split())

        for flag in ("--telemetry-out", "--metrics-out", "--trace-out",
                     "--trace-sample", "--workers", "--chaos", "--stream"):
            entries = {entry(text, flag) for text in helps.values()}
            assert len(entries) == 1, f"help text drifted for {flag}: {entries}"
