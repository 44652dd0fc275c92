"""Tests for the observability layer: sampled per-query tracing and
Prometheus exposition.

Observability is an *observer* and must be invisible in the results:
that a traced run's capture, and its exported trace, are the same bytes
whatever the backend is pinned in ``test_oracle``.  This module holds the
sampling rule, what a trace records, the export's schema, the
Prometheus exposition and the CLI surface.
"""

import json
import struct
import zlib

import pytest

from repro.__main__ import main
from repro.config import RunConfig, TraceConfig
from repro.telemetry import (
    MetricsRegistry,
    QueryTracer,
    mix32,
    to_prometheus,
    write_prometheus,
)
from repro.sim import forget_worlds, run_dataset
from repro.workload import dataset

DATASET = "nz-w2018"
QUERIES = 700
SEED = 20201027
SAMPLE = 0.1

#: The only event names a trace records: each a function of the simulated
#: world, none of how the run was executed.
SIM_EVENTS = {
    "cache_hit", "cache_miss", "auth_exchange", "auth_timeout",
    "capture_append", "fault_drop", "fault_latency", "retry_exhausted",
    "rrl_limited", "stale_served",
}


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
        """``sampled()`` is the float rule ``mix32(crc32(seed_bytes +
        pack(i, s))) / 2**32 < sample``: the integer threshold it compares
        against changes no decision."""
        seed_bytes = struct.pack("<q", 7) + b"repro.trace"
        picks = [(i, s) for i in range(20) for s in range(20)]
        uniform = [
            mix32(zlib.crc32(seed_bytes + struct.pack("<qq", i, s))) / 2**32
            for i, s in picks
        ]
        assert all(0.0 <= value < 1.0 for value in uniform)
        for sample in (0.0, 0.1, 0.25, 0.5, 0.999):
            tracer = QueryTracer(sample, seed=7)
            assert [tracer.sampled(i, s) for i, s in picks] == [
                value < sample for value in uniform
            ]
        # Roughly uniform: the mean of 400 draws is near 1/2.
        assert 0.4 < sum(uniform) / len(uniform) < 0.6

    def test_sampling_is_pure_function_of_seed_index_seq(self):
        a = QueryTracer(0.25, seed=SEED)
        b = QueryTracer(0.25, seed=SEED)
        picks = [(i, s) for i in range(50) for s in range(20)]
        assert [a.sampled(i, s) for i, s in picks] == [
            b.sampled(i, s) for i, s in picks
        ]
        other = QueryTracer(0.25, seed=SEED + 1)
        assert [a.sampled(i, s) for i, s in picks] != [
            other.sampled(i, s) for i, s in picks
        ]

    def test_sample_one_traces_everything(self):
        tracer = QueryTracer(1.0, seed=1)
        assert all(tracer.sampled(i, s) for i in range(10) for s in range(10))

    def test_trace_config_validation(self):
        with pytest.raises(ValueError):
            TraceConfig(sample=1.5)
        with pytest.raises(ValueError):
            TraceConfig(sample=-0.1)
        assert TraceConfig().sample == 0.01
        assert list(TraceConfig.__dataclass_fields__) == ["sample"]

    def test_resolve_trace_config(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        resolve = lambda trace: RunConfig.resolve(trace=trace).trace
        assert resolve(None) is None
        assert resolve(0.0) is None
        assert resolve(0.25).sample == 0.25
        config = TraceConfig(sample=0.5)
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
        assert not hasattr(base_run, "timeseries")
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

    def test_pool_records_the_same_traces(self, traced_run, pooled_traced_run):
        """Not only the export (``test_oracle``): every recorded event is
        simulated, so the in-memory traces are the serial run's, event for
        event."""
        assert pooled_traced_run.traces.traces == traced_run.traces.traces

    def test_trace_contents_cover_the_lifecycle(self, traced_run):
        names = set()
        for trace in traced_run.traces.traces:
            assert trace["end"] >= trace["begin"]
            assert trace["rcode"] is not None
            for ts, name, dur, _args in trace["events"]:
                assert ts >= trace["begin"] and dur >= 0.0
                names.add(name)
        assert names <= SIM_EVENTS, names - SIM_EVENTS
        # Every sampled query misses the cold resolver cache and lands in
        # the capture; authoritative exchanges happen for the misses.
        assert {"cache_miss", "auth_exchange", "capture_append"} <= names


CHROME_EVENT_PHASES = {"X", "i", "M"}


class TestChromeTraceSchema:
    def test_payload_validates(self, traced_run):
        payload = traced_run.traces.to_chrome_trace()
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
            assert event["cat"] in ("query", "sim")
        assert set(payload) == {"traceEvents", "displayTimeUnit", "metadata"}
        assert "timeseries" not in payload

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
        assert f"traces to {trace_path}" in err
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
        trace_path = tmp_path / "trace.json"
        assert main([
            "dataset", DATASET, "--scale", "0.02",
            "--trace-out", str(trace_path),
        ]) == 0
        capsys.readouterr()
        payload = json.loads(trace_path.read_text())
        assert payload["metadata"]["sample"] == 0.3
        assert any(e.get("cat") == "query" for e in payload["traceEvents"])

    @pytest.mark.parametrize(
        "content", ["truncated", "not-json", "no-trace-events", "missing", "jsonl"]
    )
    def test_trace_reports_unreadable_files_as_usage_errors(
        self, capsys, tmp_path, content
    ):
        """Whatever is wrong with the file, ``repro trace`` says so in one
        ``repro: error:`` line naming it and exits 2 — no traceback."""
        path = tmp_path / ("old.jsonl" if content == "jsonl" else f"{content}.json")
        good = '{"traceEvents":[],"metadata":{}}\n'
        text = {
            "truncated": good[:17],
            "not-json": "ph,name,ts\nX,q,0\n",
            "no-trace-events": '{"displayTimeUnit":"ms"}\n',
            "jsonl": '{"record":"trace_begin","id":"0:0"}\n'
                     '{"record":"event","trace":"0:0"}\n',
        }.get(content)
        if text is not None:
            path.write_text(text)
        assert main(["trace", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"repro: error: {path}: ")

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
