"""Telemetry subsystem: registry semantics + pipeline integration."""

import json
import logging
from types import SimpleNamespace

import pytest

from repro.netsim import GAZETTEER, IPAddress
from repro.resolver import ResolverBehavior, SimResolver
from repro.server.rrl import RRLConfig
from repro.sim import run_dataset
from repro.sim.driver import publish_fleet_metrics, publish_server_metrics
from repro.telemetry import (
    MetricsRegistry,
    TelemetrySnapshot,
    configure_logging,
    format_summary,
    metric_key,
    split_key,
)
from repro.workload import dataset


class TestKeys:
    def test_plain_and_labelled(self):
        assert metric_key("a.b", {}) == "a.b"
        assert metric_key("a.b", {"x": 1, "w": "q"}) == "a.b{w=q,x=1}"

    def test_split_roundtrip(self):
        name, labels = split_key("a.b{w=q,x=1}")
        assert name == "a.b"
        assert labels == {"w": "q", "x": "1"}
        assert split_key("plain") == ("plain", {})


class TestCounterGauge:
    def test_counter_inc_and_identity(self):
        metrics = MetricsRegistry()
        counter = metrics.counter("hits", provider="Google")
        counter.inc()
        counter.inc(4)
        assert metrics.counter("hits", provider="Google") is counter
        snap = metrics.snapshot()
        assert snap.counter("hits", provider="Google") == 5
        assert snap.counter("hits", provider="Amazon") == 0

    def test_gauge_last_write_wins(self):
        metrics = MetricsRegistry()
        metrics.gauge("size").set(3)
        metrics.gauge("size").set(7.5)
        assert metrics.snapshot().gauges["size"] == 7.5


class TestHistogram:
    def test_bucket_assignment_upper_inclusive(self):
        metrics = MetricsRegistry()
        hist = metrics.histogram("h", buckets=(10.0, 100.0))
        for value in (0, 10, 11, 100, 101):
            hist.observe(value)
        # <=10 -> bucket 0, <=100 -> bucket 1, >100 -> overflow.
        assert hist.bucket_counts == [2, 2, 1]
        assert hist.count == 5
        assert hist.sum == 222.0
        assert hist.min == 0.0 and hist.max == 101.0

    def test_observe_many_and_bulk(self):
        metrics = MetricsRegistry()
        hist = metrics.histogram("h", buckets=(1.0, 2.0))
        for value in (0.5, 1.5, 3.0):
            hist.observe(value)
        hist.add_bulk([1, 0, 2], count=3, total=10.0, minimum=0.1, maximum=9.0)
        frozen = metrics.snapshot().histograms["h"]
        assert frozen["bucket_counts"] == [2, 1, 3]
        assert frozen["count"] == 6
        assert frozen["sum"] == 15.0
        assert frozen["min"] == 0.1 and frozen["max"] == 9.0

    def test_bad_bounds_rejected(self):
        with pytest.raises(ValueError):
            MetricsRegistry().histogram("h", buckets=(2.0, 1.0))
        hist = MetricsRegistry().histogram("h", buckets=(1.0, 2.0))
        with pytest.raises(ValueError):
            hist.add_bulk([1, 2], count=3, total=1.0, minimum=0, maximum=1)

    def test_rebucketing_same_name_rejected(self):
        metrics = MetricsRegistry()
        metrics.histogram("h", buckets=(1.0,))
        with pytest.raises(ValueError):
            metrics.histogram("h", buckets=(2.0,))


class TestPhases:
    def test_time_phase_accumulates(self):
        metrics = MetricsRegistry()
        for _ in range(3):
            with metrics.time_phase("resolve"):
                pass
        snap = metrics.snapshot()
        assert snap.phases["resolve"]["count"] == 3
        assert snap.phases["resolve"]["total_s"] >= 0.0
        assert snap.phases["resolve"]["max_s"] <= snap.phases["resolve"]["total_s"]
        assert metrics.phase_seconds("resolve") == snap.phase_seconds("resolve")

    def test_phase_records_despite_exception(self):
        metrics = MetricsRegistry()
        with pytest.raises(RuntimeError):
            with metrics.time_phase("boom"):
                raise RuntimeError("x")
        assert metrics.snapshot().phases["boom"]["count"] == 1


class TestSnapshot:
    def _sample(self):
        metrics = MetricsRegistry()
        metrics.counter("q", provider="Google").inc(10)
        metrics.counter("q", provider="Amazon").inc(4)
        metrics.gauge("g").set(2.5)
        metrics.histogram("h", buckets=(1.0,)).observe(0.5)
        with metrics.time_phase("p"):
            pass
        return metrics

    def test_total_and_by_label(self):
        snap = self._sample().snapshot()
        assert snap.total("q") == 14
        assert snap.counter("q", provider="Google") == 10
        assert snap.counter("q", provider="Amazon") == 4
        assert snap.counters == {"q{provider=Google}": 10, "q{provider=Amazon}": 4}

    def test_json_roundtrip(self, tmp_path):
        snap = self._sample().snapshot()
        path = tmp_path / "t.json"
        snap.write_json(str(path))
        data = json.loads(path.read_text())
        assert data["counters"]["q{provider=Google}"] == 10
        assert data["gauges"]["g"] == 2.5
        assert data["phases"]["p"]["count"] == 1
        assert data["histograms"]["h"]["bucket_counts"] == [1, 0]

    def test_diff(self):
        metrics = self._sample()
        before = metrics.snapshot()
        metrics.counter("q", provider="Google").inc(5)
        with metrics.time_phase("p"):
            pass
        delta = metrics.snapshot().diff(before)
        assert delta.counters == {"q{provider=Google}": 5}
        assert delta.phases["p"]["count"] == 1

    def test_merge_snapshot(self):
        session = MetricsRegistry()
        session.counter("q", provider="Google").inc(1)
        session.merge_snapshot(self._sample().snapshot())
        session.merge_snapshot(self._sample().snapshot())
        snap = session.snapshot()
        assert snap.counter("q", provider="Google") == 21
        assert snap.phases["p"]["count"] == 2
        assert snap.histograms["h"]["count"] == 2
        assert snap.gauges["g"] == 2.5

    def test_format_summary_renders_all_sections(self):
        text = format_summary(self._sample().snapshot(), title="x")
        assert "x: phases" in text and "x: counters" in text
        assert "q{provider=Google}" in text
        assert "max" in text  # phase line detail

    def test_format_summary_empty(self):
        text = format_summary(TelemetrySnapshot())
        assert "(no phases recorded)" in text
        assert "(no counters recorded)" in text


class TestLogging:
    def test_configure_is_idempotent(self):
        first = configure_logging(1)
        configure_logging(2)
        ours = [h for h in first.handlers if getattr(h, "_repro_handler", False)]
        assert len(ours) == 1
        assert first.level == logging.DEBUG
        configure_logging(0)
        assert logging.getLogger("repro").level == logging.WARNING


def _engine_resolver(behavior=None, seed=1):
    return SimResolver(
        "test-r",
        GAZETTEER["AMS"],
        IPAddress.parse("192.0.2.1"),
        IPAddress.parse("2001:db8::1"),
        behavior or ResolverBehavior(),
        seed=seed,
    )


class TestEngineCounters:
    """drops / tcp_retries / servfails are reachable and promoted."""

    def test_offline_server_drops_and_servfails(self, small_world):
        from repro.dnscore import Name, RRType

        network = small_world["network"]
        for server in network.root.servers:
            server.online = False
        resolver = _engine_resolver(ResolverBehavior(max_retries=1))
        resolver.resolve(network, 0.0, Name.from_text("example.org"), RRType.A)
        assert resolver.stats.drops > 0
        assert resolver.stats.servfails > 0

        metrics = MetricsRegistry()
        fake_fleet = [SimpleNamespace(provider="Test", resolver=resolver)]
        publish_fleet_metrics(metrics, fake_fleet)
        snap = metrics.snapshot()
        assert snap.counter("resolver.drops", provider="Test") == resolver.stats.drops
        assert (
            snap.counter("resolver.servfails", provider="Test")
            == resolver.stats.servfails
        )
        assert snap.total("resolver.sends") > 0

    def test_rrl_slip_forces_tcp_retry(self, latency):
        from repro.capture import CaptureStore
        from repro.dnscore import Name, RRType
        from repro.resolver import AuthorityNetwork, SyntheticLeafAuthority
        from repro.server import AuthoritativeServer, ServerSet
        from repro.zones import ZoneSpec, build_registry_zone, build_root_zone

        zone = build_registry_zone(ZoneSpec(origin="nl", second_level_count=5, seed=1))
        capture = CaptureStore()
        # slip=1: every rate-limited response is a TC=1 slip, which a
        # tcp_fallback resolver retries over TCP.
        server = AuthoritativeServer(
            "nl-rrl", zone, [GAZETTEER["AMS"]], capture=capture,
            rrl=RRLConfig(responses_per_second=0.0001, burst=1.0, slip=1),
        )
        nl_set = ServerSet([server], latency)
        root_set = ServerSet(
            [AuthoritativeServer("root-x", build_root_zone(seed=3),
                                 [GAZETTEER["LAX"]])],
            latency,
        )
        network = AuthorityNetwork(
            root=root_set,
            tlds={Name.from_text("nl"): nl_set},
            leaf=SyntheticLeafAuthority(),
        )
        resolver = _engine_resolver()
        for i in range(30):
            resolver.resolve(
                network, float(i) * 0.001,
                Name.from_text(f"junk-{i}.nl"), RRType.A,
            )
        assert resolver.stats.tcp_retries > 0
        assert server._limiter.stats.slipped > 0

        metrics = MetricsRegistry()
        publish_server_metrics(metrics, {"nl": nl_set, "root": root_set})
        snap = metrics.snapshot()
        assert snap.counter("rrl.slipped", server="nl-rrl") > 0
        assert snap.counter("server.queries", server="nl-rrl") > 0
        assert snap.total("server.responses") > 0

    def test_cache_hit_miss_counted(self, small_world):
        from repro.dnscore import Name, RRType
        from repro.zones import domains_of

        network = small_world["network"]
        name = domains_of(small_world["nl_zone"])[0]
        resolver = _engine_resolver()
        resolver.resolve(network, 0.0, name, RRType.A)
        assert resolver.stats.cache_misses > 0
        before_hits = resolver.stats.cache_hits
        resolver.resolve(network, 1.0, name, RRType.A)
        assert resolver.stats.cache_hits > before_hits


class TestRunDatasetIntegration:
    @pytest.fixture(scope="class")
    def run(self):
        return run_dataset(dataset("nz-w2018"), client_queries=600, seed=11)

    def test_snapshot_attached_with_phases(self, run):
        snap = run.telemetry
        assert snap is not None
        for phase in ("zone_build", "fleet_build", "workload", "resolve"):
            assert phase in snap.phases, phase
            assert snap.phases[phase]["total_s"] > 0.0
        # The member loop books each of its phases once per shard.
        shards = run.runtime_report.shard_count
        assert snap.phases["workload"]["count"] == snap.phases["resolve"]["count"] == shards

    def test_per_provider_sums_match_run(self, run):
        snap = run.telemetry
        assert snap.total("sim.client_queries") == run.client_queries_run
        assert snap.total("resolver.client_queries") == run.client_queries_run
        by_provider = {
            split_key(key)[1]["provider"]: value
            for key, value in snap.counters.items()
            if split_key(key)[0] == "sim.client_queries"
        }
        assert sum(by_provider.values()) == run.client_queries_run
        assert by_provider.get("Google", 0) > 0

    def test_capture_counters_match_store(self, run):
        snap = run.telemetry
        assert snap.counter("capture.rows_appended") == len(run.capture)
        hist = snap.histograms["capture.response_size_bytes"]
        assert hist["count"] == len(run.capture)
        assert sum(hist["bucket_counts"]) == hist["count"]

    def test_server_counters_cover_capture(self, run):
        snap = run.telemetry
        # Captured rows are a subset of all queries served (uncaptured
        # servers count queries but do not append rows).
        assert snap.total("server.queries") >= len(run.capture)
        assert snap.total("server.responses") == snap.total("server.queries")

    def test_merges_into_session_registry(self):
        session = MetricsRegistry()
        run = run_dataset(
            dataset("nz-w2018"), client_queries=300, seed=12, telemetry=session
        )
        snap = session.snapshot()
        assert snap.total("sim.client_queries") == run.client_queries_run
        assert "resolve" in snap.phases

    def test_cyclic_event_reaches_servfails(self):
        from repro.workload import monthly_google_descriptor

        descriptor = monthly_google_descriptor("nz", 2020, 2)  # cyclic event
        run = run_dataset(descriptor, client_queries=400, seed=13)
        assert run.telemetry.total("resolver.servfails") > 0


class TestExperimentContextTelemetry:
    def test_context_accumulates_and_reports_deltas(self):
        from repro.experiments import ExperimentContext, figure4
        from repro.experiments.render_all import instrumented

        ctx = ExperimentContext(scale=0.004, seed=5)
        report = instrumented(ctx, lambda: figure4.run_vantage(ctx, "nz"))
        assert report.wall_time_s is not None and report.wall_time_s > 0
        # The runs' shards fold their captures while simulating: the fold
        # is charged to this experiment's delta.
        assert report.counter_deltas.get("runtime.rows_folded", 0) > 0
        assert "telemetry: wall" in report.to_text()
        # A second, fully cached run moves no counters.
        cached = instrumented(ctx, lambda: figure4.run_vantage(ctx, "nz"))
        assert cached.counter_deltas == {}
        snap = ctx.telemetry.snapshot()
        assert snap.total("sim.client_queries") > 0
        # figure4 "nz" covers the three .nz yearly datasets, each cached
        # after the first instrumented run.  It reads folded state only, so
        # no parent-side attribution pass runs (shards attribute chunk by
        # chunk), and every captured row was folded once.
        assert snap.counter("analysis.attribution_passes") == 0
        assert snap.counter("runtime.rows_folded") == snap.total("capture.rows_appended") > 0
