"""Tests for the sharded parallel execution engine (``repro.runtime``).

``run_dataset(..., workers=N)`` must produce the capture the serial path
does for any ``N`` (pinned in ``test_oracle``) — including when shards
crash or hang and the runtime recovers via retry / serial fallback, which
is what this module drives, beside the planner, the apportionment and
the executor's bookkeeping.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.capture import CaptureSpool, CaptureStore, SpooledCapture
from repro.capture.schema import QueryRecord, Transport
from repro import config as run_config
from repro.config import RunConfig
from repro.netsim import IPAddress
from repro.runtime import ShardExecutor, ShardTask, plan_shards
from repro.sim import member_query_counts, run_dataset
from repro.telemetry import MetricsRegistry
from repro.workload import dataset

from .helpers import assert_views_equal, view_digest
from .test_oracle import CASES, ORACLE

DATASET = "nz-w2018"


class TestPlanner:
    def test_shards_are_contiguous_and_cover_fleet(self):
        plan = plan_shards([1.0] * 10, 3)
        assert len(plan) == 3
        assert plan.shards[0].start == 0
        assert plan.shards[-1].stop == 10
        for prev, nxt in zip(plan.shards, plan.shards[1:]):
            assert prev.stop == nxt.start
        assert all(shard.stop > shard.start for shard in plan)

    def test_shards_balance_by_weight(self):
        # One heavy member up front: it should get a shard to itself.
        weights = [100.0] + [1.0] * 99
        plan = plan_shards(weights, 2)
        assert plan.shards[0].stop == 1
        assert plan.shards[1].start == 1 and plan.shards[1].stop == 100

    def test_shard_count_clamped_to_members(self):
        plan = plan_shards([1.0, 2.0], 8)
        assert len(plan) == 2

    def test_zero_weights_split_evenly(self):
        plan = plan_shards([0.0] * 9, 3)
        assert [s.members for s in plan] == [3, 3, 3]

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            plan_shards([], 2)
        with pytest.raises(ValueError):
            plan_shards([1.0], 0)


positive_weights = st.lists(
    st.floats(0.01, 1e6, allow_nan=False, allow_infinity=False),
    min_size=1, max_size=200,
)


class TestMemberQueryCounts:
    """The cumulative-floor apportionment that makes per-member query
    counts independent of how the fleet is partitioned into shards."""

    @settings(max_examples=100, deadline=None)
    @given(positive_weights, st.integers(0, 50_000))
    def test_counts_sum_exactly_to_total(self, weights, total):
        counts = member_query_counts(weights, total)
        assert len(counts) == len(weights)
        assert int(counts.sum()) == total
        assert int(counts.min()) >= 0

    @settings(max_examples=50, deadline=None)
    @given(
        positive_weights, st.integers(1, 50_000),
        st.data(),
    )
    def test_partition_independence(self, weights, total, data):
        """Sharding is slicing: any contiguous partition of the members
        sums to the same total, and each member's count never depends on
        where the shard boundaries fall."""
        counts = member_query_counts(weights, total)
        cuts = sorted(
            data.draw(
                st.lists(st.integers(0, len(weights)), max_size=4),
                label="cuts",
            )
        )
        bounds = [0, *cuts, len(weights)]
        assert sum(
            int(counts[start:stop].sum())
            for start, stop in zip(bounds, bounds[1:])
        ) == total

    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 300), st.integers(0, 10_000))
    def test_uniform_weights_spread_evenly(self, members, total):
        """Near-even spread: each count is within one query of the ideal
        share, give or take one ulp-jittered cumulative bound."""
        counts = member_query_counts([1.0] * members, total)
        ideal = total / members
        assert abs(int(counts.max()) - ideal) < 2
        assert abs(int(counts.min()) - ideal) < 2

    def test_zero_weight_fleet_rejected(self):
        with pytest.raises(ValueError):
            member_query_counts([0.0, 0.0], 100)
        with pytest.raises(ValueError):
            member_query_counts([], 100)


def _record(ts, server, qname="a.nz"):
    return QueryRecord(
        timestamp=ts, server_id=server,
        src=IPAddress(4, 0x08080808), transport=Transport.UDP,
        qname=qname, qtype=1, rcode=0, edns_bufsize=4096,
        do_bit=False, response_size=100, truncated=False, tcp_rtt_ms=None,
    )


def _view_of(records):
    store = CaptureStore()
    store.extend(records)
    return store.view()


def _capture_of(*shards):
    """A run's capture over resident chunks, one per shard's records."""
    spool = CaptureSpool()
    spool.adopt([_view_of(records) for records in shards])
    return SpooledCapture(spool)


class TestCaptureStoreRuntimeSupport:
    def test_extend_bulk_appends(self):
        store = CaptureStore()
        store.extend([_record(1.0, "a"), _record(2.0, "b")])
        assert len(store) == 2
        assert store.rows_appended == 2
        view = store.view()
        store.extend([])
        assert store.view() is view  # empty extend keeps the frozen view

    def test_sort_canonical_is_stable(self):
        # Two ties on (timestamp, server): qname disambiguates append order.
        capture = _capture_of([
            _record(2.0, "b", "late.nz"),
            _record(1.0, "a", "first.nz"),
            _record(1.0, "a", "second.nz"),
        ])
        assert list(capture.view().qname) == ["first.nz", "second.nz", "late.nz"]

    def test_merge_equals_concat_then_sort(self):
        """Chunks adopted in shard order, then the one canonical sort:
        the rows a plain stable ``sorted`` of the tuples gives."""
        a, b, c = _record(3.0, "a"), _record(1.0, "b", "x.nz"), _record(1.0, "b", "y.nz")
        d = _record(2.0, "a")
        merged = _capture_of([a, b], [c, d])
        assert len(merged) == merged.rows_appended == 4
        reference = sorted(
            _view_of([a, b, c, d]).to_rows(), key=lambda row: (row[0], row[1])
        )
        assert_views_equal(merged.view(), CaptureStore.rows_to_view(reference))
        # Resident chunks are not kept beside the whole view built from them.
        assert [len(chunk) for chunk in merged.iter_views()] == [4]


class TestSerialSharding:
    def test_zero_queries_stays_serial_even_with_workers(self):
        run = run_dataset(dataset(DATASET), client_queries=0, workers=4)
        assert run.runtime_report.mode == "serial"
        assert len(run.capture) == 0
        # The built world is still fully usable (the outage extension
        # relies on this to replay traffic against run.network).
        assert run.fleet and run.server_sets


class TestPoolDeterminism:
    def test_pool_runtime_telemetry(self):
        pooled = run_dataset(dataset(DATASET), client_queries=600, workers=2)
        snap = pooled.telemetry
        assert snap.counters["runtime.shards_total"] == 2
        assert "runtime.shard.0" in snap.phases
        assert "runtime.shard.1" in snap.phases
        assert snap.gauges["runtime.workers"] == 2.0
        assert 0.0 < snap.gauges["runtime.worker_utilization"] <= 1.0
        shard_queries = sum(
            value for key, value in snap.counters.items()
            if key.startswith("runtime.shard_queries{")
        )
        assert shard_queries == pooled.client_queries_run


#: Recovered runs are held to this case's literal in the oracle's table.
RECOVERED = "nz-w2019"


def recovered_run(config):
    descriptor, queries, __, seed = CASES[RECOVERED]
    return run_dataset(descriptor, seed=seed, client_queries=queries, config=config)


class TestFaultRecovery:
    def test_crashed_shard_falls_back_serially(self):
        run = recovered_run(RunConfig.resolve(workers=2, inject_faults={0: "crash"}))
        report = run.runtime_report
        assert report.failures == 0
        assert report.retries == 1       # retried once on the pool (crashed again)
        assert report.fallbacks == 1     # then recovered in-process
        assert report.outcomes[0].fallback
        assert run.telemetry.counters["runtime.shard_fallbacks"] == 1
        assert run.telemetry.counters["runtime.shard_retries"] == 1
        assert view_digest(run.capture.view()) == ORACLE[RECOVERED]["capture"]

    def test_hung_shard_times_out_and_falls_back(self):
        run = recovered_run(RunConfig.resolve(
            workers=2, shard_timeout_s=1.5, retries=0,
            inject_faults={0: "hang"},
        ))
        report = run.runtime_report
        assert report.failures == 0
        assert report.fallbacks >= 1
        assert run.telemetry.counters["runtime.shard_fallbacks"] >= 1
        assert view_digest(run.capture.view()) == ORACLE[RECOVERED]["capture"]


def _shard_tasks(count=2, queries=60, descriptor=None):
    """Minimal full-fleet tasks for driving ShardExecutor directly."""
    base = dataset(DATASET) if descriptor is None else descriptor
    return [
        ShardTask(
            descriptor=base, seed=7, client_queries=queries,
            shard_index=index,
        )
        for index in range(count)
    ]


class TestShardExecutorAccounting:
    """Direct executor-level tests: attempts/retry/fallback bookkeeping."""

    def test_crash_attempts_pool_retry_fallback(self):
        metrics = MetricsRegistry()
        executor = ShardExecutor(
            RunConfig(workers=2, inject_faults={0: "crash"}), metrics
        )
        executor.submit(_shard_tasks())
        results, report = executor.collect()
        assert report.failures == 0
        assert report.retries == 1
        assert report.fallbacks == 1
        # Shard 0: pool attempt + pool retry + serial fallback = 3 attempts.
        assert report.outcomes[0].attempts == 3
        assert report.outcomes[0].fallback
        assert report.outcomes[0].error is None
        assert report.outcomes[1].attempts == 1
        assert not report.outcomes[1].fallback
        assert [r.shard_index for r in results] == [0, 1]
        assert results[0].fallback and not results[1].fallback
        snap = metrics.snapshot()
        assert snap.counters["runtime.shard_retries"] == 1
        assert snap.counters["runtime.shard_fallbacks"] == 1
        assert "runtime.shard_failures" not in snap.counters

    def test_hang_times_out_retries_then_falls_back(self):
        metrics = MetricsRegistry()
        executor = ShardExecutor(
            RunConfig(
                workers=2, shard_timeout_s=0.4, retries=1,
                inject_faults={0: "hang"},
            ),
            metrics,
        )
        executor.submit(_shard_tasks())
        results, report = executor.collect()
        # Both the pool attempt and the retry hang past the timeout; the
        # serial fallback (faults stripped) recovers the rows.
        assert report.failures == 0
        assert report.retries == 1
        assert report.fallbacks == 1
        assert report.outcomes[0].attempts == 3
        assert report.outcomes[0].fallback
        assert len(results) == 2
        assert results[0].rows_appended > 0

    def test_pool_death_falls_back_serially(self):
        # A worker dying outright (os._exit) breaks the *whole* pool:
        # BrokenProcessPool must skip the pool retry round and recover the
        # dead shard (and any collateral losses) via the serial fallback,
        # with `runtime.shard_fallbacks` accounting for every recovery.
        metrics = MetricsRegistry()
        executor = ShardExecutor(
            RunConfig(workers=2, retries=1, inject_faults={0: "exit"}),
            metrics,
        )
        executor.submit(_shard_tasks())
        results, report = executor.collect()
        assert report.failures == 0
        assert report.retries == 0  # broken pool: no retry round
        assert report.fallbacks >= 1
        assert report.outcomes[0].fallback
        assert report.outcomes[0].attempts == 2  # pool attempt + fallback
        assert report.outcomes[0].error is None
        assert [r.shard_index for r in results] == [0, 1]
        assert all(r.rows_appended > 0 for r in results)
        snap = metrics.snapshot()
        assert snap.counters["runtime.shard_fallbacks"] == report.fallbacks
        assert "runtime.shard_failures" not in snap.counters

    def test_permanent_failure_is_reported_not_raised(self):
        # An empty server set fails environment build everywhere — pool,
        # retry, and serial fallback — so the shard must surface as a
        # failure in the report instead of crashing the run.
        broken = replace(dataset(DATASET), servers=())
        tasks = _shard_tasks()
        tasks[0] = replace(tasks[0], descriptor=broken)
        metrics = MetricsRegistry()
        executor = ShardExecutor(RunConfig(workers=2, retries=1), metrics)
        executor.submit(tasks)
        results, report = executor.collect()
        assert report.failures == 1
        assert report.retries == 1
        assert report.fallbacks == 1
        outcome = report.outcomes[0]
        assert outcome.error is not None
        assert "serial fallback failed" in outcome.error
        assert outcome.attempts == 3
        assert [r.shard_index for r in results] == [1]
        assert report.failed_shards == [outcome]
        assert metrics.snapshot().counters["runtime.shard_failures"] == 1


def _vector_keys(snapshot):
    return sorted(
        key
        for table in (snapshot.counters, snapshot.gauges, snapshot.phases)
        for key in table
        if key.startswith("runtime.vector.")
    )


class TestVectorKeywordStub:
    """The record/replay vector core is gone; ``vector=`` survives on
    ``run_dataset`` and ``ExperimentContext`` only as a stub that the
    frozen ``bench/workloads.py`` still passes ``False`` to."""

    def test_truthy_value_rejected(self):
        from repro.experiments.context import ExperimentContext

        with pytest.raises(ValueError, match="vector core was removed"):
            run_dataset(dataset(DATASET), client_queries=60, vector=True)
        with pytest.raises(ValueError, match="vector core was removed"):
            ExperimentContext(scale=0.01, vector=True)

    def test_falsy_value_publishes_constant_gauge(self):
        for vector in (None, False):
            run = run_dataset(dataset(DATASET), client_queries=60, vector=vector)
            assert _vector_keys(run.telemetry) == ["runtime.vector.enabled"]
            assert run.telemetry.gauges["runtime.vector.enabled"] == 0

    def test_context_accepts_false(self):
        from repro.experiments.context import ExperimentContext

        ctx = ExperimentContext(scale=0.01, workers=1, vector=False)
        assert not hasattr(ctx, "vector")
        ctx.run(DATASET)
        snapshot = ctx.telemetry.snapshot()
        assert _vector_keys(snapshot) == ["runtime.vector.enabled"]
        assert snapshot.gauges["runtime.vector.enabled"] == 0


#: name -> (reader, value when unset, valid text, its value, invalid text).
#: Empty always means unset.  ``REPRO_CHAOS`` has no invalid form at this
#: level: any name passes through and ``chaos_scenario`` rejects unknown ones.
ENV_KNOBS = {
    "REPRO_SCALE": (lambda: run_config.resolve_scale(default=0.2), 0.2, "0.5", 0.5, "-1"),
    "REPRO_WORKERS": (lambda: RunConfig.resolve().workers, 1, "3", 3, "abc"),
    "REPRO_STREAM": (lambda: RunConfig.resolve().stream, False, "on", True, "maybe"),
    "REPRO_TRACE": (
        lambda: RunConfig.resolve().trace, None,
        "0.125", run_config.TraceConfig(sample=0.125), "2",
    ),
    "REPRO_CHAOS": (run_config.default_chaos, None, "default-loss", "default-loss", None),
    "REPRO_PROGRESS_INTERVAL": (
        lambda: RunConfig.resolve().progress_interval_s, 5.0, "30", 30.0, "0",
    ),
    "REPRO_PLAN_CACHE": (run_config.plan_cache_enabled, True, "off", False, "abc"),
    "REPRO_ENV_CACHE": (run_config.env_cache_capacity, 12, "0", 0, "abc"),
    "REPRO_POOL_START": (run_config.pool_start_method, None, "spawn", "spawn", "teleport"),
}


class TestEnvDefaults:
    @pytest.mark.parametrize("name", sorted(ENV_KNOBS))
    def test_one_parsing_rule_for_every_knob(self, monkeypatch, name):
        read, default, valid, value, invalid = ENV_KNOBS[name]
        monkeypatch.delenv(name, raising=False)
        assert read() == default
        monkeypatch.setenv(name, "")
        assert read() == default
        monkeypatch.setenv(name, f" {valid} ")
        assert read() == value
        if invalid is not None:
            monkeypatch.setenv(name, invalid)
            with pytest.raises(ValueError) as excinfo:
                read()
            message = str(excinfo.value)
            assert f"{name}={invalid!r}" in message and "expected" in message

    def test_booleans_share_one_vocabulary(self, monkeypatch):
        for text, expected in (
            ("0", False), ("false", False), ("No", False), ("OFF", False),
            ("1", True), ("true", True), ("Yes", True), ("on", True),
        ):
            monkeypatch.setenv("REPRO_PLAN_CACHE", text)
            monkeypatch.setenv("REPRO_STREAM", text)
            assert run_config.plan_cache_enabled() is expected
            assert RunConfig.resolve().stream is expected

    def test_run_config_rejects_what_cannot_run(self):
        from repro.experiments.context import ExperimentContext

        for field, bad in (
            ("workers", 0), ("shard_timeout_s", 0.0),
            ("retries", -1), ("progress_interval_s", 0.0), ("trace", 2.0),
        ):
            with pytest.raises(ValueError, match=field):
                RunConfig.resolve(**{field: bad})
        with pytest.raises(ValueError, match="spool_dir needs stream=True"):
            RunConfig.resolve(spool_dir="/nowhere", stream=False)
        with pytest.raises(ValueError, match="scale"):
            run_config.resolve_scale(-1.0)
        with pytest.raises(ValueError, match="workers"):
            ExperimentContext(workers=0)

    def test_every_env_knob_is_in_the_readme_table(self):
        """The ``REPRO_*`` names read under ``src/`` are exactly the rows of
        README's "Environment variables" table — a new knob cannot arrive
        undocumented — and the structure that keeps it so: one module reads
        the environment, and the objects a run is assembled from are each
        constructed at one site, so a second way to configure or run a
        dataset — or a second benchmark system — cannot arrive unnoticed
        either."""
        import re
        from pathlib import Path

        root = Path(__file__).resolve().parent.parent
        sources = {
            path: path.read_text() for path in (root / "src" / "repro").rglob("*.py")
        }
        in_source = {
            name
            for text in sources.values()
            for name in re.findall(r"REPRO_[A-Z_]+", text)
        }
        section = (root / "README.md").read_text().split(
            "## Environment variables\n", 1
        )[1].split("\n## ", 1)[0]
        documented = set(re.findall(r"^\| `(REPRO_[A-Z_]+)` \|", section, re.M))
        assert in_source == documented == {
            "REPRO_SCALE", "REPRO_WORKERS", "REPRO_STREAM", "REPRO_TRACE",
            "REPRO_CHAOS", "REPRO_PROGRESS_INTERVAL", "REPRO_PLAN_CACHE",
            "REPRO_ENV_CACHE", "REPRO_POOL_START",
        }
        readers = [
            path.name for path, text in sources.items()
            if re.search(r"\bos\.environ\b|\bgetenv\b", text)
        ]
        assert readers == ["config.py"]
        for constructor in (
            "DatasetRun(", "ShardTask(", "QueryTracer(", "SpooledCapture(",
            "SimEnvironment(",
        ):
            sites = sum(
                len(re.findall(r"(?<![\w.`])" + re.escape(constructor), text))
                for text in sources.values()
            )
            assert sites == 1, f"{constructor} constructed at {sites} sites"
        # One format past the append buffer, one canonical sort, one place
        # that asks whether a run folded (besides the merge of shard states).
        everything = "".join(sources.values())
        assert everything.count("np.lexsort") == 1
        assert not re.search(
            r"\b(from_raw_rows|sort_canonical|raw_rows|spool_store|append_rows|_pending)\b",
            everything,
        )
        assert everything.count("aggregates is not None") == 2
        assert "aggregates is not None" in sources[root / "src/repro/analysis/analytics.py"]
        # One trace surface: simulated events in one Chrome-trace file —
        # no rate frames, no second format, no runtime-category events,
        # no reader-less telemetry API.
        assert not re.search(
            r"FlightRecorder|timeseries|jsonl|include_runtime|hash_uniform"
            r"|\bwindow_s\b|by_label|phase_totals|\.slowest\(|cat=",
            everything,
        )
        # One benchmark (bench/): the per-figure shape checks under
        # benchmarks/ keep no records and write no files.
        assert not list((root / "benchmarks").glob("*.json"))
        writers = [
            path.name for path in (root / "benchmarks").glob("*.py")
            if re.search(
                r"""open\([^)]*["'][wax]|write_text|write_bytes|\.dump\(""",
                path.read_text(),
            )
        ]
        assert writers == []

    def test_workers_env_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert RunConfig.resolve().workers == 1
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert RunConfig.resolve().workers == 3
        assert RunConfig.resolve(workers=2).workers == 2
        monkeypatch.setenv("REPRO_WORKERS", "0")
        with pytest.raises(ValueError):
            RunConfig.resolve()

    def test_progress_interval_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_PROGRESS_INTERVAL", raising=False)
        assert RunConfig.resolve().progress_interval_s == 5.0
        monkeypatch.setenv("REPRO_PROGRESS_INTERVAL", "30")
        assert RunConfig.resolve().progress_interval_s == 30.0
        monkeypatch.setenv("REPRO_PROGRESS_INTERVAL", "-1")
        with pytest.raises(ValueError):
            RunConfig.resolve()
