"""Tests for the sharded parallel execution engine (``repro.runtime``).

``run_dataset(..., workers=N)`` must produce the capture the serial path
does for any ``N`` (pinned in ``test_oracle``) — including when shards
crash or hang and the runtime recovers via retry / serial fallback, which
is what this module drives, beside the planner, the apportionment and
the executor's bookkeeping.
"""

from dataclasses import fields, replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.capture import CaptureSpool, CaptureStore, SpooledCapture
from repro.capture.schema import QueryRecord, Transport
import repro.runtime.executor as runtime_executor
from repro.config import MAX_CLIENT_QUERIES, RunConfig
from repro.netsim import IPAddress
from repro.runtime import ShardExecutor, ShardTask, plan_shards
from repro.service import ServiceConfig
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

    def test_volume_past_int64_rejected(self):
        """A volume whose bounds do not fit int64 raises instead of
        wrapping into non-positive counts; the largest that fits spreads
        in full."""
        weights = [1.0, 2.0, 3.0]
        for total in (int(185_000 * 1e300), 2**63 - 1, MAX_CLIENT_QUERIES + 1):
            with pytest.raises(ValueError, match="do not fit int64"):
                member_query_counts(weights, total)
        counts = member_query_counts(weights, MAX_CLIENT_QUERIES)
        assert (counts > 0).all()
        assert int(counts.sum()) == MAX_CLIENT_QUERIES


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
        assert run.runtime_report.shard_count == 1
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


def recovered_run(monkeypatch, fault):
    """A two-worker run of :data:`RECOVERED` whose shard 0 carries
    ``fault`` on every pool attempt: the tasks ``run_dataset`` builds are
    rewritten in the parent, on their way into the pool."""
    submit = ShardExecutor.submit

    def faulty_submit(self, tasks):
        submit(self, [
            replace(task, fault=fault) if task.shard_index == 0 else task
            for task in tasks
        ])

    monkeypatch.setattr(ShardExecutor, "submit", faulty_submit)
    descriptor, queries, seed = CASES[RECOVERED]
    return run_dataset(descriptor, seed=seed, client_queries=queries, workers=2)


class TestFaultRecovery:
    def test_crashed_shard_falls_back_serially(self, monkeypatch):
        run = recovered_run(monkeypatch, "crash")
        report = run.runtime_report
        assert report.failures == 0
        assert report.retries == 1       # retried once on the pool (crashed again)
        assert report.fallbacks == 1     # then recovered in-process
        assert report.outcomes[0].fallback
        assert run.telemetry.counters["runtime.shard_fallbacks"] == 1
        assert run.telemetry.counters["runtime.shard_retries"] == 1
        assert view_digest(run.capture.view()) == ORACLE[RECOVERED]["capture"]

    def test_hung_shard_times_out_and_falls_back(self, monkeypatch):
        monkeypatch.setattr(runtime_executor, "SHARD_TIMEOUT_S", 1.5)
        monkeypatch.setattr(runtime_executor, "RETRY_ON_POOL", False)
        run = recovered_run(monkeypatch, "hang")
        report = run.runtime_report
        assert report.failures == 0
        assert report.fallbacks >= 1
        assert run.telemetry.counters["runtime.shard_fallbacks"] >= 1
        assert view_digest(run.capture.view()) == ORACLE[RECOVERED]["capture"]


def _shard_tasks(count=2, queries=60, descriptor=None, faults=None):
    """Minimal full-fleet tasks for driving ShardExecutor directly;
    ``faults`` maps shard index to an injected-fault mode."""
    base = dataset(DATASET) if descriptor is None else descriptor
    faults = faults or {}
    return [
        ShardTask(
            descriptor=base, seed=7, client_queries=queries,
            shard_index=index, fault=faults.get(index),
        )
        for index in range(count)
    ]


class TestShardExecutorAccounting:
    """Direct executor-level tests: attempts/retry/fallback bookkeeping."""

    def test_crash_attempts_pool_retry_fallback(self):
        metrics = MetricsRegistry()
        executor = ShardExecutor(RunConfig(workers=2), metrics)
        executor.submit(_shard_tasks(faults={0: "crash"}))
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

    def test_hang_times_out_retries_then_falls_back(self, monkeypatch):
        monkeypatch.setattr(runtime_executor, "SHARD_TIMEOUT_S", 0.4)
        metrics = MetricsRegistry()
        executor = ShardExecutor(RunConfig(workers=2), metrics)
        executor.submit(_shard_tasks(faults={0: "hang"}))
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
        executor = ShardExecutor(RunConfig(workers=2), metrics)
        executor.submit(_shard_tasks(faults={0: "exit"}))
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
        executor = ShardExecutor(RunConfig(workers=2), metrics)
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


def _vector_keys(snapshot, prefix="runtime.vector."):
    return sorted(
        key
        for table in (snapshot.counters, snapshot.gauges, snapshot.phases)
        for key in table
        if key.startswith(prefix)
    )


class TestVectorKeywordStub:
    """The record/replay vector core and the streaming mode are gone;
    ``vector=`` and ``stream=`` survive on ``run_dataset`` and
    ``ExperimentContext`` only as stubs that the frozen
    ``bench/workloads.py`` still passes ``False`` to."""

    def test_truthy_value_rejected(self):
        from repro.experiments.context import ExperimentContext

        for keyword, message in (
            ("vector", "vector core was removed"),
            ("stream", "streaming is no longer a mode"),
        ):
            with pytest.raises(ValueError, match=message):
                run_dataset(dataset(DATASET), client_queries=60, **{keyword: True})
            with pytest.raises(ValueError, match=message):
                ExperimentContext(scale=0.01, **{keyword: True})

    def test_falsy_value_publishes_constant_gauge(self, tmp_path):
        for falsy in (None, False):
            run = run_dataset(
                dataset(DATASET), client_queries=60, vector=falsy, stream=falsy
            )
            assert _vector_keys(run.telemetry) == ["runtime.vector.enabled"]
            assert run.telemetry.gauges["runtime.vector.enabled"] == 0
            assert _vector_keys(run.telemetry, "runtime.stream.") == [
                "runtime.stream.enabled"
            ]
            assert run.telemetry.gauges["runtime.stream.enabled"] == 0
        # The stream gauge now says whether chunks were spilled.
        run = run_dataset(
            dataset(DATASET), client_queries=60, config=RunConfig(spool_dir=str(tmp_path))
        )
        assert run.telemetry.gauges["runtime.stream.enabled"] == 1

    def test_context_accepts_false(self):
        from repro.experiments.context import ExperimentContext

        ctx = ExperimentContext(scale=0.01, workers=1, vector=False, stream=False)
        assert not hasattr(ctx, "vector") and not hasattr(ctx.config, "stream")
        ctx.run(DATASET)
        snapshot = ctx.telemetry.snapshot()
        assert _vector_keys(snapshot) == ["runtime.vector.enabled"]
        assert snapshot.gauges["runtime.vector.enabled"] == 0


class TestEnvDefaults:
    def test_run_config_rejects_what_cannot_run(self):
        from repro.experiments.context import ExperimentContext

        with pytest.raises(ValueError, match="workers"):
            RunConfig(workers=0)
        with pytest.raises(ValueError, match="scale"):
            ExperimentContext(scale=-1)
        with pytest.raises(ValueError, match="workers"):
            ExperimentContext(workers=0)

    def test_context_runs_the_config_it_was_given(self):
        from repro.experiments.context import ExperimentContext

        config = RunConfig(workers=2)
        assert ExperimentContext(scale=0.01, config=config).config is config
        assert ExperimentContext(scale=0.01).config == RunConfig()

    def test_every_env_knob_is_in_the_readme_table(self):
        """No module under ``src/repro`` reads the process environment —
        every setting is a flag or a keyword — and the structure that keeps
        it so: the objects a run is assembled from are each constructed at
        one site, so a second way to configure or run a dataset cannot
        arrive unnoticed either."""
        import re
        from pathlib import Path

        root = Path(__file__).resolve().parent.parent
        sources = {
            path: path.read_text() for path in (root / "src" / "repro").rglob("*.py")
        }
        readers = [
            path.name for path, text in sources.items()
            if re.search(r"REPRO_|\bos\.environ\b|\bgetenv\b", text)
        ]
        assert readers == []
        for constructor in (
            "DatasetRun(", "ShardTask(", "SpooledCapture(",
            "SimEnvironment(",
        ):
            sites = sum(
                len(re.findall(r"(?<![\w.`])" + re.escape(constructor), text))
                for text in sources.values()
            )
            assert sites == 1, f"{constructor} constructed at {sites} sites"
        # One format past the append buffer, one canonical sort, and one
        # fold: no streaming mode, so nothing asks whether a run folded.
        everything = "".join(sources.values())
        assert everything.count("np.lexsort") == 1
        assert not re.search(
            r"\b(from_raw_rows|sort_canonical|raw_rows|spool_store|append_rows|_pending)\b",
            everything,
        )
        assert not re.search(
            r'config\.stream\b|aggregates is (not )?None|"--stream"',
            everything,
        )
        # Settable only where a caller sets it: every field of the two
        # configs is one the CLI or the benchmark passes.
        assert [field.name for field in fields(RunConfig)] == [
            "workers", "spool_dir",
        ]
        assert [field.name for field in fields(ServiceConfig)] == [
            "udp_port", "metrics_port", "watchdog_interval_s",
        ]
        # The metrics registry is the one observer: no per-query tracer,
        # no rate frames, no reader-less telemetry API.
        assert not re.search(
            r"\btrac(ing|e_out|e_sample)\b|Trac(er|eBuffer)\b|FlightRecorder|timeseries"
            r"|\bwindow_s\b|by_label|phase_totals|\.slowest\(",
            everything,
        )
