"""Tests for how a dataset run is entered: the volume apportionment, the
capture a run hands back, the stubs of removed modes and the settings a
run takes.
"""

from dataclasses import fields

import pytest
from hypothesis import given, settings, strategies as st

from repro.capture import CaptureSpool, CaptureStore, SpooledCapture
from repro.capture.schema import QueryRecord, Transport
from repro.config import MAX_CLIENT_QUERIES, RunConfig
from repro.netsim import IPAddress
from repro.service import ServiceConfig
from repro.sim import member_query_counts, run_dataset
from repro.workload import dataset

from .helpers import assert_views_equal, row_of, view_of

DATASET = "nz-w2018"


positive_weights = st.lists(
    st.floats(0.01, 1e6, allow_nan=False, allow_infinity=False),
    min_size=1, max_size=200,
)


class TestMemberQueryCounts:
    """The cumulative-floor apportionment of a run's volume over its
    fleet."""

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
        """Each member's count is its own: any contiguous partition of
        the members sums to the same total, so a member's count never
        depends on which others were driven beside it."""
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


def _capture_of(*chunks):
    """A run's capture over resident chunks, one per list of records."""
    spool = CaptureSpool()
    for records in chunks:
        spool.write_view(view_of(records))
    return SpooledCapture(spool)


class TestCaptureStoreRuntimeSupport:
    def test_take_cuts_the_head_and_keeps_counting(self):
        store = CaptureStore()
        for record in (_record(1.0, "a"), _record(2.0, "b"), _record(3.0, "c")):
            store.append_row(row_of(record))
        assert len(store) == 3
        assert store.rows_appended == 3
        assert list(store.take(2).server_id) == ["a", "b"]
        assert len(store) == 1 and store.rows_appended == 3
        assert list(store.view().server_id) == ["c"]

    def test_sort_canonical_is_stable(self):
        # Two ties on (timestamp, server): qname disambiguates append order.
        capture = _capture_of([
            _record(2.0, "b", "late.nz"),
            _record(1.0, "a", "first.nz"),
            _record(1.0, "a", "second.nz"),
        ])
        assert list(capture.view().qname) == ["first.nz", "second.nz", "late.nz"]

    def test_merge_equals_concat_then_sort(self):
        """A capture merges its chunks into one view by concatenating them
        in append order, then the one canonical sort: the rows a plain
        stable ``sorted`` of the tuples gives."""
        a, b, c = _record(3.0, "a"), _record(1.0, "b", "x.nz"), _record(1.0, "b", "y.nz")
        d = _record(2.0, "a")
        capture = _capture_of([a, b], [c, d])
        assert len(capture) == 4
        reference = sorted(
            view_of([a, b, c, d]).to_rows(), key=lambda row: (row[0], row[1])
        )
        assert_views_equal(capture.view(), CaptureStore.rows_to_view(reference))
        # Resident chunks are not kept beside the whole view built from them.
        assert [len(chunk) for chunk in capture.iter_views()] == [4]


class TestSerialSharding:
    def test_zero_queries_stays_serial_even_with_workers(self):
        """A run with no queries, passed the ``workers=1`` stub, still
        builds its world in the one process."""
        run = run_dataset(dataset(DATASET), client_queries=0, workers=1)
        assert run.telemetry.gauges["runtime.workers"] == 1
        assert len(run.capture) == 0
        # The built world is still fully usable (the outage extension
        # relies on this to replay traffic against run.network).
        assert run.fleet and run.server_sets


def _vector_keys(snapshot, prefix="runtime.vector."):
    return sorted(
        key
        for table in (snapshot.counters, snapshot.gauges, snapshot.phases)
        for key in table
        if key.startswith(prefix)
    )


class TestVectorKeywordStub:
    """The record/replay vector core, the streaming mode and shard
    parallelism are gone; ``vector=``, ``stream=`` and ``workers=``
    survive on ``run_dataset`` and ``ExperimentContext`` only as stubs that
    the frozen ``bench/workloads.py`` still passes ``False`` / ``1`` to."""

    def test_truthy_value_rejected(self):
        from repro.experiments.context import ExperimentContext

        for keyword, value, message in (
            ("vector", True, "vector core was removed"),
            ("stream", True, "streaming is no longer a mode"),
            ("workers", 2, "shard parallelism was removed"),
            ("workers", 0, "shard parallelism was removed"),
        ):
            with pytest.raises(ValueError, match=message):
                run_dataset(dataset(DATASET), client_queries=60, **{keyword: value})
            with pytest.raises(ValueError, match=message):
                ExperimentContext(scale=0.01, **{keyword: value})

    def test_falsy_value_publishes_constant_gauge(self, tmp_path):
        for falsy, workers in ((None, None), (False, 1)):
            run = run_dataset(
                dataset(DATASET), client_queries=60, vector=falsy, stream=falsy,
                workers=workers,
            )
            assert run.telemetry.gauges["runtime.workers"] == 1
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

        with pytest.raises(ValueError, match="scale"):
            ExperimentContext(scale=-1)
        with pytest.raises(ValueError, match="workers"):
            ExperimentContext(workers=0)

    def test_context_runs_the_config_it_was_given(self, tmp_path):
        from repro.experiments.context import ExperimentContext

        config = RunConfig(spool_dir=str(tmp_path))
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
            "DatasetRun(", "SpooledCapture(", "SimEnvironment(",
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
        assert [field.name for field in fields(RunConfig)] == ["spool_dir"]
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
