"""One oracle for bit-identity: every execution mode must reproduce one
committed digest table.

A *case* (:data:`CASES`) is what is simulated: a descriptor, a volume and
a seed.  A *column* (:func:`columns`) is one digest of what a run
produced.  A *row* (:data:`ROWS`) is how it ran.
:data:`ORACLE` holds one literal per (case, column) and every scheduled
(row, case) pair must reproduce it; so must a null fault plan, the world
store visited in two orders, and the report matrix (:data:`REPORTS`),
resident and spooled.  A mismatch names case, row and column and prints
the new digest.  Re-recording is editing that one literal and saying why
in CHANGES.md.  Beside the table, every plan a run of each case memoised
must equal its keyless, encoder-sized rebuild.
"""

import itertools
from dataclasses import replace
from typing import NamedTuple

import pytest

from repro.analysis import Attributor, DatasetAnalytics
from repro.capture import SpooledCapture
from repro.clouds import PROVIDERS
from repro.config import RunConfig
from repro.experiments import ExperimentContext
from repro.experiments.render_all import collect_all
from repro.faults import FaultPlan, chaos_scenario
from repro.server import AuthoritativeServer
from repro.sim import forget_worlds, run_dataset, worlds
from repro.sim.worlds import EnvironmentCache
from repro.workload import dataset, monthly_google_descriptor

from .helpers import (
    REPORT_SCALE,
    canonical_digest,
    sim_counters,
    view_digest,
)
from .tools.plan_twins import plan_mismatches, run_servers

SEED = 20201027


class Case(NamedTuple):
    descriptor: object
    queries: int
    seed: int = SEED


#: The Dec-2019 monthly run with Q-min forced *off*: the only override that
#: differs from what its (2020) fleet was built with.
QMIN_OFF = replace(
    monthly_google_descriptor("nz", 2019, 12),
    dataset_id="nz-google-qmin-off", qmin_override=False,
)

CASES = {
    "nl-w2020": Case(dataset("nl-w2020"), 900),
    "nz-w2019": Case(dataset("nz-w2019"), 900),
    "root-2020": Case(dataset("root-2020"), 900),
    "nl-w2020+heavy-loss": Case(
        replace(dataset("nl-w2020"), fault_plan=chaos_scenario("heavy-loss")), 900,
    ),
    "nz-w2020": Case(dataset("nz-w2020"), 1500),
    "nz-w2020+flaky-server": Case(
        replace(dataset("nz-w2020"), fault_plan=chaos_scenario("flaky-server")), 1500,
    ),
    "nz-google-2020-02": Case(monthly_google_descriptor("nz", 2020, 2), 400),
    "nz-google-qmin-off": Case(QMIN_OFF, 400),
    "nz-google-2019-12": Case(monthly_google_descriptor("nz", 2019, 12), 400),
}

#: blake2b-128 digests per (case, column), as :func:`columns` computes them.
#: Provenance: the first three cases' ``answers`` are what the deleted
#: whole-view reducers answered at commit a299f2c; the first four's
#: ``capture`` is the deleted row-tuple merge and sort at commit 984449e.
#: The rest were recorded at commit ce6690b, while the pairwise
#: suites this table replaced were in place and passing.
ORACLE = {
    "nl-w2020": {
        "capture": "b645f5d0c14f428a680d1d5f5fe5d073",
        "state": "091f65c778c4704879f4c05767d9cc37",
        "answers": "47beeebc5b2891c5333651fd8b1b1b2e",
        "counters": "f695e26e5c50b27dbbcb954db145f49a",
        "queries_run": 900,
    },
    "nz-w2019": {
        "capture": "f7ca472098680ce770097157b5eb0342",
        "state": "9a612e33fa5a6c9c2620ff993d351dd6",
        "answers": "fac279e47962dc0386d8ed4e79ef5748",
        "counters": "b69f406436b067e88841f4346f608f5b",
        "queries_run": 900,
    },
    "root-2020": {
        "capture": "0446a33b542a7e3dc5900a2b2ed3f245",
        "state": "3af6f5382d5a15760756ae498d567004",
        "answers": "1225f901bdf34ec157cde0a0131445bc",
        "counters": "35e7acc138162b34a6b96e92a1d4a650",
        "queries_run": 900,
    },
    "nl-w2020+heavy-loss": {
        "capture": "6e46d648306709db262b7af3b4a37570",
        "state": "e93c34fc075c75fa5eaa1ced378c4af4",
        "answers": "22f00f053b8e2837c854fe817f4a0f39",
        "counters": "7f1f31ecf3bee5a027e90c9c58da7b4b",
        "queries_run": 900,
    },
    "nz-w2020": {
        "capture": "3395ce473b1e02fb3f10c6dee303a2dd",
        "state": "fb95e353a233a06629d6e48cf9d4c9ce",
        "answers": "85ee65b8cab3314dca8d92e5ebbc2c9e",
        "counters": "02f8d5ea95d4bb488199abde76131eaf",
        "queries_run": 1500,
    },
    "nz-w2020+flaky-server": {
        "capture": "48442bfe282e2f4a7fc00f1b4567ad56",
        "state": "6695b8cef83e5e264c34be5299eea434",
        "answers": "c70c9959820dc61a18feb412a2a11c39",
        "counters": "b66ad922d26981a8789a9a9b19c98fbf",
        "queries_run": 1500,
    },
    "nz-google-2020-02": {
        "capture": "4c01fddfc0ac693bbcb4fefd83f55291",
        "state": "d2d0608f457155518be5e3cec1af559c",
        "answers": "48974c261997c2c494f6ef70175d91c8",
        "counters": "75cde8ee3b34359dd5e77a0ac0891a42",
        "queries_run": 400,
    },
    "nz-google-qmin-off": {
        "capture": "4104f2386713ba8d674a11d4bb436069",
        "state": "1e64bf074b6e4756ad41bf3087d68555",
        "answers": "ce6d8ba343503abb5e39cdb001f0b9c6",
        "counters": "68fc96027e4b82a0509ef19928776e0d",
        "queries_run": 400,
    },
    "nz-google-2019-12": {
        "capture": "8d323becb64cab073fe8599943077626",
        "state": "b138c85d24d5b7c397a6ce305f7bd3b7",
        "answers": "89be76ee227ac5b0083b01992fc148fd",
        "counters": "100f0e6f3e132c7fae297c5ae640de78",
        "queries_run": 400,
    },
}

#: :func:`reports_digest` of the whole experiment matrix at ``REPORT_SCALE``.
REPORTS = "dc7d28dea9d8197b686d26c9694d74ef"


class Row(NamedTuple):
    stream: bool
    plan_cache: bool
    world_store: bool

    @property
    def name(self):
        # ``w1``: one process, as every run is (--workers 1 is the one
        # value that runs).
        return "-".join((
            "w1", "stream" if self.stream else "memory",
            "plan" if self.plan_cache else "noplan",
            "store" if self.world_store else "nostore",
        ))


#: Every pair of values of any two (two-valued) axes meets in some row.
#: ``stream`` is where the chunks live: spilled under a spool directory
#: (``stream``) or resident (``memory``).  ``plan_cache`` off makes every
#: server of the run a reference server, ``world_store`` off every world
#: built from scratch (see :func:`pin`).  The first four rows cover every
#: pair; the first is the reference path — resident chunks, every response
#: and every world built from scratch — and the third the product's
#: default path.
ROWS = [
    Row(False, False, False),
    Row(True, True, False),
    Row(False, True, True),
    Row(True, False, True),
    Row(False, False, True),
]

#: (row, case) pairs the matrix runs: every case runs the first three
#: rows, which between them give it every axis value, and each other row
#: runs on one case.
SCHEDULE = [(row, case) for case in CASES for row in ROWS[:3]] + [
    (ROWS[3], "nz-w2020+flaky-server"),  # chaos spilled, every response built
    (ROWS[4], "nl-w2020+heavy-loss"),    # chaos resident, worlds borrowed
]


# -- what a run is reduced to --------------------------------------------------

def facade_answers(analytics):
    """Every facade answer, keyed for canonical JSON."""
    return {
        "provider_shares": analytics.provider_shares(),
        "cloud_share": analytics.cloud_share(),
        "junk_ratios": analytics.junk_ratios(),
        "overall_junk_ratio": analytics.overall_junk_ratio(),
        "transport_matrix": analytics.transport_matrix(),
        "truncation_table": analytics.truncation_table(),
        "google_split": analytics.google_split(),
        "dataset_summary": analytics.dataset_summary(),
        "per_provider": {
            provider: {
                "rrtype_mix": analytics.rrtype_mix(provider),
                "bufsize_cdf": analytics.bufsize_cdf(provider),
                "truncation_ratio": analytics.truncation_table()[provider],
                "tcp_share": analytics.tcp_share(provider),
                "resolver_inventory": analytics.resolver_inventory(provider),
                "ns_share": analytics.monthly_point(provider, 2020, 1).ns_share,
                "minimized_fraction": analytics.minimized_fraction(provider, 1),
                "monthly_point": analytics.monthly_point(provider, 2020, 1),
            }
            for provider in PROVIDERS
        },
        "sovereignty": analytics.sovereignty(),
        "composition": analytics.composition(),
    }


def columns(run):
    """Every column of the table for one run.

    Every run answers from what it folded.  The heavy-hitter list, a
    sketch that depends on where chunk boundaries fell, always comes from
    one feed of the run's own view, because the literal was recorded that
    way.
    """
    view = run.capture.view()
    one_feed = DatasetAnalytics.over(
        view, Attributor(run.registry, PROVIDERS).attribute(view)
    )
    analytics = DatasetAnalytics(run.aggregates)
    answers = facade_answers(analytics)
    answers["composition"].heavy_hitters = one_feed.composition().heavy_hitters
    return {
        "capture": view_digest(view),
        "state": canonical_digest({
            name: aggregator.exact_state()
            for name, aggregator in analytics.aggregates.aggregators.items()
        }),
        "answers": canonical_digest(answers),
        "counters": canonical_digest(sim_counters(run.telemetry)),
        "queries_run": run.client_queries_run,
    }


def assert_reproduces(case, row_name, got):
    expected = ORACLE[case]
    wrong = [
        f"{case} / {row_name} / {column}: got {value!r}, the table holds "
        f"{expected[column]!r}"
        for column, value in got.items() if value != expected[column]
    ]
    assert not wrong, "\n".join(wrong)


def reports_digest(reports):
    """Over every report's id, rows, series and notes — not its telemetry
    stamps, and not ``approx`` (sketch answers that depend on chunking)."""
    return canonical_digest([
        (report.experiment_id, report.rows, report.series, report.notes)
        for report in reports
    ])


# -- running a row -------------------------------------------------------------

def pin(monkeypatch, plan_cache=True, world_store=True):
    """Set the process-level axes for one test.

    Without ``plan_cache`` every server built from here on is a reference
    server (``_plans = None``: every response built and encoded in full).
    Without ``world_store`` both world stores are swapped for ones that
    park nothing, so every world is built from scratch.
    """
    if not plan_cache:
        build = AuthoritativeServer.__init__

        def reference_server(self, *args, **kwargs):
            build(self, *args, **kwargs)
            self._plans = None

        monkeypatch.setattr(AuthoritativeServer, "__init__", reference_server)
    if not world_store:
        monkeypatch.setattr(worlds, "ZONES", EnvironmentCache(0))
        monkeypatch.setattr(worlds, "FLEETS", EnvironmentCache(0))


def run_case(case, spool_dir=None, **overrides):
    """One run of ``case``; ``overrides`` replace descriptor fields."""
    descriptor, queries, seed = CASES[case]
    return run_dataset(
        replace(descriptor, **overrides), seed=seed, client_queries=queries,
        config=RunConfig(spool_dir=spool_dir),
    )


def assert_structure(run, spool_dir):
    """What the mode itself must show: where the chunks live, what the
    run folded."""
    assert isinstance(run.capture, SpooledCapture)
    chunk_files = [] if spool_dir is None else sorted(
        str(path) for path in (spool_dir / run.descriptor.dataset_id).glob("*.chunk")
    )
    assert chunk_files == sorted(run.capture.spool.chunk_paths())
    assert bool(chunk_files) == (spool_dir is not None)
    assert run.aggregates.rows_fed == len(run.capture)
    assert run.telemetry.gauges["runtime.stream.enabled"] == (1 if chunk_files else 0)


# -- the matrix ----------------------------------------------------------------

def test_the_matrix_covers_every_pair_and_every_case():
    axes = range(len(Row._fields))
    for a, b in itertools.combinations(axes, 2):
        assert len({(row[a], row[b]) for row in ROWS}) == 4, (a, b)
    for case in CASES:
        rows = [row for row, scheduled in SCHEDULE if scheduled == case]
        assert all(len({row[axis] for row in rows}) == 2 for axis in axes), case


@pytest.mark.parametrize(
    "row, case", SCHEDULE, ids=[f"{row.name}-{case}" for row, case in SCHEDULE]
)
def test_row_reproduces_the_table(row, case, monkeypatch, tmp_path):
    pin(monkeypatch, row.plan_cache, row.world_store)
    spool_dir = tmp_path if row.stream else None
    run = run_case(case, spool_dir)
    assert_structure(run, spool_dir)
    # Only servers with a plan cache book its counters.
    assert (run.telemetry.total("runtime.plan_cache.misses") > 0) == row.plan_cache
    assert_reproduces(case, row.name, columns(run))


@pytest.mark.parametrize("case", list(CASES))
def test_every_memoised_plan_is_its_encoder_sized_twin(case, monkeypatch):
    """A run's servers keep the plans they memoised; rebuilt without a
    key, each must come out field for field the same."""
    pin(monkeypatch)
    run = run_case(case)
    checked, wrong = plan_mismatches(run_servers(run))
    assert checked > 0 and not wrong, "\n".join(wrong[:20])


def test_null_fault_plan_is_no_plan(monkeypatch):
    """A disabled plan attaches nothing: the run is the no-plan case.  An
    attached injector always publishes ``faults.checks``."""
    pin(monkeypatch)
    run = run_case("nl-w2020", fault_plan=FaultPlan())
    assert "faults.checks" not in run.telemetry.counters
    assert_reproduces("nl-w2020", "null-plan", columns(run))


#: The world-store bag: the ``.nz`` cases share two fleets — ``(nz, 2019)``
#: and ``(nz, 2020)``, which the weekly, its chaos twin and the three
#: Google-only months all borrow — so each run follows one that rewound
#: the fleet it borrows.  Q-min forced off is the override that really
#: differs from the behaviour the fleet was built with; a leaked override
#: or an incomplete rewind shows in the runs after it.
BAG_ORDERS = {
    "reversed": [case for case in reversed(CASES) if case.startswith("nz-")],
    "override-between-weeklies": [
        "nz-w2020", "nz-google-qmin-off", "nz-w2020+flaky-server",
        "nz-w2019", "nz-google-2020-02", "nz-google-2019-12",
    ],
}


@pytest.mark.parametrize("order", list(BAG_ORDERS))
def test_world_store_bag(order, monkeypatch):
    pin(monkeypatch)
    forget_worlds()
    for case in BAG_ORDERS[order]:
        run = run_case(case)
        assert_reproduces(case, f"bag {order}", {
            "capture": view_digest(run.capture.view()),
            "counters": canonical_digest(sim_counters(run.telemetry)),
        })


# -- every report --------------------------------------------------------------

def test_serial_matrix_reproduces_the_reports(serial_matrix):
    """Every report of the paper matrix from one serial in-memory context
    (the same context's figure coverage is checked in
    ``test_streaming_parity``, its world builds in ``test_worlds``)."""
    reports, __ = serial_matrix
    assert len(reports) == 43
    assert reports_digest(reports) == REPORTS


@pytest.mark.slow
def test_spooled_matrix_reproduces_the_reports(monkeypatch, tmp_path):
    pin(monkeypatch)
    ctx = ExperimentContext(
        scale=REPORT_SCALE, config=RunConfig(spool_dir=str(tmp_path))
    )
    assert reports_digest(collect_all(ctx)) == REPORTS
