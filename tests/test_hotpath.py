"""Tests for the hot-path caches (ISSUE 4): borrowed world parts and
response-plan caching.

Caching is an execution detail and must be *invisible* in the results:
that captures are the same bytes with the plan cache and the world store
on or off, serially, on a pool and under a chaos plan is pinned in
``test_oracle``.  Here: what the caches do — hit, miss, evict, borrow.
"""

import sys
from collections import Counter
from dataclasses import replace

import pytest

import repro.server.authoritative as authoritative
from repro.capture import CaptureSpool, CaptureStore, SpooledCapture, Transport
from repro.dnscore import Message, Name, RRType
from repro.faults import chaos_scenario
from repro.netsim import GAZETTEER, IPAddress
from repro.runtime import EnvironmentCache, ShardTask
from repro.server import AuthoritativeServer
from repro.sim import run_dataset
from repro.sim.driver import simulate_shard
from repro.workload import dataset
from repro.workload.datasets import monthly_google_descriptor
from repro.zones import Zone

from .helpers import view_digest
from .test_oracle import CASES, ORACLE

DATASET = "nz-w2018"
QUERIES = 600
SEED = 20201027
SRC = IPAddress.parse("192.0.2.53")


@pytest.fixture
def force_caches(monkeypatch):
    """Make cache-behaviour tests immune to REPRO_PLAN_CACHE=0 /
    REPRO_ENV_CACHE=0 in the outer environment (CI runs the suite with the
    caches force-disabled too)."""
    monkeypatch.setenv("REPRO_PLAN_CACHE", "1")
    monkeypatch.delenv("REPRO_ENV_CACHE", raising=False)


def _cached_shard(case):
    descriptor, queries, __, seed = CASES[case]
    task = ShardTask(
        descriptor=descriptor, seed=seed, client_queries=queries,
        shard_index=0, start=0, stop=None,
    )
    result = simulate_shard(task)
    spool = CaptureSpool()
    spool.adopt(result.chunks, result.chunk_row_counts)
    return result, SpooledCapture(spool, result.rows_appended)


class TestWarmShard:
    def test_a_second_shard_borrows_the_rewound_fleet(self, force_caches):
        """What a second shard of the same dataset in one process shares
        with the first is the rewound fleet (and the sealed zones) — not
        servers: its overlay is its own, so its plan caches start empty.
        One shard over the whole fleet is the serial run, so it must still
        give the table's rows."""
        case = "nz-w2019"
        _cached_shard(case)
        warm, warm_store = _cached_shard(case)
        assert view_digest(warm_store.view()) == ORACLE[case]["capture"]
        telemetry = warm.telemetry
        assert telemetry.counter("runtime.env_cache.hit", part="fleet") == 1
        assert telemetry.counter("runtime.env_cache.miss", part="fleet") == 0
        assert telemetry.total("runtime.plan_cache.misses") > 0


def _zone():
    zone = Zone(Name.from_text("nl"), signed=True)
    zone.add_delegation(
        Name.from_text("example.nl"),
        [Name.from_text("ns1.hoster.net")],
        secure=True,
    )
    return zone


def _server(**kwargs):
    return AuthoritativeServer(
        "nl-a", _zone(), [GAZETTEER["AMS"]], capture=CaptureStore(), **kwargs
    )


def _query(qname, msg_id=7):
    return Message.make_query(Name.from_text(qname), RRType.A, msg_id=msg_id)


class TestPlanCache:
    def test_hit_replays_equivalent_response(self, force_caches):
        server = _server()
        first = server.handle_query(1.0, SRC, Transport.UDP, _query("www.example.nl"))
        second = server.handle_query(
            2.0, SRC, Transport.UDP, _query("www.example.nl", msg_id=9)
        )
        assert server.stats.plan_hits == 1
        assert second.msg_id == 9  # echoes the query, not the cached plan
        assert second.rcode == first.rcode
        assert [r.to_text() for r in second.authorities] == [
            r.to_text() for r in first.authorities
        ]
        view = server.capture.view()
        assert list(view.qname) == ["www.example.nl."] * 2
        assert view.response_size[0] == view.response_size[1]

    def test_case_variant_is_not_replayed(self, force_caches):
        """Name keys casefold; the capture must keep each query's original
        spelling, so a case variant falls through to the uncached path."""
        server = _server()
        server.handle_query(1.0, SRC, Transport.UDP, _query("www.example.nl"))
        server.handle_query(2.0, SRC, Transport.UDP, _query("WWW.Example.NL"))
        assert server.stats.plan_hits == 0
        assert list(server.capture.view().qname) == [
            "www.example.nl.", "WWW.Example.NL.",
        ]

    def test_eviction_bound(self, monkeypatch, force_caches):
        monkeypatch.setattr(authoritative, "PLAN_CACHE_LIMIT", 4)
        server = _server()
        for i in range(6):
            server.handle_query(
                float(i), SRC, Transport.UDP, _query(f"host{i}.example.nl")
            )
        assert server.stats.plan_evictions >= 1
        # Still answers correctly after the flush.
        response = server.handle_query(
            9.0, SRC, Transport.UDP, _query("host0.example.nl")
        )
        assert response is not None

    def test_disabled_via_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_PLAN_CACHE", "0")
        server = _server()
        assert server._plans is None
        server.handle_query(1.0, SRC, Transport.UDP, _query("www.example.nl"))
        server.handle_query(2.0, SRC, Transport.UDP, _query("www.example.nl"))
        assert server.stats.plan_hits == 0
        assert server.stats.plan_misses == 0

    def test_simulated_plans_carry_no_encoding(self, force_caches):
        """The cached encoding belongs to the live endpoint.  The
        simulator's loop replays plans all day and never encodes one."""
        run = run_dataset(
            dataset(DATASET), seed=SEED, client_queries=QUERIES, workers=1
        )
        assert run.telemetry.total("runtime.plan_cache.hits") > 0
        # workers=1: the returned servers carry their post-run state.
        plans = [
            plan
            for server_set in run.server_sets.values()
            for server in server_set
            for plan in server._plans.values()
        ]
        assert plans
        assert all(plan.wire is None and plan.question_end == 0 for plan in plans)


#: Runs that between them reach every send-path table: validators and
#: Q-min (nl), the root path (root), and the cyclic chase with retries
#: and failover under packet loss (the Feb-2020 .nz month, Google only).
SEND_PATH_RUNS = {
    "nl-w2020": lambda: dataset("nl-w2020"),
    "root-2020": lambda: dataset("root-2020"),
    "nz-google-2020-02+heavy-loss": lambda: replace(
        monthly_google_descriptor("nz", 2020, 2),
        fault_plan=chaos_scenario("heavy-loss"),
    ),
}


class TestSendPathKeys:
    """The resolver's and the server's tables are keyed by ``Name.key``
    (a tuple of bytes) and compare label counts, never names: no
    Python-level ``Name.__hash__`` / ``__eq__`` runs on the send path.
    A wrapper's caller frame is the Python function that made the call,
    also when it went through a C-level ``dict.get`` or ``in``."""

    @pytest.mark.parametrize("run", sorted(SEND_PATH_RUNS))
    def test_no_name_hash_or_eq_from_resolver_or_server(
        self, run, force_caches, monkeypatch
    ):
        callers: Counter = Counter()
        real_hash, real_eq = Name.__hash__, Name.__eq__

        def traced_hash(self):
            callers[sys._getframe(1).f_globals.get("__name__")] += 1
            return real_hash(self)

        def traced_eq(self, other):
            callers[sys._getframe(1).f_globals.get("__name__")] += 1
            return real_eq(self, other)

        monkeypatch.setattr(Name, "__hash__", traced_hash)
        monkeypatch.setattr(Name, "__eq__", traced_eq)
        result = run_dataset(
            SEND_PATH_RUNS[run](), seed=SEED, client_queries=QUERIES, workers=1
        )
        assert result.telemetry.total("runtime.plan_cache.hits") > 0
        assert {Name.from_text("probe.nl")}  # the wrappers are live
        assert callers[__name__] == 1
        offenders = {
            module: count
            for module, count in callers.items()
            if module.startswith(("repro.resolver", "repro.server"))
        }
        assert offenders == {}


class TestEnvironmentCache:
    def test_acquire_pops_exclusively(self):
        cache = EnvironmentCache(capacity=4)
        cache.release("fp", "env")
        assert cache.acquire("fp") == "env"
        assert cache.acquire("fp") is None  # popped: second acquire misses
        assert cache.hits == 1
        assert cache.misses == 1

    def test_capacity_evicts_oldest(self):
        cache = EnvironmentCache(capacity=2)
        cache.release("a", 1)
        cache.release("b", 2)
        cache.release("c", 3)
        assert cache.evictions == 1
        assert cache.acquire("a") is None
        assert cache.acquire("b") == 2
        assert cache.acquire("c") == 3

    def test_capacity_zero_disables(self):
        cache = EnvironmentCache(capacity=0)
        cache.release("fp", "env")
        assert len(cache) == 0
        assert cache.acquire("fp") is None
        assert cache.share("fp") is None

    def test_share_reads_without_checking_out(self):
        """Immutable entries (sealed zones) have any number of holders."""
        cache = EnvironmentCache(capacity=4)
        assert cache.share(("nz", 340, 120)) is None
        cache.release(("nz", 340, 120), "zone")
        assert cache.share(("nz", 340, 120)) == "zone"
        assert cache.share(("nz", 340, 120)) == "zone"
        assert (cache.hits, cache.misses) == (2, 1)
