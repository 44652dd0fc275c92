"""World sharing: zones memoised per spec, fleets borrowed per
``(vantage, year, seed)`` and rewound, a per-dataset overlay on top.

That whatever the process built or ran before, a dataset's capture and
simulation counters are the table's — in any order, and on the reference
path (both stores swapped for capacity-0 ones, every world built from
scratch) — is pinned in ``test_oracle`` (its world-store bag and its
``nostore`` rows).  Here:
the pieces that make it so — the rewind, the seal, the exclusive
checkout — each on its own.
"""

import pytest

from repro.clouds import FleetResolver
from repro.dnscore import ARdata, Name, RRType
from repro.netsim import GAZETTEER, IPAddress
from repro.resolver import ResolverBehavior, SimResolver
from repro.sim import forget_worlds, run_dataset, worlds
from repro.sim.driver import build_environment
from repro.telemetry import MetricsRegistry
from repro.workload import dataset
from repro.zones import RRset

from .test_oracle import BAG_ORDERS, CASES, ORACLE, QMIN_OFF

SEED = 20201027


class TestOrderIndependence:
    def test_the_bag_has_teeth(self):
        """Both bag orders visit every ``.nz`` case, and the cases differ
        where a leak would show: the forced-off Q-min month against its
        paper twin, the weekly against its chaos twin."""
        nz = sorted(case for case in CASES if case.startswith("nz-"))
        assert all(sorted(order) == nz for order in BAG_ORDERS.values())
        for a, b in (
            ("nz-google-qmin-off", "nz-google-2019-12"),
            ("nz-w2020", "nz-w2020+flaky-server"),
        ):
            assert ORACLE[a]["capture"] != ORACLE[b]["capture"]
            assert ORACLE[a]["counters"] != ORACLE[b]["counters"]


class TestBorrowing:
    def test_override_does_not_outlive_the_borrow(self):
        forget_worlds()
        metrics = MetricsRegistry()
        env = build_environment(dataset("nz-w2020"), SEED, metrics)
        part = env.fleet_part
        members = len(part.members)
        google = [m for m in part.members if m.provider == "Google"]
        assert all(m.resolver.behavior.qname_minimization for m in google)
        worlds.return_fleet(part, metrics)
        env = build_environment(QMIN_OFF, SEED, metrics)
        assert env.fleet_part is part  # the same fleet, borrowed again
        assert {m.provider for m in env.fleet} == {"Google"}
        assert not any(m.resolver.behavior.qname_minimization for m in env.fleet)
        # The filter is the environment's own list, never the part's.
        assert len(part.members) == members
        worlds.return_fleet(part, metrics)
        assert all(m.resolver.behavior.qname_minimization for m in google)
        snapshot = metrics.snapshot()
        assert snapshot.counter("runtime.env_cache.miss", part="fleet") == 1
        assert snapshot.counter("runtime.env_cache.hit", part="fleet") == 1

    def test_a_fleet_is_checked_out_by_one_environment_at_a_time(self):
        forget_worlds()
        metrics = MetricsRegistry()
        descriptor = dataset("nz-w2018")
        first = build_environment(descriptor, SEED, metrics)
        second = build_environment(descriptor, SEED, metrics)
        assert first.fleet_part is not second.fleet_part
        assert first.fleet[0].resolver is not second.fleet[0].resolver
        # ...while the sealed zones are one object in both.
        assert first.vantage_zone is second.vantage_zone
        snapshot = metrics.snapshot()
        assert snapshot.counter("runtime.env_cache.miss", part="fleet") == 2
        assert snapshot.counter("runtime.env_cache.miss", part="zone") == 2  # root + nz
        assert snapshot.counter("runtime.env_cache.hit", part="zone") == 2
        worlds.return_fleet(first.fleet_part, metrics)
        worlds.return_fleet(second.fleet_part, metrics)

    def test_collect_all_builds_each_world_once(self, serial_matrix):
        """The whole matrix: nine (vantage, year) fleets, four registry
        zone specs and the root for 39 environments.  A miss in
        a store is a real build; the ``zone_build`` / ``fleet_build``
        phases open once per assembled environment."""
        reports, snapshot = serial_matrix
        assert len(reports) == 43
        assert snapshot.counter("runtime.env_cache.miss", part="fleet") <= 9
        assert snapshot.counter("runtime.env_cache.miss", part="zone") <= 5
        assert snapshot.counter("runtime.env_cache.hit", part="fleet") >= 30
        assert snapshot.phases["fleet_build"]["count"] >= 39


class TestSealedZones:
    def test_memoised_zones_refuse_changes(self):
        env_zone = worlds.vantage_zone(dataset("nz-w2018"), MetricsRegistry())
        root = worlds.root_zone(MetricsRegistry())
        for zone, label in ((env_zone, "nz."), (root, ".")):
            with pytest.raises(ValueError, match="sealed") as raised:
                zone.add_delegation(
                    zone.origin.prepend(b"intruder"), [Name.from_text("ns.example")]
                )
            assert f"zone {label} " in str(raised.value)
            with pytest.raises(ValueError, match="sealed"):
                zone.add_rrset(RRset(
                    zone.origin.prepend(b"intruder"), RRType.A, 60, [ARdata(1)]
                ))
        # Lookups still fill the zone's memos.
        assert env_zone.lookup(
            env_zone.delegation_names[0].prepend(b"www"), RRType.A
        ) is not None

    def test_forget_worlds_empties_every_store(self):
        run_dataset(dataset("nz-w2018"), seed=SEED, client_queries=50)
        assert worlds.ZONES._entries and worlds.FLEETS._entries
        forget_worlds()
        assert not worlds.ZONES._entries and not worlds.FLEETS._entries


def _resolver(seed=5):
    return SimResolver(
        "r1", GAZETTEER["AMS"],
        IPAddress.parse("192.0.2.1"), IPAddress.parse("2001:db8::1"),
        ResolverBehavior(validates_dnssec=True, set_do=True, family_policy="fixed"),
        seed=seed,
    )


def _drive(resolver, world):
    """Resolve a fixed script; returns the authoritative queries it caused."""
    world["nl_capture"].release()
    zone = world["nl_zone"]
    for step, child in enumerate(zone.delegation_names[:25] * 2):
        resolver.resolve(
            world["network"], 1000.0 + step, child.prepend(b"www"), RRType.A
        )
    view = world["nl_capture"].view()
    return (
        view.timestamp.tolist(), view.qname.tolist(), view.qtype.tolist(),
        view.server_id.tolist(), view.family.tolist(), view.transport.tolist(),
    )


class TestRewind:
    def test_rewound_resolver_replays_like_a_fresh_one(self, small_world):
        resolver = _resolver()
        first = _drive(resolver, small_world)
        assert first[0] and resolver.stats.auth_queries
        resolver.reset_session()
        assert resolver.stats.client_queries == 0
        assert "_rng" not in vars(resolver)  # seeded again on the next draw
        assert _drive(resolver, small_world) == first
        assert _drive(_resolver(), small_world) == first

    def test_untouched_resolvers_are_skipped(self, small_world):
        asked, idle = _resolver(1), _resolver(2)
        members = [
            FleetResolver(r, "Google", "cloud", 1.0, 0.0) for r in (asked, idle)
        ]
        _drive(asked, small_world)
        caches = asked.cache, idle.cache
        worlds.rewind_resolvers(members)
        assert asked.cache is not caches[0] and asked.stats.client_queries == 0
        assert idle.cache is caches[1]
        assert "_rng" not in vars(idle)  # never drew, never seeded

    def test_rewound_fleet_drives_as_built(self, small_world):
        forget_worlds()
        metrics = MetricsRegistry()
        env = build_environment(dataset("nz-w2018"), SEED, metrics)
        first = _drive(env.fleet[0].resolver, small_world)
        worlds.return_fleet(env.fleet_part, metrics)
        part = worlds.FLEETS.acquire(env.fleet_part.key)
        assert _drive(part.members[0].resolver, small_world) == first
