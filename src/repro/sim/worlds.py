"""What simulated worlds share: zones and resolver fleets.

The paper's nine snapshots and the monthly Google samples behind Figure 3
are cuts of three vantages, so most of what
:func:`repro.sim.driver.build_environment` needs for one dataset was
already built for another: four registry-zone specs and nine
``(vantage, year)`` fleets cover the whole report matrix.  This module
keeps those parts for the life of the process; the driver assembles a
per-dataset overlay (servers and their plan caches, capture, authority
network, fault injector, the ``providers_only`` filter and the Q-min
override) on top of them.

* **Zones are shared.**  The root zone and each registry zone are built
  once per spec and handed to every world that asks.  The memo seals them
  (:meth:`repro.zones.Zone.seal`), so no world can change what another
  serves; their referral/signature memos are bounded by
  :data:`repro.zones.zone.MEMO_LIMIT` and live as long as the zone.
* **Fleets are borrowed.**  A fleet, its AS registry and PTR table are one
  :class:`FleetPart` keyed ``(vantage, year, seed)``, checked out by at
  most one environment at a time (:meth:`EnvironmentCache.acquire` pops)
  and rewound — resolver sessions *and* behaviours — when it comes back.
  The shards of a pooled run borrow it too: the parent parks it before
  the pool forks (:func:`repro.sim.driver.run_dataset`).

Both stores are :class:`~repro.runtime.EnvironmentCache` instances of
the default capacity.  Swapping both for ``EnvironmentCache(0)`` shares
nothing, so every dataset builds its world from scratch — the reference
path; forked pool workers inherit the swap.
``runtime.env_cache.{hit,miss}`` with a ``part`` label count every lookup:
a ``miss`` is a real build, a ``hit`` a part some earlier world paid for.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Hashable, Iterable, List, Optional, Tuple

from ..clouds import FleetResolver, PTRTable, build_all_fleets, build_facebook_ptr_table
from ..netsim import ASRegistry
from ..resolver import ResolverBehavior, seed_fleet
from ..runtime import EnvironmentCache
from ..telemetry import MetricsRegistry
from ..workload import DatasetDescriptor
from ..zones import Zone, ZoneSpec, build_registry_zone, build_root_zone

ZONES = EnvironmentCache()
FLEETS = EnvironmentCache()


def forget_worlds() -> None:
    """Drop every parked fleet and every memoised zone: the next dataset
    builds its whole world, as a fresh process would."""
    ZONES.clear()
    FLEETS.clear()


def count_lookup(metrics: MetricsRegistry, part: str, found: bool) -> None:
    """Book one store lookup as ``runtime.env_cache.{hit,miss}{part=}``."""
    name = "runtime.env_cache.hit" if found else "runtime.env_cache.miss"
    metrics.counter(name, part=part).inc()


# -- zones -------------------------------------------------------------------------

def _shared_zone(key: Hashable, build, metrics: MetricsRegistry) -> Zone:
    zone = ZONES.share(key)
    count_lookup(metrics, "zone", zone is not None)
    if zone is None:
        zone = build().seal()
        ZONES.release(key, zone)
    return zone


def root_zone(metrics: MetricsRegistry) -> Zone:
    """The (sealed) synthetic root zone every world resolves through."""
    return _shared_zone("root", lambda: build_root_zone(seed=7), metrics)


def vantage_zone(
    descriptor: DatasetDescriptor, metrics: MetricsRegistry
) -> Optional[Zone]:
    """The (sealed) registry zone of the descriptor's vantage, ``None`` for
    root.  The spec is a function of the vantage and the two zone sizes."""
    if descriptor.vantage == "root":
        return None
    spec = ZoneSpec(
        origin=descriptor.vantage,
        second_level_count=descriptor.zone_second_level,
        third_level_count=descriptor.zone_third_level,
        signed_fraction=0.55 if descriptor.vantage == "nl" else 0.35,
        # zlib.crc32, not hash(): str hashing is salted per process and
        # would break cross-run determinism of the zone content.
        seed=zlib.crc32(descriptor.vantage.encode()) % (2**31),
    )
    key = (spec.origin, spec.second_level_count, spec.third_level_count)
    return _shared_zone(key, lambda: build_registry_zone(spec), metrics)


# -- fleets ------------------------------------------------------------------------

def rewind_resolvers(fleet: Iterable[FleetResolver]) -> None:
    """Reset the session of every member that was asked anything.  A
    resolver only changes by answering client queries, so the others —
    about half a fleet in a scaled-down run — are already as built."""
    for member in fleet:
        resolver = member.resolver
        if resolver.stats.client_queries:
            resolver.reset_session()


@dataclass
class FleetPart:
    """One built resolver population and what is derived from it.

    ``members`` is everything built under ``key`` and is never filtered or
    reordered by a borrower; ``behaviors`` holds each member's behaviour as
    built, which :meth:`rewind` puts back (a monthly run's Q-min override
    replaces ``resolver.behavior`` in place).  ``registry`` and
    ``ptr_table`` are immutable and cover the whole population, whatever a
    borrower keeps of it.
    """

    key: Hashable
    members: List[FleetResolver]
    registry: ASRegistry
    ptr_table: PTRTable
    behaviors: Tuple[ResolverBehavior, ...]

    def rewind(self) -> None:
        for member, behavior in zip(self.members, self.behaviors):
            member.resolver.behavior = behavior
        rewind_resolvers(self.members)


def borrow_fleet(
    descriptor: DatasetDescriptor, seed: int, metrics: MetricsRegistry
) -> FleetPart:
    """Check out the fleet for the descriptor's ``(vantage, year, seed)``,
    building it when none is parked.  It is always the whole population:
    a ``providers_only`` descriptor filters a list of its own."""
    key = (descriptor.vantage, descriptor.year, seed)
    part = FLEETS.acquire(key)
    count_lookup(metrics, "fleet", part is not None)
    if part is None:
        members, registry = build_all_fleets(descriptor.vantage, descriptor.year, seed)
        seed_fleet([member.resolver for member in members])
        part = FleetPart(
            key=key,
            members=members,
            registry=registry,
            ptr_table=build_facebook_ptr_table(members),
            behaviors=tuple(m.resolver.behavior for m in members),
        )
    return part


def return_fleet(part: FleetPart, metrics: MetricsRegistry) -> None:
    """Rewind a borrowed fleet (``env_reset`` phase) and park it."""
    if FLEETS.capacity == 0:
        return  # nothing is parked: the fleet is dropped as it is
    with metrics.time_phase("env_reset"):
        part.rewind()
    FLEETS.release(part.key, part)
