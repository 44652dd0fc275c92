"""End-to-end dataset simulation.

:func:`run_dataset` executes one capture snapshot: it assembles the
vantage's authoritative deployment over the zones, and borrows the
cloud-provider and background resolver fleets, that the process keeps
between datasets (:mod:`repro.sim.worlds`), drives client query streams
through every resolver, and returns the captured traffic plus everything
the analysis layer needs (AS registry, PTR table, fleet metadata).

This is the reproduction's stand-in for "one week of pcap collection at the
vantage point".

Execution is one pipeline configured by one :class:`~repro.config.RunConfig`:
the fleet is partitioned into weight-balanced contiguous shards
(:func:`repro.runtime.plan_shards`), every shard runs through
:func:`_run_shard` — one shard over the whole fleet, in-process against
the environment built here (``workers == 1``, the default, or a run with
no client queries), or one per worker behind :func:`simulate_shard`
(:class:`repro.runtime.ShardExecutor`) — and
:func:`_assemble` merges the shard results into the :class:`DatasetRun`,
so the result is bit-identical whatever the backend.  Rows become columns
once, in the shard that appended them; from there the capture is columnar
chunks (:mod:`repro.capture.spool`), and its whole view always comes back
in canonical ``(timestamp, server_id)`` order.

Every run is instrumented through :mod:`repro.telemetry`: phase spans
(``zone_build`` / ``fleet_build`` for assembling a world, ``env_reset``
for rewinding a borrowed fleet, ``workload`` / ``resolve``, plus the
``runtime.plan`` / ``runtime.execute`` / ``runtime.merge`` and per-shard
``runtime.shard.<i>`` spans), per-provider client-query counters,
aggregated resolver/server/capture counters, and periodic progress logging
on the ``repro.sim`` logger.  The frozen
:class:`~repro.telemetry.TelemetrySnapshot` rides on the returned
:class:`DatasetRun`, alongside the :class:`~repro.runtime.RuntimeReport`
describing how the shards actually executed.
"""

from __future__ import annotations

import logging
import operator
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, replace as dc_replace
from functools import lru_cache
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from ..capture import CaptureSpool, CaptureStore, SpooledCapture
from ..clouds import FleetResolver, PTRTable
from ..config import RunConfig, check_volume
from ..dnscore import Name, RRType
from ..faults import FaultInjector, derive_fault_seed
from ..netsim import ASRegistry, GAZETTEER, LatencyModel
from ..resolver import AuthorityNetwork, CyclicPair, SyntheticLeafAuthority
from ..runtime import (
    RuntimeReport,
    ShardExecutor,
    ShardResult,
    ShardTask,
    collector_paused,
    plan_shards,
    record_outcome,
)
from ..server import AuthoritativeServer, ServerSet
from ..telemetry import MetricsRegistry, TelemetrySnapshot
from ..workload import DatasetDescriptor, DiurnalPattern, WorkloadGenerator
from ..zones import DEFAULT_TLDS, Zone, domains_of, word_stream
from . import worlds

logger = logging.getLogger("repro.sim")

#: Wall-clock seconds between progress lines on the ``repro.sim`` logger.
PROGRESS_INTERVAL_S = 5.0

@dataclass
class DatasetRun:
    """Everything produced by simulating one dataset.

    ``capture`` is the shards' columnar chunks in shard order — held in
    memory, or, when the run has a spool directory, spilled to chunk
    files: ``len()``, ``rows_appended``, ``iter_views()`` and the
    canonical whole ``view()``.  ``aggregates``
    (:class:`~repro.analysis.streaming.AggregateSet`) is what the shards
    folded while freezing those chunks, merged; every
    :meth:`DatasetAnalytics.of <repro.analysis.DatasetAnalytics.of>`
    answer comes from it.

    ``fleet`` is a *borrowed* handle: the resolvers went back to the
    process's fleet store (:mod:`repro.sim.worlds`) when the run was
    assembled, rewound, and the next dataset of the same ``(vantage, year,
    seed)`` drives them again.  Read who the members are (addresses,
    providers, weights) from it, never what they did — that is in
    ``telemetry``.  ``registry`` and ``ptr_table`` are immutable and safe
    to keep.
    """

    descriptor: DatasetDescriptor
    #: traffic at the captured vantage servers
    capture: SpooledCapture
    registry: ASRegistry
    fleet: List[FleetResolver]
    ptr_table: PTRTable
    network: AuthorityNetwork
    vantage_zone: Optional[Zone]
    server_sets: Dict[str, ServerSet]
    client_queries_run: int = 0
    telemetry: Optional[TelemetrySnapshot] = None
    runtime_report: Optional[RuntimeReport] = None
    aggregates: Optional[object] = None

    @property
    def vantage_server_ids(self) -> List[str]:
        return [spec.server_id for spec in self.descriptor.servers if spec.captured]


@dataclass
class SimEnvironment:
    """The fully-built deterministic world for one dataset.

    Constructed identically (given ``(descriptor, seed)``) in the parent
    and in every pool worker; only the member range each party *resolves*
    differs.  All cross-member state in here is deterministic — the latency
    model and anycast catchments are memoised pure functions, the leaf
    authority is hash-based, and every resolver carries its own RNG — which
    is what makes shard placement invisible in the results.

    The zones are shared with every other world of the process (sealed)
    and ``fleet`` / ``registry`` / ``ptr_table`` are borrowed from
    ``fleet_part`` for as long as this environment is live
    (:func:`repro.sim.worlds.return_fleet` ends that); servers, capture,
    network and fault injector are this dataset's own.
    """

    descriptor: DatasetDescriptor
    seed: int
    vantage_zone: Optional[Zone]
    capture: CaptureStore
    server_sets: Dict[str, ServerSet]
    network: AuthorityNetwork
    storm_domains: List[Name]
    #: the members this dataset drives: the part's, or those of them
    #: ``providers_only`` keeps (a list of its own, never the part's)
    fleet: List[FleetResolver]
    registry: ASRegistry
    ptr_table: PTRTable
    fleet_part: worlds.FleetPart


def _build_servers(
    descriptor: DatasetDescriptor,
    zone: Zone,
    capture: Optional[CaptureStore],
    latency: LatencyModel,
) -> ServerSet:
    servers = [
        AuthoritativeServer(
            spec.server_id,
            zone,
            [GAZETTEER[code] for code in spec.site_codes],
            capture=capture if spec.captured else None,
        )
        for spec in descriptor.servers
    ]
    return ServerSet(servers, latency)


def _apply_qmin_override(fleet: Sequence[FleetResolver], enabled: bool) -> None:
    """Force Google's Q-min switch (the monthly Figure 3 runs)."""
    for member in fleet:
        if member.provider == "Google":
            behavior = member.resolver.behavior
            member.resolver.behavior = dc_replace(
                behavior, qname_minimization=enabled
            )


@dataclass
class AuthorityWorld:
    """The authoritative half of a simulated world: zones, server sets,
    authority network, and the capture store they feed.

    It is also everything the live service needs to answer a socket (from
    the vantage's first server) — the resolver *fleet* (thousands of
    simulated clients) is a simulation-only concern layered on top by
    :func:`build_environment`.
    """

    vantage_zone: Optional[Zone]
    capture: CaptureStore
    #: The vantage's set, then the root's (``root-2020``: the root's alone).
    server_sets: Dict[str, ServerSet]
    network: AuthorityNetwork
    storm_domains: List[Name]


def build_authority_world(
    descriptor: DatasetDescriptor,
    seed: int,
    metrics: MetricsRegistry,
) -> AuthorityWorld:
    """Build the authoritative side of a dataset's world (no fleets).

    Timed under the ``zone_build`` phase.  The zones come from the
    process's zone memo (``runtime.env_cache.miss{part=zone}`` counts the
    ones really built); servers, capture, network and fault injector are
    built here, per dataset.  Deterministic given ``(descriptor, seed)`` —
    this is the common prefix of :func:`build_environment` and the live
    service's startup, so both serve byte-identical zone content.
    """
    latency = LatencyModel()

    with metrics.time_phase("zone_build"):
        vantage_zone = worlds.vantage_zone(descriptor, metrics)
        capture = CaptureStore()
        server_sets: Dict[str, ServerSet] = {}

        root_zone = worlds.root_zone(metrics)
        if descriptor.vantage == "root":
            root_set = _build_servers(descriptor, root_zone, capture, latency)
            tld_sets: Dict[Name, ServerSet] = {}
        else:
            root_set = ServerSet(
                [
                    AuthoritativeServer(
                        "root-x", root_zone,
                        [GAZETTEER[c] for c in ("LAX", "AMS", "SIN")],
                        capture=None,
                    )
                ],
                latency,
            )
            tld_set = _build_servers(descriptor, vantage_zone, capture, latency)
            tld_sets = {vantage_zone.origin: tld_set}
            server_sets[descriptor.vantage] = tld_set
        server_sets["root"] = root_set

        # The Feb-2020 .nz misconfiguration: two domains in a cyclic NS loop.
        storm_domains: List[Name] = []
        leaf = SyntheticLeafAuthority()
        if descriptor.cyclic_event and vantage_zone is not None:
            pair_domains = domains_of(vantage_zone)[:2]
            leaf = SyntheticLeafAuthority(
                [CyclicPair(pair_domains[0], pair_domains[1])]
            )
            storm_domains = list(pair_domains)

        network = AuthorityNetwork(root=root_set, tlds=tld_sets, leaf=leaf)

        # Chaos: resolve the descriptor's fault plan (if any) against this
        # dataset's capture window.  A disabled/empty plan attaches nothing,
        # keeping the zero-fault path literally identical to no plan at all.
        plan = descriptor.fault_plan
        if plan is not None and plan.enabled:
            fault_seed = plan.seed if plan.seed is not None else derive_fault_seed(seed)
            network.faults = FaultInjector(
                plan, fault_seed, descriptor.start, descriptor.duration
            )
            logger.info(
                "chaos plan %r active (seed %d): loss=%.3f outages=%d "
                "blackouts=%d latency=%d storms=%d",
                plan.name or "<unnamed>", fault_seed, plan.packet_loss,
                len(plan.outages), len(plan.blackouts), len(plan.latency),
                len(plan.storms),
            )

    return AuthorityWorld(
        vantage_zone=vantage_zone,
        capture=capture,
        server_sets=server_sets,
        network=network,
        storm_domains=storm_domains,
    )


def build_environment(
    descriptor: DatasetDescriptor, seed: int, metrics: MetricsRegistry
) -> SimEnvironment:
    """Assemble the simulated world for one dataset (no queries run).

    Timed under the ``zone_build`` / ``fleet_build`` phases.  The shared
    parts — zones, the ``(vantage, year, seed)`` fleet with its registry
    and PTR table — come from :mod:`repro.sim.worlds`, built only when the
    process does not hold them yet (``runtime.env_cache.miss``); what the
    descriptor owns is built here, over them.
    Deterministic given ``(descriptor, seed)`` — pool workers call this
    independently and arrive at the same world as the parent.  The fleet
    is checked out until :func:`repro.sim.worlds.return_fleet`.
    """
    # -- authoritative side ---------------------------------------------------
    world = build_authority_world(descriptor, seed, metrics)

    # -- resolver fleets ---------------------------------------------------------
    with metrics.time_phase("fleet_build"):
        part = worlds.borrow_fleet(descriptor, seed, metrics)
        fleet = part.members
        if descriptor.providers_only is not None:
            fleet = [m for m in fleet if m.provider in descriptor.providers_only]
        if descriptor.qmin_override is not None:
            _apply_qmin_override(fleet, descriptor.qmin_override)

    return SimEnvironment(
        descriptor=descriptor,
        seed=seed,
        vantage_zone=world.vantage_zone,
        capture=world.capture,
        server_sets=world.server_sets,
        network=world.network,
        storm_domains=world.storm_domains,
        fleet=fleet,
        registry=part.registry,
        ptr_table=part.ptr_table,
        fleet_part=part,
    )


@contextmanager
def borrowed_environment(
    descriptor: DatasetDescriptor, seed: int, metrics: MetricsRegistry
):
    """``with borrowed_environment(...) as env``: :func:`build_environment`
    on entry, the fleet returned on exit — the entry point for code that
    drives a world by hand instead of through :func:`run_dataset`.  What
    the resolvers counted has to be read inside the block: returning the
    fleet rewinds them."""
    env = build_environment(descriptor, seed, metrics)
    try:
        yield env
    finally:
        worlds.return_fleet(env.fleet_part, metrics)


# -- telemetry aggregation -------------------------------------------------------

#: ``(counter name, ResolverStats attribute)`` pairs rolled up per provider.
#: ``resolver.retry.timeouts`` intentionally republishes ``drops`` — every
#: drop costs one timeout wait.
_FLEET_COUNTERS = (
    ("resolver.client_queries", "client_queries"),
    ("resolver.auth_queries", "auth_queries"),
    ("resolver.tcp_retries", "tcp_retries"),
    ("resolver.servfails", "servfails"),
    ("resolver.drops", "drops"),
    ("resolver.cache_hits", "cache_hits"),
    ("resolver.cache_misses", "cache_misses"),
    ("resolver.retry.timeouts", "drops"),
    ("resolver.retry.retransmits", "retransmits"),
    ("resolver.retry.failovers", "failovers"),
    ("resolver.retry.exhausted", "retry_exhausted"),
)

_FLEET_ATTRS = tuple(dict.fromkeys(attr for _, attr in _FLEET_COUNTERS))

#: A member's ``_FLEET_ATTRS`` values in one call.
_fleet_values = operator.attrgetter(*_FLEET_ATTRS)


@lru_cache(maxsize=None)
def _qtype_label(qtype: int) -> str:
    """Memoised qtype → counter-label text (the enum lookup raises on
    unknown types, which makes it surprisingly costly to call per member)."""
    try:
        return RRType(qtype).name
    except ValueError:
        return str(qtype)


def publish_fleet_metrics(metrics: MetricsRegistry, fleet: Iterable) -> None:
    """Roll every fleet member's :class:`~repro.resolver.engine.ResolverStats`
    up into per-provider ``resolver.*`` counters and per-qtype send counts.

    ``fleet`` needs only ``.provider`` and ``.resolver.stats`` attributes,
    so tests can feed stripped-down stand-ins.  Sharded runs pass each
    shard's member slice so worker-side publishes never double-count.

    Sums are accumulated per provider in plain dicts first and the registry
    (label-dict key construction, counter lookup) is touched once per
    provider rather than once per member — fleets run to thousands of
    members but only a handful of providers.
    """
    provider_sums: Dict[str, Dict[str, int]] = {}
    qtype_sums: Dict[int, int] = {}
    for member in fleet:
        stats = member.resolver.stats
        sums = provider_sums.get(member.provider)
        if sums is None:
            sums = provider_sums[member.provider] = dict.fromkeys(_FLEET_ATTRS, 0)
        for attr, value in zip(_FLEET_ATTRS, _fleet_values(stats)):
            sums[attr] += value
        for qtype, count in stats.by_qtype.items():
            qtype_sums[qtype] = qtype_sums.get(qtype, 0) + count
    for provider, sums in provider_sums.items():
        for counter_name, attr in _FLEET_COUNTERS:
            metrics.counter(counter_name, provider=provider).inc(sums[attr])
        # No resolver serves stale answers; the counter stays published, at
        # 0, because the oracle's counters digests hold it.
        metrics.counter("resolver.retry.stale_served", provider=provider).inc(0)
    for qtype, count in sorted(qtype_sums.items()):
        metrics.counter("resolver.sends", qtype=_qtype_label(qtype)).inc(count)


def publish_server_metrics(
    metrics: MetricsRegistry, server_sets: Dict[str, ServerSet]
) -> None:
    """Aggregate every authoritative server's counters (queries served,
    rcode mix, truncation) into the registry."""
    for server_set in server_sets.values():
        for server in server_set:
            server.publish_metrics(metrics)


def _publish_environment_metrics(metrics: MetricsRegistry, env: SimEnvironment) -> None:
    """Everything the environment as a whole counted: authoritative
    servers, the fault injector and the capture.  Published once per
    environment — shards that share one (the in-process backend) share its
    servers and its capture, so only the shard that closes it calls this."""
    publish_server_metrics(metrics, env.server_sets)
    if env.network.faults is not None:
        env.network.faults.publish_metrics(metrics)
    env.capture.publish_metrics(metrics)
    metrics.gauge("sim.fleet_size").set(len(env.fleet))


# -- the hand-over ----------------------------------------------------------------

def _freeze_capture(env: SimEnvironment, metrics: MetricsRegistry, task: ShardTask):
    """One pass over the environment's append buffer, the one time its
    rows become columns; returns ``(chunks, row_counts, aggregates)``.

    Each bounded chunk view is attributed and fed to a fresh
    :class:`~repro.analysis.streaming.AggregateSet` — the run's one fold —
    and kept as it is, or, under a spool directory (``task.spool_dir``,
    the parent's, so the files outlive a pool worker), written out as one
    compressed chunk file whose path is handed over instead.
    """
    # Lazy imports: repro.analysis is a consumer of this module's output
    # everywhere else; importing it at call time keeps the sim package
    # importable without the analysis layer loaded.
    from ..analysis import AggregateSet, Attributor
    from ..clouds import PROVIDERS

    spool = CaptureSpool(directory=task.spool_dir, shard_index=task.shard_index)
    aggregates = AggregateSet()
    attributor = Attributor(env.registry, PROVIDERS)
    chunks, row_counts = [], []
    with metrics.time_phase("runtime.fold"):
        for view in env.capture.iter_views():
            aggregates.feed(view, attributor.attribute(view))
            chunks.append(view if task.spool_dir is None else spool.write_view(view))
            row_counts.append(len(view))
    metrics.counter("runtime.rows_folded").inc(aggregates.rows_fed)
    if task.spool_dir is not None:
        metrics.counter("capture.spool.chunks").inc(len(chunks))
        metrics.counter("capture.spool.rows").inc(spool.rows_spooled)
        metrics.counter("capture.spool.bytes").inc(spool.bytes_written)
    return chunks, row_counts, aggregates


# -- the resolve loop ------------------------------------------------------------

def member_query_counts(
    weights: Sequence[float], total_queries: int
) -> np.ndarray:
    """Apportion ``total_queries`` over fleet members by traffic weight.

    Cumulative-floor (largest-remainder over the cumulative sum)
    apportionment: member *i* receives
    ``floor(total·W_i/W) − floor(total·W_{i−1}/W)`` where ``W_i`` is the
    cumulative weight through member *i*.  Two invariants hold exactly,
    and are property-tested in ``tests/test_runtime.py``:

    * the counts **telescope to ``total_queries``** (the last cumulative
      ratio is exactly 1.0, so the bounds end at ``total``) — unlike the
      previous per-member ``int(round(...))``, whose independent rounding
      drifted the fleet-wide sum by dozens of queries;
    * each member's count depends only on the *full* fleet's weights,
      never on how members are partitioned into shard ranges, so any
      partition sums to the same per-member traffic.

    A volume past :data:`~repro.config.MAX_CLIENT_QUERIES` raises
    ``ValueError``: its bounds would not fit the int64 counts.
    """
    check_volume(total_queries)
    weights = np.asarray(weights, dtype=np.float64)
    cumulative = np.cumsum(weights)
    if len(cumulative) == 0 or cumulative[-1] <= 0:
        raise ValueError("fleet has no traffic weight")
    bounds = np.floor(total_queries * (cumulative / cumulative[-1])).astype(np.int64)
    return np.diff(bounds, prepend=0)


def run_member_range(
    env: SimEnvironment,
    total_queries: int,
    metrics: MetricsRegistry,
    start: int = 0,
    stop: Optional[int] = None,
) -> int:
    """Drive client query streams through fleet members ``[start, stop)``.

    Per-member query counts derive from the *full* fleet's weights
    (:func:`member_query_counts`) and per-member streams are seeded by
    global fleet index, so any partition of the fleet into ranges produces
    exactly the union of the serial run's per-member traffic.  The range's
    seeds are hashed in one pass, and each member's stream is drawn as
    columns (:meth:`~repro.workload.WorkloadGenerator.columns`).
    """
    descriptor = env.descriptor
    stop = len(env.fleet) if stop is None else stop

    domains = domains_of(env.vantage_zone) if env.vantage_zone is not None else []
    generator = WorkloadGenerator(
        vantage=descriptor.vantage,
        domains=domains,
        tld_names=list(DEFAULT_TLDS),
        seed=env.seed,
    )
    pattern = DiurnalPattern(descriptor.start, descriptor.duration)

    counts = member_query_counts(
        [member.weight for member in env.fleet], total_queries
    )
    seeds = generator.member_seeds(start, stop)

    run_count = 0
    clock_s = time.perf_counter
    loop_started = clock_s()
    last_progress = loop_started
    # Both phases are timed by summing clock deltas and booked once per
    # shard: a timer span per member cost more than most members' streams.
    workload_s = resolve_s = 0.0
    # Counter handles resolved once per provider, not once per member —
    # label-dict construction and registry lookup are off the member loop.
    provider_counters: Dict[str, object] = {}
    for index in range(start, stop):
        member = env.fleet[index]
        count = int(counts[index])
        if count <= 0:
            continue
        provider_counter = provider_counters.get(member.provider)
        if provider_counter is None:
            provider_counter = provider_counters[member.provider] = metrics.counter(
                "sim.client_queries", provider=member.provider
            )
        storm_fraction = 0.25 if env.storm_domains and member.provider == "Google" else 0.0
        resolve = member.resolver.resolve
        network = env.network
        started = clock_s()
        stamps, qnames, qtypes = generator.columns(
            word_stream(seeds[index - start]), count, pattern,
            member.junk_fraction, env.storm_domains, storm_fraction,
        )
        generated = clock_s()
        workload_s += generated - started
        for timestamp, qname, qtype in zip(stamps, qnames, qtypes):
            resolve(network, timestamp, qname, qtype)
        done = clock_s()
        resolve_s += done - generated
        run_count += count
        provider_counter.inc(count)
        if done - last_progress >= PROGRESS_INTERVAL_S:
            logger.info(
                "progress: %d/%d client queries (%.0f q/s, %d captured rows,"
                " at %s fleet member %d/%d)",
                run_count, total_queries, run_count / max(done - loop_started, 1e-9),
                env.capture.rows_appended, member.provider, index + 1, len(env.fleet),
            )
            last_progress = done
    if run_count:
        metrics.observe_phase("workload", workload_s)
        metrics.observe_phase("resolve", resolve_s)
    return run_count


def _run_shard(
    env: SimEnvironment, task: ShardTask, metrics: MetricsRegistry
) -> ShardResult:
    """Resolve one shard's member range against ``env``.

    The one per-shard routine of both backends: a pool worker runs it on
    the environment it assembled, a serial run — one shard over the whole
    fleet — on the environment :func:`run_dataset` built.  Each shard has
    its environment to itself, so it also publishes the
    environment-wide metrics and freezes the append buffer into columnar
    chunks (:func:`_freeze_capture`).  Everything the shard measured lands
    in ``metrics`` and returns as a snapshot; only picklable payloads come
    back.
    """
    started = time.perf_counter()
    descriptor = env.descriptor
    stop = len(env.fleet) if task.stop is None else task.stop
    total_queries = (
        descriptor.client_queries
        if task.client_queries is None
        else task.client_queries
    )
    rows_before = env.capture.rows_appended
    queries_run = run_member_range(env, total_queries, metrics, task.start, stop)
    rows_appended = env.capture.rows_appended - rows_before
    publish_fleet_metrics(metrics, env.fleet[task.start:stop])
    _publish_environment_metrics(metrics, env)
    chunks, chunk_row_counts, aggregates = _freeze_capture(env, metrics, task)
    # The rows are columns now; the store — still shared with the
    # servers — starts over.
    env.capture.clear()
    return ShardResult(
        shard_index=task.shard_index,
        rows_appended=rows_appended,
        queries_run=queries_run,
        telemetry=metrics.snapshot(),
        duration_s=time.perf_counter() - started,
        aggregates=aggregates,
        chunks=chunks,
        chunk_row_counts=chunk_row_counts,
    )


def simulate_shard(task: ShardTask) -> ShardResult:
    """Assemble the shard's world and resolve its member range.

    The pool's entry point (via :func:`repro.runtime.execute_shard_task`),
    also run in the parent for serial fallbacks.  The world is assembled
    like any other caller's (:func:`borrowed_environment`): a forked worker
    finds the zones and the fleet its parent parked in the stores it
    inherited and builds only the per-dataset overlay; a spawned one
    builds everything.
    """
    started = time.perf_counter()
    metrics = MetricsRegistry()
    with borrowed_environment(task.descriptor, task.seed, metrics) as env:
        result = _run_shard(env, task, metrics)
    # Busy time as the pool sees it includes assembling the world.
    result.duration_s = time.perf_counter() - started
    return result


def _assemble(
    env: SimEnvironment,
    results: Sequence[ShardResult],
    report: RuntimeReport,
    metrics: MetricsRegistry,
    spool: CaptureSpool,
) -> DatasetRun:
    """Merge shard results, in shard-index order, into the dataset's run.

    Shards are contiguous fleet ranges, so adopting their chunks —
    resident views or chunk files alike — in that order reproduces the
    sequence one shard over the whole fleet appends; :meth:`~repro.capture.SpooledCapture.view` applies the
    stable canonical sort on top, and their folded states merge into
    ``aggregates``.  ``metrics`` is the run's registry
    (world build, plan, executor bookkeeping); every shard's snapshot
    folds into it here.
    """
    from ..analysis import AggregateSet

    descriptor = env.descriptor
    rows_appended = sum(result.rows_appended for result in results)
    with metrics.time_phase("runtime.merge"):
        aggregates = AggregateSet.merge_all([result.aggregates for result in results])
        for result in results:
            spool.adopt(result.chunks, result.chunk_row_counts)
            metrics.merge_snapshot(result.telemetry)
        capture = SpooledCapture(spool, rows_appended)
    # Once, from the merged state: a shard's tally of the distinct values
    # it saw (countries, tracked names) does not add up across shards.
    aggregates.publish_metrics(metrics)
    # A stub gauge (see ``_REMOVED_KEYWORDS``): 1 exactly when chunks spilled.
    metrics.gauge("runtime.stream.enabled").set(1 if spool.chunk_paths() else 0)
    resolve_s = metrics.phase_seconds("resolve")
    if resolve_s > 0:
        # From merged totals, the gauge's one writer: a shard sees only
        # its own resolve time.
        metrics.gauge("capture.append_rows_per_s").set(rows_appended / resolve_s)
    return DatasetRun(
        descriptor=descriptor,
        capture=capture,
        registry=env.registry,
        fleet=env.fleet,
        ptr_table=env.ptr_table,
        network=env.network,
        vantage_zone=env.vantage_zone,
        server_sets=env.server_sets,
        client_queries_run=sum(result.queries_run for result in results),
        runtime_report=report,
        aggregates=aggregates,
    )


# -- the entry point -------------------------------------------------------------

#: Keywords of removed modes.  :func:`run_dataset` and ``ExperimentContext``
#: accept them as ``None``/``False`` (and ``workers=`` beside ``config=``),
#: and runs publish the ``runtime.{vector,stream}.enabled`` gauges, only
#: because bench/workloads.py (frozen outside benchmark PRs) passes them and
#: asserts the gauges; the next benchmark PR drops them there, and then they
#: go here too.
_REMOVED_KEYWORDS = {
    "vector": "the record/replay vector core was removed",
    "stream": "streaming is no longer a mode: every run folds its chunks"
              " in the shards, and RunConfig.spool_dir alone says where they live",
}


def reject_removed_keywords(**values) -> None:
    for keyword, value in values.items():
        if value:
            raise ValueError(
                f"{_REMOVED_KEYWORDS[keyword]}; {keyword}= must be None or False"
            )


@collector_paused()
def run_dataset(
    descriptor: DatasetDescriptor,
    seed: int = 20201027,
    client_queries: Optional[int] = None,
    telemetry: Optional[MetricsRegistry] = None,
    workers: int = 1,
    config: Optional[RunConfig] = None,
    stream: Optional[bool] = None,
    vector: Optional[bool] = None,
) -> DatasetRun:
    """Simulate one dataset and return its capture.

    ``config`` says how the run executes (the fields are documented on
    :class:`~repro.config.RunConfig`); with none, the run is
    ``RunConfig(workers=workers)``.  For a given fault plan every
    configuration yields the same capture bytes.  With
    ``workers=1`` the returned server objects carry their post-run state
    (a pool leaves the parent's cold; their counters live in the merged
    telemetry).  The fleet does not: it is
    borrowed from the process's fleet store and goes back, rewound, once
    the run is assembled — ``DatasetRun.fleet`` says who the resolvers
    are, ``DatasetRun.telemetry`` what they did.

    ``client_queries`` overrides the descriptor's volume (tests use small
    values; full-scale experiments use the descriptor default).

    ``telemetry`` optionally names a session-level registry (e.g. an
    :class:`~repro.experiments.context.ExperimentContext`'s) into which
    this run's metrics are merged; the run itself always instruments a
    fresh registry whose snapshot lands on ``DatasetRun.telemetry``.

    ``workers``, ``vector`` and ``stream`` are stubs beside ``config``
    (:data:`_REMOVED_KEYWORDS`): only ``None``/``False`` are accepted for
    the last two.
    """
    reject_removed_keywords(vector=vector, stream=stream)
    if config is None:
        config = RunConfig(workers=workers)
    metrics = MetricsRegistry()
    metrics.gauge("runtime.vector.enabled").set(0)
    env = build_environment(descriptor, seed, metrics)
    total_queries = (
        descriptor.client_queries if client_queries is None else client_queries
    )

    # Only a pool runs more than one shard: with no client queries there
    # is nothing to spread over workers.
    shard_count = config.workers if total_queries > 0 else 1
    with metrics.time_phase("runtime.plan"):
        plan = plan_shards([member.weight for member in env.fleet], shard_count)
    metrics.counter("runtime.shards_total").inc(len(plan))
    metrics.gauge("runtime.workers").set(config.workers)

    logger.info(
        "run %s: %d client queries over %d resolvers (%d shards, %d workers)",
        descriptor.dataset_id, total_queries, len(env.fleet),
        len(plan), config.workers,
    )

    # The parent owns the run's spool: spilling shards write their chunk
    # files straight into its directory, resident chunks are adopted as
    # they are.
    spool_dir = (
        os.path.join(config.spool_dir, descriptor.dataset_id)
        if config.spool_dir else None
    )
    spool = CaptureSpool(directory=spool_dir)
    tasks = [
        ShardTask(
            descriptor=descriptor,
            seed=seed,
            client_queries=total_queries,
            shard_index=shard.index,
            start=shard.start,
            stop=shard.stop,
            spool_dir=spool_dir,
        )
        for shard in plan
    ]
    pooled = len(plan) > 1
    if pooled:
        # The parent drives no resolver itself: its still-pristine fleet
        # goes back to the store before the pool forks, so every worker
        # (and a serial fallback here) borrows it instead of building one.
        worlds.return_fleet(env.fleet_part, metrics)
        executor = ShardExecutor(config, metrics)
        with metrics.time_phase("runtime.execute"):
            executor.submit(tasks)
            results, report = executor.collect()
    else:
        report = RuntimeReport(mode="serial", workers=1, shard_count=1)
        (task,) = tasks
        with metrics.time_phase("runtime.execute"):
            results = [_run_shard(env, task, MetricsRegistry())]
            record_outcome(report, metrics, task, results[0])
    run = _assemble(env, results, report, metrics, spool)
    if not pooled:
        worlds.return_fleet(env.fleet_part, metrics)
    run.telemetry = metrics.snapshot()

    logger.info(
        "run %s done (%s): %d client queries, %d captured rows, %.2fs resolve time",
        descriptor.dataset_id, report.summary(), run.client_queries_run,
        len(run.capture), run.telemetry.phase_seconds("resolve"),
    )
    if telemetry is not None:
        telemetry.merge_snapshot(run.telemetry)
    return run
