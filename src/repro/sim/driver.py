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
:func:`_run_shard` — in-process against the environment built here
(``workers == 1``, the default) or in pool workers behind
:func:`simulate_shard` (:class:`repro.runtime.ShardExecutor`) — and
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

import itertools
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
from ..config import RunConfig
from ..dnscore import Name, RRType
from ..faults import FaultInjector, derive_fault_seed
from ..netsim import ASRegistry, GAZETTEER, LatencyModel, SimClock
from ..resolver import AuthorityNetwork, CyclicPair, SyntheticLeafAuthority
from ..runtime import (
    RuntimeReport,
    ShardExecutor,
    ShardResult,
    ShardTask,
    plan_shards,
    record_outcome,
)
from ..server import AuthoritativeServer, ServerSet
from ..telemetry import MetricsRegistry, QueryTracer, TelemetrySnapshot, TraceBuffer
from ..workload import DatasetDescriptor, DiurnalPattern, WorkloadGenerator
from ..zones import DEFAULT_TLDS, Zone, domains_of
from . import worlds

logger = logging.getLogger("repro.sim")

#: Queries materialised per workload/resolve phase alternation.  Bounds
#: both the memory held in flight and the timer overhead (two clock reads
#: per chunk, not per query).
_CHUNK = 8192

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
    #: Sampled per-query traces (tracing enabled only), in the serial
    #: member order regardless of worker count.
    traces: Optional[TraceBuffer] = None

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

    This is everything ``repro serve`` needs to answer real sockets — the
    resolver *fleet* (thousands of simulated clients) is a simulation-only
    concern layered on top by :func:`build_environment`.
    """

    vantage_zone: Optional[Zone]
    capture: CaptureStore
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
    service mode's startup, so both serve byte-identical zone content.
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
    ("resolver.retry.stale_served", "stale_served"),
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
    for qtype, count in sorted(qtype_sums.items()):
        metrics.counter("resolver.sends", qtype=_qtype_label(qtype)).inc(count)


def publish_server_metrics(
    metrics: MetricsRegistry, server_sets: Dict[str, ServerSet]
) -> None:
    """Aggregate every authoritative server's counters (queries served,
    rcode mix, truncation, RRL verdicts) into the registry."""
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
    aggregates.publish_metrics(metrics)
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
    """
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
    tracer: Optional[QueryTracer] = None,
    clock: Optional[SimClock] = None,
    progress_interval_s: float = 5.0,
) -> int:
    """Drive client query streams through fleet members ``[start, stop)``.

    Per-member query counts derive from the *full* fleet's weights
    (:func:`member_query_counts`) and per-member streams are seeded by
    global fleet index, so any partition of the fleet into ranges produces
    exactly the union of the serial run's per-member traffic.

    ``clock`` optionally names a :class:`~repro.netsim.SimClock` to keep in
    step with the replay: after each chunk it is advanced to the latest
    timestamp handed out so far (never backwards — member streams overlap
    in sim time).  Queries always carry their own explicit timestamps, so
    the clock is an observer here, not a time source; injecting one changes
    nothing about the capture.

    ``tracer`` enables sampled per-query tracing.  The sampling decision is
    a pure hash of ``(seed, global member index, per-member sequence
    number)``, so the traced population is identical for every shard
    layout; untraced runs skip only the per-query sample check.

    ``progress_interval_s`` is the wall-clock spacing of the progress lines
    on the ``repro.sim`` logger.
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

    run_count = 0
    clock_s = time.perf_counter
    loop_started = clock_s()
    last_progress = loop_started
    # Both phases are timed by summing clock deltas and booked once per
    # shard: a timer span per chunk cost more than most members' streams.
    workload_s = resolve_s = 0.0
    # Counter handles resolved once per provider, not once per member —
    # label-dict construction and registry lookup are off the member loop.
    provider_counters: Dict[str, object] = {}
    sampled = tracer.sampled if tracer is not None else None

    def maybe_progress(provider: str, index: int, now: float) -> None:
        nonlocal last_progress
        if now - last_progress >= progress_interval_s:
            rate = run_count / max(now - loop_started, 1e-9)
            logger.info(
                "progress: %d/%d client queries (%.0f q/s, %d captured rows,"
                " at %s fleet member %d/%d)",
                run_count, total_queries, rate, env.capture.rows_appended,
                provider, index + 1, len(env.fleet),
            )
            last_progress = now

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
        storm_fraction = 0.0
        if env.storm_domains and member.provider == "Google":
            storm_fraction = 0.25
        resolve = member.resolver.resolve
        network = env.network
        stream = generator.generate(
            resolver_index=index,
            count=count,
            pattern=pattern,
            junk_fraction=member.junk_fraction,
            storm_domains=env.storm_domains,
            storm_fraction=storm_fraction,
        )
        member_seq = 0
        resolver_label = f"{member.pool}/{index}"
        started = clock_s()
        while True:
            # Workload generation and the resolve loop alternate in bounded
            # chunks so both phases are timed separately without holding a
            # whole member's query list in memory.
            chunk = list(itertools.islice(stream, _CHUNK))
            generated = clock_s()
            workload_s += generated - started
            if not chunk:
                break
            # One loop for traced and untraced runs: the untraced fast
            # path pays only the (hoisted) ``sampled is None`` check and
            # the sequence increment per query.
            for query in chunk:
                if sampled is not None and sampled(index, member_seq):
                    trace = tracer.begin(
                        index, member_seq, resolver_label,
                        member.provider, query.timestamp,
                        query.qname.to_text(), int(query.qtype),
                    )
                    rcode = resolve(
                        network, query.timestamp, query.qname, query.qtype
                    )
                    tracer.finish(trace, int(rcode))
                else:
                    resolve(network, query.timestamp, query.qname, query.qtype)
                member_seq += 1
            started = clock_s()
            resolve_s += started - generated
            run_count += len(chunk)
            if clock is not None:
                last_ts = chunk[-1].timestamp
                if last_ts > clock.now:
                    clock.advance_to(last_ts)
            provider_counter.inc(len(chunk))
            maybe_progress(member.provider, index, started)
    if run_count:
        metrics.observe_phase("workload", workload_s)
        metrics.observe_phase("resolve", resolve_s)
    return run_count


def _run_shard(
    env: SimEnvironment,
    task: ShardTask,
    metrics: MetricsRegistry,
    clock: Optional[SimClock] = None,
    closes_environment: bool = True,
) -> ShardResult:
    """Resolve one shard's member range against ``env``.

    The one per-shard routine of both backends: a pool worker runs it on
    the environment it assembled, the in-process backend on the
    environment :func:`run_dataset` built.  Everything the shard measured
    lands in ``metrics`` and returns as a snapshot; only picklable
    payloads come back.

    Shards of the in-process backend share one environment, hence one
    append buffer and one set of servers: each reports the rows *it*
    appended, but the buffer is frozen into columnar chunks
    (:func:`_freeze_capture`) and the environment-wide metrics published
    by the shard that ``closes_environment``, the last to run on it.  A
    pool shard has its environment to itself and always does.
    """
    started = time.perf_counter()
    descriptor = env.descriptor
    config = task.config
    stop = len(env.fleet) if task.stop is None else task.stop
    total_queries = (
        descriptor.client_queries
        if task.client_queries is None
        else task.client_queries
    )
    tracer = None
    if config.trace is not None:
        tracer = QueryTracer(config.trace.sample, task.seed)
    rows_before = env.capture.rows_appended
    queries_run = run_member_range(
        env, total_queries, metrics, task.start, stop, tracer, clock,
        config.progress_interval_s,
    )
    rows_appended = env.capture.rows_appended - rows_before
    publish_fleet_metrics(metrics, env.fleet[task.start:stop])
    if tracer is not None:
        metrics.counter("trace.queries_sampled").inc(len(tracer.traces))
    chunks, chunk_row_counts, aggregates = [], [], None
    if closes_environment:
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
        traces=tracer.traces if tracer is not None else [],
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
    config: RunConfig,
    metrics: MetricsRegistry,
    spool: CaptureSpool,
) -> DatasetRun:
    """Merge shard results, in shard-index order, into the dataset's run.

    Shards are contiguous fleet ranges, so adopting their chunks —
    resident views or chunk files alike — and extending their traces in
    that order reproduces the sequence one shard over the whole fleet
    appends; :meth:`~repro.capture.SpooledCapture.view` applies the
    stable canonical sort on top, and their folded states merge into
    ``aggregates`` (an in-process shard that is not the last brings none).
    ``metrics`` is the run's registry
    (world build, plan, executor bookkeeping); every shard's snapshot
    folds into it here.
    """
    from ..analysis import AggregateSet

    descriptor = env.descriptor
    rows_appended = sum(result.rows_appended for result in results)
    with metrics.time_phase("runtime.merge"):
        aggregates = AggregateSet.merge_all(
            [result.aggregates for result in results if result.aggregates]
        )
        for result in results:
            spool.adopt(result.chunks, result.chunk_row_counts)
            metrics.merge_snapshot(result.telemetry)
        capture = SpooledCapture(spool, rows_appended)
    # A stub gauge (see ``_REMOVED_KEYWORDS``): 1 exactly when chunks spilled.
    metrics.gauge("runtime.stream.enabled").set(1 if spool.chunk_paths() else 0)
    resolve_s = metrics.phase_seconds("resolve")
    if resolve_s > 0:
        # From merged totals, the gauge's one writer: a shard sees only
        # its own resolve time.
        metrics.gauge("capture.append_rows_per_s").set(rows_appended / resolve_s)
    traces = None
    if config.trace is not None:
        traces = TraceBuffer(
            dataset_id=descriptor.dataset_id, seed=env.seed,
            sample=config.trace.sample, base_ts=descriptor.start,
        )
        for result in results:
            traces.extend(result.traces)
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
        traces=traces,
    )


# -- the entry point -------------------------------------------------------------

#: Keywords of removed modes.  :func:`run_dataset` and ``ExperimentContext``
#: accept them as ``None``/``False``, and runs publish the
#: ``runtime.{vector,stream}.enabled`` gauges, only because bench/workloads.py
#: (frozen outside benchmark PRs) passes ``False`` and asserts the gauges;
#: the next benchmark PR drops both there, and then they go here too.
_REMOVED_KEYWORDS = {
    "vector": "the record/replay vector core was removed",
    "stream": "streaming is no longer a mode: every run folds its chunks"
              " in the shards, and spool_dir= alone says where they live",
}


def reject_removed_keywords(**values) -> None:
    for keyword, value in values.items():
        if value:
            raise ValueError(
                f"{_REMOVED_KEYWORDS[keyword]}; {keyword}= must be None or False"
            )


def run_dataset(
    descriptor: DatasetDescriptor,
    seed: int = 20201027,
    client_queries: Optional[int] = None,
    telemetry: Optional[MetricsRegistry] = None,
    workers: Optional[int] = None,
    config: Optional[RunConfig] = None,
    stream: Optional[bool] = None,
    spool_dir: Optional[str] = None,
    trace=None,
    clock: Optional[SimClock] = None,
    vector: Optional[bool] = None,
) -> DatasetRun:
    """Simulate one dataset and return its capture.

    ``workers`` / ``spool_dir`` / ``trace`` are the front door to
    :meth:`RunConfig.resolve <repro.config.RunConfig.resolve>` (``None`` =
    environment, else default; the fields are documented on the class); a
    ready ``config`` replaces all three.  For a given fault plan every
    configuration yields the same capture bytes.  With
    ``workers=1`` the returned server objects carry their post-run state
    (a pool leaves the parent's cold; their counters live in the merged
    telemetry).  The fleet does not: it is
    borrowed from the process's fleet store and goes back, rewound, once
    the run is assembled — ``DatasetRun.fleet`` says who the resolvers
    are, ``DatasetRun.telemetry`` what they did.

    ``client_queries`` overrides the descriptor's volume (tests use small
    values; benchmarks use the descriptor default).

    ``telemetry`` optionally names a session-level registry (e.g. an
    :class:`~repro.experiments.context.ExperimentContext`'s) into which
    this run's metrics are merged; the run itself always instruments a
    fresh registry whose snapshot lands on ``DatasetRun.telemetry``.

    ``clock`` optionally injects the :class:`~repro.netsim.SimClock` the run
    keeps in step with sim time (defaults to a fresh clock pinned to the
    capture window's start).  Queries carry explicit timestamps, so the
    clock observes the replay rather than driving it: in-process it tracks
    each chunk's latest timestamp; either way it ends at the window's close.

    ``vector`` and ``stream`` are stubs (:data:`_REMOVED_KEYWORDS`): only
    ``None``/``False`` are accepted.
    """
    reject_removed_keywords(vector=vector, stream=stream)
    if config is None:
        config = RunConfig.resolve(workers=workers, spool_dir=spool_dir, trace=trace)
    metrics = MetricsRegistry()
    metrics.gauge("runtime.vector.enabled").set(0)
    if clock is None:
        clock = SimClock(now=descriptor.start)
    env = build_environment(descriptor, seed, metrics)
    total_queries = (
        descriptor.client_queries if client_queries is None else client_queries
    )

    with metrics.time_phase("runtime.plan"):
        plan = plan_shards([member.weight for member in env.fleet], config.workers)
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
            config=config,
            spool_dir=spool_dir,
        )
        for shard in plan
    ]
    pooled = config.workers > 1 and len(plan) > 1 and total_queries > 0
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
        report = RuntimeReport(mode="serial", workers=1, shard_count=len(plan))
        results = []
        with metrics.time_phase("runtime.execute"):
            for task in tasks:
                result = _run_shard(
                    env, task, MetricsRegistry(), clock,
                    closes_environment=task is tasks[-1],
                )
                record_outcome(report, metrics, task, result)
                results.append(result)
    run = _assemble(env, results, report, config, metrics, spool)
    if not pooled:
        worlds.return_fleet(env.fleet_part, metrics)
    run.telemetry = metrics.snapshot()

    # The run is over: sim time has reached the end of the capture window
    # regardless of execution backend (pool workers advance no clock).
    window_end = descriptor.start + descriptor.duration
    if window_end > clock.now:
        clock.advance_to(window_end)

    logger.info(
        "run %s done (%s): %d client queries, %d captured rows, %.2fs resolve time",
        descriptor.dataset_id, report.summary(), run.client_queries_run,
        len(run.capture), run.telemetry.phase_seconds("resolve"),
    )
    if telemetry is not None:
        telemetry.merge_snapshot(run.telemetry)
    return run
