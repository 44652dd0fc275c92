"""End-to-end dataset simulation.

:func:`run_dataset` executes one capture snapshot: it assembles the
vantage's authoritative deployment over the zones, and borrows the
cloud-provider and background resolver fleets, that the process keeps
between datasets (:mod:`repro.sim.worlds`), drives client query streams
through every resolver, and returns the captured traffic plus everything
the analysis layer needs (AS registry, PTR table, fleet metadata).

This is the reproduction's stand-in for "one week of pcap collection at the
vantage point", and, like the paper's one ENTRADA pass over that week, a
dataset runs in one process as one straight line: build the environment,
drive the whole fleet (:func:`run_member_range`) while the capture lands
as columnar chunks — each time the servers' append buffer holds a full
chunk, between two members, it is cut off, frozen and folded into the
run's aggregates (:class:`_ChunkFold`) —, publish what the fleet, the
servers and the capture counted, and land the partial tail.  From there
the capture is those chunks (:mod:`repro.capture.spool`), and its whole
view always comes back in canonical ``(timestamp, server_id)`` order.

Every run is instrumented through :mod:`repro.telemetry`: phase spans
(``zone_build`` / ``fleet_build`` for assembling a world, ``env_reset``
for rewinding a borrowed fleet, ``workload`` / ``resolve`` and
``runtime.fold``), per-provider client-query counters, aggregated
resolver/server/capture counters, and periodic progress logging on the
``repro.sim`` logger.  The frozen :class:`~repro.telemetry.TelemetrySnapshot`
rides on the returned :class:`DatasetRun`.
"""

from __future__ import annotations

import gc
import logging
import operator
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, replace as dc_replace
from functools import lru_cache
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..capture import CaptureSpool, CaptureStore, SpooledCapture
from ..capture.store import RESPONSE_SIZE_BUCKETS, add_response_sizes
from ..clouds import FleetResolver, PTRTable
from ..config import RunConfig, check_volume
from ..dnscore import Name, RRType
from ..faults import FaultInjector, derive_fault_seed
from ..netsim import ASRegistry, GAZETTEER, LatencyModel
from ..resolver import AuthorityNetwork, CyclicPair, SyntheticLeafAuthority
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

    ``capture`` is the run's columnar chunks in append order — held in
    memory, or, when the run has a spool directory, spilled to chunk
    files: ``len()``, ``iter_views()`` and the canonical whole
    ``view()``.  ``aggregates``
    (:class:`~repro.analysis.streaming.AggregateSet`) is what the run
    folded as each chunk landed, while the fleet ran; every
    :meth:`DatasetAnalytics.of <repro.analysis.DatasetAnalytics.of>`
    answer comes from it.

    ``fleet`` is a *borrowed* handle: the resolvers went back to the
    process's fleet store (:mod:`repro.sim.worlds`) when the run was
    done, rewound, and the next dataset of the same ``(vantage, year,
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
    server_sets: Dict[str, ServerSet]
    client_queries_run: int = 0
    telemetry: Optional[TelemetrySnapshot] = None
    aggregates: Optional[object] = None

    @property
    def vantage_server_ids(self) -> List[str]:
        return [spec.server_id for spec in self.descriptor.servers if spec.captured]


@dataclass
class SimEnvironment:
    """The fully-built deterministic world for one dataset.

    Constructed identically given ``(descriptor, seed)``.  All
    cross-member state in here is deterministic — the latency model and
    anycast catchments are memoised pure functions, the leaf authority is
    hash-based, and every resolver carries its own RNG — which is what
    makes a world built from scratch and one assembled from parked parts
    give the same results.

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
    Deterministic given ``(descriptor, seed)``.  The fleet is checked out
    until :func:`repro.sim.worlds.return_fleet`.
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
    so tests can feed stripped-down stand-ins.

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
    servers, the fault injector and the capture."""
    publish_server_metrics(metrics, env.server_sets)
    if env.network.faults is not None:
        env.network.faults.publish_metrics(metrics)
    metrics.counter("capture.rows_appended").inc(env.capture.rows_appended)
    metrics.gauge("sim.fleet_size").set(len(env.fleet))


# -- the landing -----------------------------------------------------------------

class _ChunkFold:
    """Where a run's capture lands, one chunk at a time.

    Each chunk is cut off the environment's append buffer — the one time
    its rows become columns —, attributed and fed to a fresh
    :class:`~repro.analysis.streaming.AggregateSet` (the run's one fold),
    bucketed into the ``capture.response_size_bytes`` histogram, and kept
    as it is, or, under ``spool_dir``, written out as one compressed chunk
    file.  The spool's ``chunk_rows`` is the chunk size.
    """

    def __init__(
        self, env: SimEnvironment, metrics: MetricsRegistry, spool_dir: Optional[str]
    ):
        # Lazy imports: repro.analysis is a consumer of this module's output
        # everywhere else; importing it at call time keeps the sim package
        # importable without the analysis layer loaded.
        from ..analysis import AggregateSet, Attributor
        from ..clouds import PROVIDERS

        self.buffer = env.capture
        self.spool = CaptureSpool(directory=spool_dir)
        self.aggregates = AggregateSet()
        self.attributor = Attributor(env.registry, PROVIDERS)
        self.sizes = metrics.histogram(
            "capture.response_size_bytes", buckets=RESPONSE_SIZE_BUCKETS
        )
        self.fold_s = 0.0

    def full_chunks(self) -> int:
        """Land every full chunk the buffer holds; returns the
        ``rows_appended`` at which the next one fills."""
        chunk_rows = self.spool.chunk_rows
        while len(self.buffer) >= chunk_rows:
            self._land(chunk_rows)
        return self.buffer.rows_appended - len(self.buffer) + chunk_rows

    def _land(self, rows: int) -> None:
        started = time.perf_counter()
        view = self.buffer.take(rows)
        self.aggregates.feed(view, self.attributor.attribute(view))
        add_response_sizes(self.sizes, view.response_size)
        self.spool.write_view(view)
        self.fold_s += time.perf_counter() - started

    def finish(self, metrics: MetricsRegistry) -> Tuple[SpooledCapture, object]:
        """Land what the buffer still holds (the partial tail) and publish
        the fold; returns the run's capture and its aggregates."""
        if len(self.buffer):
            self._land(len(self.buffer))
        metrics.observe_phase("runtime.fold", self.fold_s)
        metrics.counter("runtime.rows_folded").inc(self.aggregates.rows_fed)
        spool = self.spool
        if spool.directory is not None:
            metrics.counter("capture.spool.chunks").inc(len(spool.chunk_paths()))
            metrics.counter("capture.spool.rows").inc(spool.rows_spooled)
            metrics.counter("capture.spool.bytes").inc(spool.bytes_written)
        self.aggregates.publish_metrics(metrics)
        return SpooledCapture(spool), self.aggregates


# -- the resolve loop ------------------------------------------------------------

def member_query_counts(
    weights: Sequence[float], total_queries: int
) -> np.ndarray:
    """Apportion ``total_queries`` over fleet members by traffic weight.

    Cumulative-floor (largest-remainder over the cumulative sum)
    apportionment: member *i* receives
    ``floor(total·W_i/W) − floor(total·W_{i−1}/W)`` where ``W_i`` is the
    cumulative weight through member *i*.  The counts **telescope to
    ``total_queries``** (the last cumulative ratio is exactly 1.0, so the
    bounds end at ``total``) — unlike a per-member ``int(round(...))``,
    whose independent rounding drifts the fleet-wide sum by dozens of
    queries; property-tested in ``tests/test_runtime.py``.

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
    env: SimEnvironment, total_queries: int, metrics: MetricsRegistry,
    fold: _ChunkFold,
) -> int:
    """Drive client query streams through every fleet member.

    Per-member query counts derive from the fleet's weights
    (:func:`member_query_counts`) and per-member streams are seeded by
    fleet index; the seeds are hashed in one pass, and each member's
    stream is drawn as columns
    (:meth:`~repro.workload.WorkloadGenerator.columns`).  After a member
    whose rows fill a chunk, ``fold`` lands every full chunk, so the
    append buffer never holds more than a chunk plus one member's rows.
    """
    descriptor = env.descriptor

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
    seeds = generator.member_seeds(0, len(env.fleet))

    capture = env.capture
    next_chunk = fold.full_chunks()
    run_count = 0
    clock_s = time.perf_counter
    loop_started = clock_s()
    last_progress = loop_started
    # Both phases are timed by summing clock deltas and booked once per
    # run: a timer span per member cost more than most members' streams.
    workload_s = resolve_s = 0.0
    # Counter handles resolved once per provider, not once per member —
    # label-dict construction and registry lookup are off the member loop.
    provider_counters: Dict[str, object] = {}
    for index, member in enumerate(env.fleet):
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
            word_stream(seeds[index]), count, pattern,
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
        if capture.rows_appended >= next_chunk:
            next_chunk = fold.full_chunks()
        if done - last_progress >= PROGRESS_INTERVAL_S:
            logger.info(
                "progress: %d/%d client queries (%.0f q/s, %d captured rows,"
                " at %s fleet member %d/%d)",
                run_count, total_queries, run_count / max(done - loop_started, 1e-9),
                capture.rows_appended, member.provider, index + 1, len(env.fleet),
            )
            last_progress = done
    if run_count:
        metrics.observe_phase("workload", workload_s)
        metrics.observe_phase("resolve", resolve_s)
    return run_count


# -- the entry point -------------------------------------------------------------

#: Keywords of removed modes, each with the one value that still runs.
#: :func:`run_dataset` and ``ExperimentContext`` accept them only as that
#: value or ``None``, and runs publish the ``runtime.{workers,vector,stream}``
#: gauges, only because bench/workloads.py (frozen outside benchmark PRs)
#: passes them and asserts the gauges; the next benchmark PR drops them
#: there, and then they go here too.
_REMOVED_KEYWORDS = {
    "vector": ("the record/replay vector core was removed", False),
    "stream": ("streaming is no longer a mode: every run folds its chunks"
               " as it freezes them, and RunConfig.spool_dir alone says"
               " where they live", False),
    "workers": ("shard parallelism was removed: every dataset runs in one"
                " process", 1),
}


def reject_removed_keywords(**values) -> None:
    for keyword, value in values.items():
        reason, stub = _REMOVED_KEYWORDS[keyword]
        if value is not None and value != stub:
            raise ValueError(f"{reason}; {keyword}= must be {stub!r} or None")


@contextmanager
def collector_paused():
    """Pause automatic cyclic garbage collection for the block.

    A dataset run allocates millions of objects but leaves almost no
    reference cycles, so every collection inside it rescans the parked
    world only to find it alive (12–22 % of ``nl-w2020`` in ``bench/``).  The
    collector is re-enabled on exit only if it was enabled on entry, so
    pauses nest and an exception restores the caller's state.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


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

    ``config`` says where the capture's chunks live (see
    :class:`~repro.config.RunConfig`); either way the capture bytes are
    the same.  The returned server objects carry their post-run state.
    The fleet does not: it is borrowed from the process's fleet store and
    goes back, rewound, once the run is done — ``DatasetRun.fleet`` says
    who the resolvers are, ``DatasetRun.telemetry`` what they did.

    ``client_queries`` overrides the descriptor's volume (tests use small
    values; full-scale experiments use the descriptor default).

    ``telemetry`` optionally names a session-level registry (e.g. an
    :class:`~repro.experiments.context.ExperimentContext`'s) into which
    this run's metrics are merged; the run itself always instruments a
    fresh registry whose snapshot lands on ``DatasetRun.telemetry``.

    ``workers``, ``vector`` and ``stream`` are stubs
    (:data:`_REMOVED_KEYWORDS`): only ``1``, ``False`` and ``False`` (or
    ``None``) are accepted.
    """
    reject_removed_keywords(vector=vector, stream=stream, workers=workers)
    if config is None:
        config = RunConfig()
    metrics = MetricsRegistry()
    metrics.gauge("runtime.vector.enabled").set(0)
    metrics.gauge("runtime.workers").set(1)
    env = build_environment(descriptor, seed, metrics)
    total_queries = (
        descriptor.client_queries if client_queries is None else client_queries
    )
    logger.info(
        "run %s: %d client queries over %d resolvers",
        descriptor.dataset_id, total_queries, len(env.fleet),
    )

    spool_dir = (
        os.path.join(config.spool_dir, descriptor.dataset_id)
        if config.spool_dir else None
    )
    fold = _ChunkFold(env, metrics, spool_dir)
    try:
        queries_run = run_member_range(env, total_queries, metrics, fold)
        rows_appended = env.capture.rows_appended
        publish_fleet_metrics(metrics, env.fleet)
        _publish_environment_metrics(metrics, env)
        capture, aggregates = fold.finish(metrics)
    except BaseException:
        # Chunks land while the fleet runs: a run that fails deletes the
        # chunk files it wrote, so no partial capture is left behind.
        fold.spool.cleanup()
        raise
    # A stub gauge (see ``_REMOVED_KEYWORDS``): 1 exactly when chunks spilled.
    metrics.gauge("runtime.stream.enabled").set(1 if capture.spool.chunk_paths() else 0)
    resolve_s = metrics.phase_seconds("resolve")
    if resolve_s > 0:
        metrics.gauge("capture.append_rows_per_s").set(rows_appended / resolve_s)
    worlds.return_fleet(env.fleet_part, metrics)

    run = DatasetRun(
        descriptor=descriptor,
        capture=capture,
        registry=env.registry,
        fleet=env.fleet,
        ptr_table=env.ptr_table,
        server_sets=env.server_sets,
        client_queries_run=queries_run,
        telemetry=metrics.snapshot(),
        aggregates=aggregates,
    )
    logger.info(
        "run %s done: %d client queries, %d captured rows, %.2fs resolve time",
        descriptor.dataset_id, run.client_queries_run, len(run.capture),
        run.telemetry.phase_seconds("resolve"),
    )
    if telemetry is not None:
        telemetry.merge_snapshot(run.telemetry)
    return run
