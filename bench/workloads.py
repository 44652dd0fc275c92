"""The four benchmark workloads, as the child process runs them.

Every workload drives ``repro`` from outside, through public functions and
public telemetry snapshots only.  ``repro`` is imported lazily inside the
functions so that the import itself can sit inside a timed region.

All four share one protocol (see ``child.py``):

    modules                                      # imported first, timed
    state  = workload.build(seed, size, tmp)     # set-up, after the import
    result = workload.rep(state)                 # one repetition -> Rep
    result = workload.traced_rep(state)          # the one under cProfile
    extras = workload.extras(state)              # traced runs only
    counts = workload.counts(state)              # telemetry-derived counts
    workload.close(state)
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

#: Workload name -> why it is in the matrix (one line each; BENCHMARK.json
#: carries the same text).
WHY = {
    "nl_cold": (
        "the product's cold path: the `repro dataset nl-w2020` CLI on a fresh "
        "world, member loop on plan-cache misses in one large world"
    ),
    "root_refold": (
        "capture spool + streaming analysis do all the work and the "
        "simulator none: the mirror image of nl_cold"
    ),
    "report_matrix": (
        "same sim/zones/clouds/analysis layers used differently: several "
        "small worlds and whole-view reducers instead of one large streaming fold"
    ),
    "serve_wire": (
        "the only workload where service and the dnscore wire codec work; "
        "drives server on plan-cache hits where nl_cold drives misses"
    ),
}

#: Per-workload sizes.  ``quick`` is the smoke size used by bench/tests.
SIZES = {
    "nl_cold": {"full": {"scale": 0.05}, "quick": {"scale": 0.004}},
    "root_refold": {
        "full": {"scale": 0.08, "passes": 3, "chunk_rows": 2048},
        "quick": {"scale": 0.01, "passes": 1, "chunk_rows": 512},
    },
    "report_matrix": {"full": {"scale": 0.03}, "quick": {"scale": 0.005}},
    "serve_wire": {
        "full": {"datagrams": 10000, "pingpongs": 3000},
        "quick": {"datagrams": 1000, "pingpongs": 200},
    },
}

#: The (vantage, year) resolver fleets each workload builds from its seed.
WORLDS = {
    "nl_cold": (("nl", 2020),),
    "root_refold": (("root", 2020),),
    "report_matrix": (("nz", 2018), ("nz", 2019), ("nz", 2020)),
    "serve_wire": (),
}


def usable_seed(workload: str, seed: int) -> int:
    """The first seed at or after ``seed`` whose worlds build.

    About one seed in fifteen makes the program's fleet builder fail with
    "address pool exhausted" (a defect of the program, outside this
    benchmark's reach).  A benchmark must offer inputs on which no
    operation fails, so such a seed is stepped over, deterministically.
    """
    from repro.clouds import build_all_fleets

    for candidate in range(seed, seed + 64):
        try:
            for vantage, year in WORLDS[workload]:
                build_all_fleets(vantage, year, candidate)
        except RuntimeError:
            continue
        return candidate
    raise RuntimeError(f"no usable seed in [{seed}, {seed + 64})")


def digest_of(payload: bytes) -> str:
    return hashlib.blake2b(payload, digest_size=16).hexdigest()


def canonical(value):
    """A JSON-safe, order-independent rendering of nested aggregator state
    (dicts, sets, tuples, numpy scalars/arrays)."""
    if isinstance(value, dict):
        return sorted(
            ([canonical(k), canonical(v)] for k, v in value.items()),
            key=repr,
        )
    if isinstance(value, (set, frozenset)):
        return sorted((canonical(v) for v in value), key=repr)
    if isinstance(value, (list, tuple)):
        return [canonical(v) for v in value]
    if hasattr(value, "tolist"):          # numpy array or scalar
        return canonical(value.tolist())
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, bytes):
        return value.hex()
    return repr(value)


@dataclass
class Rep:
    """Outcome of one repetition."""

    ops: int
    digest: str
    failed: int = 0
    #: Stage name -> perf_counter seconds the harness spent calling it.
    stages: Dict[str, float] = field(default_factory=dict)


class Workload:
    """What ``child.py`` calls; a workload overrides what it needs."""

    #: Modules imported (and timed) before ``build``.
    modules: tuple = ()

    def build(self, seed: int, size: dict, tmp: str) -> dict:
        raise NotImplementedError

    def rep(self, state) -> Rep:
        raise NotImplementedError

    def traced_rep(self, state) -> Rep:
        """The repetition run under cProfile."""
        return self.rep(state)

    def extras(self, state) -> Dict[str, float]:
        """Extra diagnostic passes of a traced run."""
        return {}

    def counts(self, state) -> Dict[str, float]:
        return snapshot_counts(state["snapshot"])

    def close(self, state) -> None:
        pass


# -- telemetry-derived counts ----------------------------------------------------


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def snapshot_counts(snapshot) -> Dict[str, float]:
    """The exact counts every workload reports, from one of the program's
    own telemetry snapshots (``DatasetRun.telemetry``,
    ``ctx.telemetry.snapshot()``, ``service.snapshot()``)."""
    total = snapshot.total
    hits, misses = total("runtime.plan_cache.hits"), total("runtime.plan_cache.misses")
    cache_hits, cache_misses = total("resolver.cache_hits"), total("resolver.cache_misses")
    client = total("resolver.client_queries")
    fleet_build = snapshot.phases.get("fleet_build") or snapshot.phases.get("zone_build")
    return {
        "server.plan_cache_hit_ratio": _ratio(hits, hits + misses),
        "resolver.cache_hit_ratio": _ratio(cache_hits, cache_hits + cache_misses),
        "resolver.auth_queries_per_client_query": _ratio(
            total("resolver.auth_queries"), client
        ),
        "capture.rows_per_client_query": _ratio(total("capture.rows_appended"), client),
        "sim.environments_built": float(fleet_build["count"]) if fleet_build else 0.0,
    }


def assert_default_path(snapshot) -> None:
    """The run must have taken the serial / in-memory / scalar path."""
    expected = {
        "runtime.workers": 1,
        "runtime.stream.enabled": 0,
        "runtime.vector.enabled": 0,
    }
    for gauge, value in expected.items():
        if snapshot.gauges.get(gauge) != value:
            raise AssertionError(
                f"{gauge} = {snapshot.gauges.get(gauge)!r}, expected {value}"
            )


# -- nl_cold -----------------------------------------------------------------------


class NlCold(Workload):
    """The CLI's dataset command, called the way ``python -m repro`` calls
    it.  Every repetition builds a fresh world with cold plan and resolver
    caches; only the interpreter is warm.  The one run that is cold in
    every sense, a fresh process's first, is the warm-up: it is ``setup_s``.

    Timing each repetition in a fresh process instead was tried and
    dropped: identical children read up to 18 % apart in reference seconds
    for minutes at a time (in-process repetitions: 3-7 %).
    """

    modules = ("repro.__main__",)

    def build(self, seed: int, size: dict, tmp: str):
        return {
            "argv": [
                "dataset", "nl-w2020", "--scale", str(size["scale"]),
                "--seed", str(seed), "--workers", "1", "--sovereignty",
                "--composition", "--telemetry-out", os.path.join(tmp, "telemetry.json"),
            ],
            "snapshot": None,
        }

    def rep(self, state) -> Rep:
        import repro.__main__ as cli
        from repro.telemetry import TelemetrySnapshot

        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(state["argv"])
        if code != 0:
            raise RuntimeError(f"repro dataset exited {code}: {err.getvalue()[-400:]}")
        # The CLI's own --telemetry-out snapshot, read back for the counts.
        with open(state["argv"][-1]) as handle:
            raw = json.load(handle)
        snapshot = TelemetrySnapshot(
            counters=raw["counters"], gauges=raw["gauges"], phases=raw["phases"]
        )
        assert_default_path(snapshot)
        state["snapshot"] = snapshot
        return Rep(
            ops=snapshot.total("resolver.client_queries"),
            digest=digest_of(out.getvalue().encode()),
        )


# -- root_refold ---------------------------------------------------------------------

#: Stage the harness calls itself inside a pass -> the metric its share of
#: the pass is reported as.
REFOLD_STAGE_METRICS = {
    "spool_write": "capture.spool_write_share",
    "spool_read": "capture.spool_read_share",
    "attribute": "analysis.attribute_share",
    "fold": "analysis.fold_share",
    "finalize": "analysis.finalize_share",
}


class RootRefold(Workload):
    modules = (
        "repro.sim", "repro.workload", "repro.capture", "repro.analysis",
        "repro.clouds", "repro.telemetry",
    )

    def build(self, seed: int, size: dict, tmp: str):
        from repro.analysis import Attributor
        from repro.clouds import PROVIDERS
        from repro.sim import run_dataset
        from repro.workload import dataset

        descriptor = dataset("root-2020")
        run = run_dataset(
            descriptor, seed=seed,
            client_queries=int(descriptor.client_queries * size["scale"]),
            workers=1, stream=False, vector=False,
        )
        assert_default_path(run.telemetry)
        return {
            "size": size,
            "tmp": tmp,
            "view": run.capture.view(),
            "attributor": Attributor(run.registry, PROVIDERS),
            "snapshot": run.telemetry,
            "passes_done": 0,
            "spool": {},
        }

    def _pass(self, state, stages: Dict[str, float]) -> str:
        from repro.analysis import AggregateSet
        from repro.capture import CaptureSpool, SpooledCapture

        clock = time.perf_counter
        directory = os.path.join(state["tmp"], f"spool-{state['passes_done']}")
        state["passes_done"] += 1
        view, attributor = state["view"], state["attributor"]

        t0 = clock()
        spool = CaptureSpool(directory=directory, chunk_rows=state["size"]["chunk_rows"])
        spool.append_view(view)
        spool.flush()
        t1 = clock()
        stages["spool_write"] += t1 - t0

        aggregates = AggregateSet()
        chunks = iter(SpooledCapture(spool).iter_views())
        while True:
            t0 = clock()
            chunk = next(chunks, None)
            t1 = clock()
            stages["spool_read"] += t1 - t0
            if chunk is None:
                break
            attribution = attributor.attribute(chunk)
            t2 = clock()
            aggregates.feed(chunk, attribution)
            t3 = clock()
            stages["attribute"] += t2 - t1
            stages["fold"] += t3 - t2
        t0 = clock()
        for aggregator in aggregates.aggregators.values():
            aggregator.finalize()
        stages["finalize"] += clock() - t0

        state["spool"] = {
            "bytes": spool.bytes_written,
            "rows": spool.rows_spooled,
            "chunks": len(spool.chunk_paths()),
        }
        state["aggregates"] = aggregates
        payload = {
            "rows": aggregates.rows_fed,
            "chunks": len(spool.chunk_paths()),
            "state": {
                name: canonical(aggregator.exact_state())
                for name, aggregator in aggregates.aggregators.items()
            },
        }
        spool.cleanup()
        shutil.rmtree(directory, ignore_errors=True)
        return digest_of(json.dumps(payload, sort_keys=True).encode())

    def rep(self, state, passes: Optional[int] = None) -> Rep:
        stages = dict.fromkeys(REFOLD_STAGE_METRICS, 0.0)
        passes = state["size"]["passes"] if passes is None else passes
        digests = {self._pass(state, stages) for _ in range(passes)}
        digest = digests.pop() if len(digests) == 1 else "passes-disagree"
        return Rep(ops=len(state["view"]) * passes, digest=digest, stages=stages)

    def traced_rep(self, state) -> Rep:
        # One pass is enough for exact per-row counts and costs a third.
        return self.rep(state, passes=1)

    def extras(self, state) -> Dict[str, float]:
        """Each registered aggregator fed on its own, over the in-memory
        view in spool-sized chunks: shares of the summed feed time."""
        from repro.analysis import AggregateSet

        aggregates = AggregateSet()
        feed_s = dict.fromkeys(aggregates.aggregators, 0.0)
        clock = time.perf_counter
        view, rows = state["view"], state["size"]["chunk_rows"]
        for start in range(0, len(view), rows):
            chunk = view.select(slice(start, start + rows))
            attribution = state["attributor"].attribute(chunk)
            for name, aggregator in aggregates.aggregators.items():
                t0 = clock()
                aggregator.feed(chunk, attribution)
                feed_s[name] += clock() - t0
        total = sum(feed_s.values())
        return {
            f"analysis.feed.{name}_share": _ratio(seconds, total)
            for name, seconds in feed_s.items()
        }

    def counts(self, state) -> Dict[str, float]:
        from repro.telemetry import MetricsRegistry

        counts = super().counts(state)
        spool = state["spool"]
        counts["capture.spool_bytes_per_row"] = _ratio(spool["bytes"], spool["rows"])
        counts["capture.spool_chunks"] = float(spool["chunks"])
        registry = MetricsRegistry()
        state["aggregates"].publish_metrics(registry)
        counts["analysis.sketch_heavy_hitters"] = float(
            registry.snapshot().total("analysis.sketch.space_saving.items")
        )
        return counts


# -- report_matrix -------------------------------------------------------------------

#: Lines of the rendered markdown that embed wall time.
_VOLATILE_PREFIXES = ("telemetry: ", "* total wall time:")


def normalise_markdown(markdown: str) -> str:
    """Strip the lines that embed wall time, so the digest is stable."""
    return "\n".join(
        line for line in markdown.split("\n")
        if not line.startswith(_VOLATILE_PREFIXES)
    )


class ReportMatrix(Workload):
    """Every `.nz` report of the paper matrix, from a fresh context: three
    small worlds (2018-2020) simulated on first use, then whole-view
    reducers and rendering.  (The full 43-report ``collect_all`` takes
    about a minute, which the benchmark's run budget does not allow.)"""

    modules = ("repro.experiments", "repro.experiments.render_all")
    VANTAGE = "nz"
    YEARS = (2018, 2019, 2020)

    def build(self, seed: int, size: dict, tmp: str):
        return {"seed": seed, "size": size, "snapshot": None}

    def _runners(self, ctx):
        from repro.experiments import (
            extension_composition, extension_concentration,
            extension_sovereignty, figure1, figure2, figure4, table5,
        )

        v = self.VANTAGE
        runners = [lambda: figure1.run_vantage(ctx, v)]
        runners += [lambda y=y: figure2.run_panel(ctx, v, y) for y in self.YEARS]
        runners += [lambda: figure4.run_vantage(ctx, v)]
        runners += [lambda y=y: table5.run_vantage_year(ctx, v, y) for y in self.YEARS]
        runners += [
            lambda: extension_concentration.run_vantage(ctx, v),
            lambda: extension_sovereignty.run_vantage(ctx, v),
            lambda: extension_composition.run_vantage(ctx, v),
        ]
        return runners

    def rep(self, state) -> Rep:
        from repro.experiments import ExperimentContext
        from repro.experiments.render_all import instrumented, render_markdown

        ctx = ExperimentContext(
            scale=state["size"]["scale"], seed=state["seed"], workers=1,
            stream=False, vector=False,
        )
        reports = [instrumented(ctx, runner) for runner in self._runners(ctx)]
        markdown = render_markdown(reports, ctx.scale, 0.0)
        snapshot = ctx.telemetry.snapshot()
        assert_default_path(snapshot)
        state["snapshot"] = snapshot
        return Rep(
            ops=len(reports),
            digest=digest_of(normalise_markdown(markdown).encode()),
        )


# -- serve_wire ----------------------------------------------------------------------

_MALFORMED_AT = 7    #: position (mod 50) of the truncated, FORMERR-bound datagrams
_TCP_AT = 29         #: position (mod 50) of the frames sent through the TCP handler
_PEER = ("198.51.100.7", 40000)


class _StubTransport:
    """Stands in for the UDP transport: keeps what the service sends."""

    def __init__(self) -> None:
        self.sent: Optional[bytes] = None

    def sendto(self, data: bytes, addr) -> None:
        self.sent = data


class ServeWire(Workload):
    """Closed loop, one caller, in-process and socket-free: each pre-encoded
    query goes straight into ``DnsService.handle_datagram``."""

    modules = ("repro.service", "repro.dnscore")

    def build(self, seed: int, size: dict, tmp: str):
        import asyncio

        from repro.dnscore import EdnsRecord, Message
        from repro.service import DnsService, LoadGenConfig, ServiceConfig
        from repro.service.endpoints import peer_address
        from repro.service.loadgen import build_query_stream

        stream = build_query_stream(
            LoadGenConfig(queries=size["datagrams"], junk_fraction=0.05, seed=seed)
        )
        edns = EdnsRecord(udp_payload_size=1232)
        wires: List[bytes] = []
        for index, (qname, qtype) in enumerate(stream):
            wire = Message.make_query(
                qname, qtype, msg_id=index % 65536, edns=edns
            ).to_wire()
            if index % 50 == _MALFORMED_AT:
                wire = wire[:-3]
            wires.append(wire)
        loop = asyncio.new_event_loop()
        # The service keeps its default world seed: the seed makes the
        # inputs (the query stream), not the program's configuration.
        service = DnsService(ServiceConfig(
            udp_port=0, metrics_port=None, watchdog_interval_s=0,
        ))
        loop.run_until_complete(service.start())
        return {
            "size": size, "loop": loop, "service": service, "wires": wires,
            "src": peer_address(_PEER), "baseline": service.snapshot(),
            "reps": 0,
        }

    def rep(self, state, latencies: Optional[List[float]] = None) -> Rep:
        service, src = state["service"], state["src"]
        handle_datagram = service.handle_datagram
        handle_stream = service.handle_stream_query
        transport = _StubTransport()
        hasher = hashlib.blake2b(digest_size=16)
        rcodes: Dict[int, int] = {}
        failed = 0
        # Header-level check per response (present, same id, QR set).  Full
        # decodability is checked once, on the warm-up pass's responses;
        # every later pass must reproduce those bytes (the digest).
        first_pass = state["reps"] == 0
        responses: List[Optional[bytes]] = []
        clock = time.perf_counter
        for index, wire in enumerate(state["wires"]):
            t0 = clock() if latencies is not None else 0.0
            if index % 50 == _TCP_AT:
                response = handle_stream(wire, src)
            else:
                transport.sent = None
                handle_datagram(transport, wire, _PEER)
                response = transport.sent
            if latencies is not None:
                latencies.append(clock() - t0)
            if first_pass:
                responses.append(response)
            if (
                response is None or len(response) < 12
                or response[:2] != wire[:2] or not response[2] & 0x80
            ):
                failed += 1
                continue
            rcode = response[3] & 0x0F
            rcodes[rcode] = rcodes.get(rcode, 0) + 1
            hasher.update(response)
        if first_pass:
            failed += _undecodable(responses)
        state["reps"] += 1
        hasher.update(json.dumps(sorted(rcodes.items())).encode())
        return Rep(ops=len(state["wires"]), digest=hasher.hexdigest(), failed=failed)

    def extras(self, state) -> Dict[str, float]:
        latencies: List[float] = []
        for _ in range(2):
            self.rep(state, latencies)
        latencies.sort()
        p50 = latencies[len(latencies) // 2] * 1e6
        p99 = latencies[int(len(latencies) * 0.99)] * 1e6
        rtts = state["loop"].run_until_complete(
            _pingpong(state["service"].udp_port, state["wires"],
                      state["size"]["pingpongs"])
        )
        rtt_p50 = statistics.median(rtts) * 1e6 if rtts else 0.0
        return {
            "service.handle_p50_us": p50,
            "service.handle_p99_us": p99,
            "service.loop_rtt_p50_us": rtt_p50,
            "service.loop_overhead_us": max(0.0, rtt_p50 - p50),
        }

    def counts(self, state) -> Dict[str, float]:
        snapshot = state["service"].snapshot()
        counts = snapshot_counts(snapshot)
        delta = snapshot.diff(state["baseline"])
        datagrams = delta.total("service.udp_datagrams") + delta.total("service.tcp_frames")
        counts["service.hit_share"] = _ratio(
            delta.total("runtime.plan_cache.hits"), datagrams
        )
        counts["service.miss_share"] = _ratio(
            delta.total("runtime.plan_cache.misses"), datagrams
        )
        counts["service.formerr_share"] = _ratio(delta.total("service.formerr"), datagrams)
        counts["service.tcp_share"] = _ratio(delta.total("service.tcp_frames"), datagrams)
        return counts

    def close(self, state) -> None:
        loop = state["loop"]
        loop.run_until_complete(state["service"].stop())
        loop.close()


def _undecodable(responses: List[Optional[bytes]]) -> int:
    """How many well-formed-looking responses fail a full decode."""
    from repro.dnscore import Message, WireDecodeError

    bad = 0
    for response in responses:
        if response is None or len(response) < 12:
            continue                      # already counted as failed
        try:
            Message.from_wire(response)
        except WireDecodeError:
            bad += 1
    return bad


async def _pingpong(port: int, wires: List[bytes], count: int) -> List[float]:
    """``count`` one-in-flight round trips over the service's real UDP
    socket on its own loop (loopback; diagnostic only)."""
    import asyncio

    loop = asyncio.get_running_loop()
    inbox: asyncio.Queue = asyncio.Queue()

    class _Client(asyncio.DatagramProtocol):
        def datagram_received(self, data, addr):
            inbox.put_nowait(data)

    transport, _ = await loop.create_datagram_endpoint(
        _Client, remote_addr=("127.0.0.1", port)
    )
    rtts: List[float] = []
    try:
        usable = [w for i, w in enumerate(wires) if i % 50 != _MALFORMED_AT]
        for index in range(count):
            wire = usable[index % len(usable)]
            t0 = time.perf_counter()
            transport.sendto(wire)
            try:
                await asyncio.wait_for(inbox.get(), timeout=1.0)
            except asyncio.TimeoutError:
                continue
            rtts.append(time.perf_counter() - t0)
    finally:
        transport.close()
    return rtts


WORKLOADS = {
    "nl_cold": NlCold,
    "root_refold": RootRefold,
    "report_matrix": ReportMatrix,
    "serve_wire": ServeWire,
}
