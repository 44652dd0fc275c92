"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``experiments``
    Run every table/figure experiment and print (or ``--write``) the
    combined paper-vs-measured report.
``dataset <id>``
    Simulate one paper dataset and print its headline metrics.
``list``
    List available dataset ids.
``chaos``
    List named chaos scenarios (list-only: it simulates nothing, so it
    takes none of the simulation flags below).
``serve [<id>]``
    Live service mode: bind real UDP/TCP sockets answering DNS for the
    dataset's authority world (``dig @127.0.0.1 -p 5300 example.nl``),
    with an optional Prometheus ``/metrics`` listener.  ``--chaos`` and
    ``--rrl`` apply their schedules to live traffic.  A port it cannot
    bind is a usage error (exit 2) naming the endpoint, the address and
    the OS error.
``loadgen``
    Replay workload-layer query streams against a running ``serve``
    instance and report q/s + latency percentiles (``--min-answered``
    turns the report into a CI gate).

Observability flags (see README "Observability"): ``-v/-vv`` turn on
progress/debug logging, ``--telemetry-out PATH`` exports the run's
telemetry snapshot as JSON, ``--metrics-out PATH`` exports it in the
Prometheus text format, and every simulating command prints a
phase/counter summary on stderr.  The two simulating commands
(``dataset``, ``experiments``) expose the same flag set via a shared
helper so availability and help text cannot drift.

Chaos flags (see README "Chaos scenarios"): ``--chaos <scenario>`` runs
the simulation under a named fault schedule (``--chaos-seed``, which
needs ``--chaos``, varies the fault placement independently of ``--seed``).
``repro dataset`` exits non-zero when any shard failed outright unless
``--allow-partial`` is given.

Where the capture lives (see README "Capture chunks and the one fold"):
every run folds each capture chunk into single-pass aggregates in the
shard that froze it; ``--spool-dir DIR`` then writes the chunks as files
under ``DIR/<dataset_id>/`` instead of keeping them in memory.  Answers
are bit-identical either way.

Settings come from flags alone: nothing here reads the environment.  The
flags of ``dataset`` and ``experiments`` are checked once, before anything
is built, and folded into one :class:`~repro.config.RunConfig`
(``--workers`` always means shard-level parallelism: every dataset
simulated is split across the pool); a value that cannot run —
``--workers 0``, ``--scale -1``, or ``--chaos-seed``
without ``--chaos`` (on ``serve`` too) — is a usage error (exit 2) naming
it.  So is an unknown dataset id and an output path that is a directory
or whose directory does not exist, on every command, and a ``serve`` or
``loadgen`` value its config rejects (``--udp-port 70000``,
``--tcp-fraction -0.2``).
"""

from __future__ import annotations

import argparse
import os
import sys

#: Exit code for a run with failed shards (without ``--allow-partial``).
EXIT_PARTIAL = 3


def _resolve_flags(args: argparse.Namespace) -> None:
    """Check the flags of every command that takes ``--chaos``
    (``dataset``, ``experiments``, ``serve``) and give the simulating ones
    ``args.config``, the run's :class:`~repro.config.RunConfig`.

    ``--chaos-seed`` places the faults of a ``--chaos`` scenario, so alone
    it is an error.  A value that does not validate raises ``ValueError``,
    which :func:`main` reports as a usage error before anything is
    simulated.
    """
    from .config import RunConfig, check_positive

    if args.chaos_seed is not None and not args.chaos:
        raise ValueError(f"--chaos-seed {args.chaos_seed} needs --chaos SCENARIO")
    if not hasattr(args, "workers"):
        return
    check_positive("scale", args.scale)
    args.config = RunConfig(workers=args.workers, spool_dir=args.spool_dir)


#: Flags naming a file a command writes; its directory must already exist.
_OUTPUT_FLAGS = ("out", "write", "telemetry_out", "metrics_out", "port_file", "json")


def _check_args(args: argparse.Namespace) -> None:
    """Reject what would otherwise fail only after the run: an unknown
    dataset id or chaos scenario, a ``--scale`` whose client-query volume
    does not fit int64, an output file that is a directory or lies in a
    missing directory, or a ``--spool-dir`` that cannot be created (it is
    created here).  Raises ``ValueError``, which :func:`main` reports as a
    usage error."""
    dataset_id = getattr(args, "dataset_id", None)
    if dataset_id is not None:
        from .workload import PAPER_DATASETS

        if dataset_id not in PAPER_DATASETS:
            raise ValueError(f"unknown dataset {dataset_id!r} (see 'repro list')")
    chaos = getattr(args, "chaos", None)
    if chaos:
        from .faults import CHAOS_SCENARIOS

        if chaos not in CHAOS_SCENARIOS:
            raise ValueError(f"unknown chaos scenario {chaos!r} (see 'repro chaos')")
    if hasattr(args, "scale"):
        from .config import check_volume
        from .workload import PAPER_DATASETS

        # ``dataset`` runs one descriptor; ``experiments`` the largest.
        runs = [PAPER_DATASETS[dataset_id]] if dataset_id else PAPER_DATASETS.values()
        check_volume(max(d.client_queries for d in runs) * args.scale)
    for name in _OUTPUT_FLAGS:
        path = getattr(args, name, None)
        if not path:
            continue
        flag = "--" + name.replace("_", "-")
        if os.path.isdir(path):
            raise ValueError(f"{flag} {path}: is a directory")
        if not os.path.isdir(os.path.dirname(os.path.abspath(path))):
            raise ValueError(f"{flag} {path}: its directory does not exist")
    spool_dir = getattr(args, "spool_dir", None)
    if spool_dir:
        try:
            os.makedirs(spool_dir, exist_ok=True)
        except OSError as exc:
            raise ValueError(f"--spool-dir {spool_dir}: {exc.strerror}") from None


def _chaos_plan(args):
    """The FaultPlan of the ``--chaos`` scenario, or None."""
    if not args.chaos:
        return None
    from .faults import chaos_scenario

    plan = chaos_scenario(args.chaos, seed=args.chaos_seed)
    print(f"chaos scenario {args.chaos!r} active", file=sys.stderr)
    return plan


def _check_partial(report, allow_partial: bool) -> int:
    """Exit code for a run report: 0, or EXIT_PARTIAL on shard failures."""
    if report is None or not report.failures:
        return 0
    failed = ", ".join(
        f"#{outcome.index} ({outcome.error})" for outcome in report.failed_shards
    )
    print(
        f"ERROR: {report.failures} shard(s) failed — capture is incomplete: "
        f"{failed}",
        file=sys.stderr,
    )
    if allow_partial:
        print("continuing anyway (--allow-partial)", file=sys.stderr)
        return 0
    return EXIT_PARTIAL


def _print_telemetry(snapshot, telemetry_out, title: str) -> None:
    """Stderr summary + optional JSON export, shared by the commands."""
    from .telemetry import format_summary

    print(format_summary(snapshot, title=title, max_counters=30), file=sys.stderr)
    if telemetry_out:
        snapshot.write_json(telemetry_out)
        print(f"wrote telemetry to {telemetry_out}", file=sys.stderr)


def _export_observability(args, snapshot) -> None:
    """Write the snapshot to ``--metrics-out`` in the Prometheus text
    format, if requested."""
    if args.metrics_out:
        from .telemetry import write_prometheus

        write_prometheus(snapshot, args.metrics_out)
        print(f"wrote Prometheus metrics to {args.metrics_out}", file=sys.stderr)


def _cmd_list(args: argparse.Namespace) -> int:
    from .workload import PAPER_DATASETS

    for dataset_id in sorted(PAPER_DATASETS):
        descriptor = PAPER_DATASETS[dataset_id]
        print(
            f"{dataset_id:<12} vantage={descriptor.vantage:<5} "
            f"year={descriptor.year} client_queries={descriptor.client_queries}"
        )
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    from .faults import CHAOS_SCENARIOS

    for name in sorted(CHAOS_SCENARIOS):
        plan = CHAOS_SCENARIOS[name]
        parts = []
        if plan.packet_loss:
            parts.append(f"loss={plan.packet_loss:.0%}")
        if plan.outages:
            parts.append(f"outages={len(plan.outages)}")
        if plan.blackouts:
            parts.append(f"blackouts={len(plan.blackouts)}")
        if plan.latency:
            parts.append(f"latency={len(plan.latency)}")
        if plan.storms:
            parts.append(f"storms={len(plan.storms)}")
        print(f"{name:<16} {' '.join(parts)}")
    return 0


def _cmd_dataset(args: argparse.Namespace) -> int:
    from dataclasses import replace

    from .analysis import DatasetAnalytics
    from .sim import run_dataset
    from .workload import dataset

    descriptor = dataset(args.dataset_id)
    chaos_plan = _chaos_plan(args)
    if chaos_plan is not None:
        descriptor = replace(descriptor, fault_plan=chaos_plan)
    volume = int(descriptor.client_queries * args.scale)
    print(f"simulating {args.dataset_id} ({volume} client queries)...", file=sys.stderr)
    run = run_dataset(
        descriptor, client_queries=volume, seed=args.seed, config=args.config
    )
    if run.runtime_report is not None:
        print(f"runtime: {run.runtime_report.summary()}", file=sys.stderr)
    partial_exit = _check_partial(run.runtime_report, args.allow_partial)
    analytics = DatasetAnalytics.of(run)
    summary = analytics.dataset_summary()
    telemetry = run.telemetry
    print(f"captured queries : {summary.queries_total}")
    print(f"valid fraction   : {summary.valid_fraction:.3f}")
    print(f"resolvers        : {summary.resolvers}")
    print(f"ASes             : {summary.ases}")
    print("fleet totals:")
    print(f"  client queries : {telemetry.total('resolver.client_queries')}")
    print(f"  auth queries   : {telemetry.total('resolver.auth_queries')}")
    print(f"  drops          : {telemetry.total('resolver.drops')}")
    print(f"  tcp retries    : {telemetry.total('resolver.tcp_retries')}")
    print(f"  servfails      : {telemetry.total('resolver.servfails')}")
    if chaos_plan is not None:
        print(f"  fault drops    : {telemetry.total('faults.dropped')}")
        print(f"  retransmits    : {telemetry.total('resolver.retry.retransmits')}")
        print(f"  failovers      : {telemetry.total('resolver.retry.failovers')}")
        print(f"  stale served   : {telemetry.total('resolver.retry.stale_served')}")
    shares = analytics.provider_shares()
    for provider, share in shares.items():
        print(f"{provider:<11}      : {share:.3f}")
    print(f"all 5 CPs        : {analytics.cloud_share():.3f}")
    if args.sovereignty:
        sovereignty = analytics.sovereignty()
        print("sovereignty cut (top countries):")
        for row in sovereignty.countries[:8]:
            print(
                f"  {row.name:<4} queries {row.query_share:.3f}  "
                f"traffic {row.traffic_share:.3f}  cloud {row.cloud_share:.3f}"
            )
        print("bloc rollups:")
        for row in sovereignty.blocs:
            print(
                f"  {row.name:<10} queries {row.query_share:.3f}  "
                f"traffic {row.traffic_share:.3f}  cloud {row.cloud_share:.3f}"
            )
    if args.composition:
        composition = analytics.composition(top_k=8)
        print("query composition:")
        for category, share in composition.category_shares.items():
            print(
                f"  {category:<15} {share:.3f}  "
                f"({composition.category_counts[category]} queries)"
            )
        print(
            f"heavy hitters (space-saving, cm bound "
            f"±{composition.cm_error_bound:.1f} at "
            f"{composition.cm_confidence:.3f}):"
        )
        for hitter in composition.heavy_hitters:
            print(
                f"  {hitter.qname:<40} ~{hitter.estimate} "
                f"(err ≤ {hitter.error}, cm {hitter.cm_estimate})"
            )
    if args.out:
        from .capture import write_csv

        count = write_csv(run.capture, args.out)
        print(f"wrote {count} rows to {args.out}", file=sys.stderr)
    _print_telemetry(telemetry, args.telemetry_out, title=args.dataset_id)
    _export_observability(args, telemetry)
    return partial_exit


def _serve_config(args: argparse.Namespace):
    from .config import check_positive
    from .faults import chaos_scenario
    from .server import RRLConfig
    from .service import ServiceConfig

    # Unset serves until signalled; a set duration must be positive and
    # finite (NaN, 0 or less would stop at once, inf never).
    if args.duration is not None:
        check_positive("--duration", args.duration)
    # 0 is off; anything else the configs check.
    rrl = None
    if args.rrl:
        rrl = RRLConfig(responses_per_second=args.rrl, burst=2.0 * args.rrl)
    return ServiceConfig(
        dataset_id=args.dataset_id,
        host=args.host,
        udp_port=args.udp_port,
        tcp_port=args.tcp_port,
        metrics_port=None if args.no_metrics else args.metrics_port,
        seed=args.seed,
        rrl=rrl,
        fault_plan=(
            chaos_scenario(args.chaos, seed=args.chaos_seed) if args.chaos else None
        ),
        fault_window_s=args.fault_window,
    )


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import json
    import signal

    from .service import DnsService

    async def _serve() -> int:
        service = DnsService(args.live_config)
        try:
            await service.start()
        except OSError as error:  # a port it cannot bind, named
            print(f"repro: error: {error.strerror}", file=sys.stderr)
            return 2
        ports = service.ports()
        if args.port_file:
            with open(args.port_file, "w") as handle:
                json.dump(ports, handle)
            print(f"wrote bound ports to {args.port_file}", file=sys.stderr)
        metrics_at = (
            f"http://{args.host}:{ports['metrics']}/metrics"
            if ports["metrics"] is not None
            else "off"
        )
        sockets = f"udp/tcp {args.host}:{ports['udp']}"
        if ports["tcp"] != ports["udp"]:
            sockets = (
                f"udp {args.host}:{ports['udp']} tcp {args.host}:{ports['tcp']}"
            )
        print(
            f"serving {args.dataset_id}: {sockets}, metrics {metrics_at}",
            file=sys.stderr,
        )
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(signum, service.request_shutdown)
        await service.run_until_shutdown(duration=args.duration)
        snapshot = await service.stop()
        _print_telemetry(snapshot, args.telemetry_out, title="serve")
        _export_observability(args, snapshot)
        return 0

    return asyncio.run(_serve())


def _loadgen_config(args: argparse.Namespace):
    from .service import LoadGenConfig

    # The gate compares a fraction: a value outside [0, 1] (NaN included)
    # could never fail, or never pass.
    if not 0.0 <= args.min_answered <= 1.0:
        raise ValueError(f"--min-answered must be in [0, 1], got {args.min_answered}")
    return LoadGenConfig(
        host=args.host,
        udp_port=args.port,
        tcp_port=args.tcp_port,
        dataset_id=args.dataset_id,
        queries=args.queries,
        tcp_fraction=args.tcp_fraction,
        seed=args.seed,
    )


def _cmd_loadgen(args: argparse.Namespace) -> int:
    import json

    from .service import run_loadgen_sync

    report = run_loadgen_sync(args.live_config)
    print(report.summary())
    for rcode, count in sorted(report.rcodes.items()):
        print(f"  {rcode:<10} {count}")
    if report.timeouts:
        print(f"  timeouts   {report.timeouts}")
    if report.late:
        print(f"  late       {report.late}")
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(report.as_dict(), handle, indent=2)
        print(f"wrote report to {args.json}", file=sys.stderr)
    if report.answered_fraction < args.min_answered:
        print(
            f"ERROR: answered fraction {report.answered_fraction:.4f} below "
            f"--min-answered {args.min_answered}",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_experiments(args: argparse.Namespace) -> int:
    from .experiments import ExperimentContext
    from .experiments.render_all import run_and_render

    ctx = ExperimentContext(
        scale=args.scale, seed=args.seed, fault_plan=_chaos_plan(args),
        config=args.config,
    )
    content = run_and_render(ctx)
    if args.write:
        with open(args.write, "w") as handle:
            handle.write(content)
        print(f"wrote {args.write}", file=sys.stderr)
    else:
        print(content)
    snapshot = ctx.telemetry.snapshot()
    _print_telemetry(snapshot, args.telemetry_out, title="experiments")
    _export_observability(args, snapshot)
    lookups = snapshot.counter
    print(
        f"worlds: {lookups('runtime.env_cache.miss', part='fleet')} fleets built, "
        f"{lookups('runtime.env_cache.hit', part='fleet')} borrowed; "
        f"{lookups('runtime.env_cache.miss', part='zone')} zones built",
        file=sys.stderr,
    )
    return 0


def _add_sim_flags(parser: argparse.ArgumentParser, scale_default: str) -> None:
    """The flag set shared by every simulating command.

    Both ``dataset`` and ``experiments`` get these with identical help
    text — keeping availability uniform is the point, so add new
    simulation flags here, not on one subparser.  (``chaos`` and ``list``
    are list-only commands and take none of them; ``-v`` lives on the
    top-level parser and applies everywhere.)
    """
    parser.add_argument("--scale", type=float, default=float(scale_default),
                        help=f"volume scale (default: {scale_default})")
    parser.add_argument("--seed", type=int, default=20201027,
                        help="simulation seed (default: 20201027)")
    parser.add_argument("--telemetry-out", metavar="PATH",
                        help="write the run's telemetry snapshot as JSON")
    parser.add_argument("--metrics-out", metavar="PATH",
                        help="write the run's telemetry snapshot in the"
                             " Prometheus text exposition format")
    parser.add_argument("--workers", type=int, default=1,
                        help="worker processes for sharded execution"
                             " (default: 1 = serial)")
    parser.add_argument("--chaos", metavar="SCENARIO", default=None,
                        help="run under a named fault schedule (see"
                             " 'repro chaos'; default: none)")
    parser.add_argument("--chaos-seed", type=int, default=None,
                        help="fault-placement seed of --chaos (default:"
                             " derived from --seed)")
    parser.add_argument("--spool-dir", metavar="DIR", default=None,
                        help="write each capture's chunks as files under"
                             " DIR/<dataset_id>/ (default: keep them in"
                             " memory)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Clouding up the Internet' (IMC 2020)",
    )
    parser.add_argument(
        "-v", "--verbose", action="count", default=0,
        help="-v: progress logging (INFO); -vv: phase spans (DEBUG)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="list paper datasets")
    p_list.set_defaults(func=_cmd_list)

    p_dataset = sub.add_parser("dataset", help="simulate one dataset")
    p_dataset.add_argument("dataset_id")
    _add_sim_flags(p_dataset, scale_default="0.2")
    p_dataset.add_argument("--out", help="write the capture to this CSV path")
    p_dataset.add_argument("--sovereignty", action="store_true",
                           help="print the country/bloc jurisdiction cut"
                                " (query + traffic shares, bloc cloud"
                                " dependency)")
    p_dataset.add_argument("--composition", action="store_true",
                           help="print the query-composition taxonomy and"
                                " sketch-backed heavy hitters")
    p_dataset.add_argument("--allow-partial", action="store_true",
                           help="exit 0 even when shards failed and the"
                                " capture is incomplete")
    p_dataset.set_defaults(func=_cmd_dataset)

    p_exp = sub.add_parser("experiments", help="run all paper experiments")
    _add_sim_flags(p_exp, scale_default="1.0")
    p_exp.add_argument("--write", metavar="PATH",
                       help="write the combined report to PATH (markdown)")
    p_exp.set_defaults(func=_cmd_experiments)

    p_chaos = sub.add_parser("chaos", help="list chaos scenarios")
    p_chaos.set_defaults(func=_cmd_chaos)

    p_serve = sub.add_parser(
        "serve", help="live DNS frontend over real UDP/TCP sockets"
    )
    p_serve.add_argument("dataset_id", nargs="?", default="nl-w2020",
                         help="dataset whose authority world to serve"
                              " (default: nl-w2020)")
    p_serve.add_argument("--host", default="127.0.0.1",
                         help="bind address (default: 127.0.0.1)")
    p_serve.add_argument("--udp-port", type=int, default=5300,
                         help="UDP port; 0 = ephemeral (default: 5300)")
    p_serve.add_argument("--tcp-port", type=int, default=None,
                         help="TCP port (default: same as the bound UDP"
                              " port)")
    p_serve.add_argument("--metrics-port", type=int, default=0,
                         help="Prometheus /metrics port; 0 = ephemeral"
                              " (default: 0)")
    p_serve.add_argument("--no-metrics", action="store_true",
                         help="disable the /metrics listener")
    p_serve.add_argument("--seed", type=int, default=20201027,
                         help="world-build seed (default: 20201027)")
    p_serve.add_argument("--rrl", type=float, default=0.0, metavar="RATE",
                         help="enable response rate limiting at RATE"
                              " responses/s per client prefix (0 = off)")
    p_serve.add_argument("--chaos", metavar="SCENARIO", default=None,
                         help="apply a named fault schedule to live"
                              " traffic (default: none)")
    p_serve.add_argument("--chaos-seed", type=int, default=None,
                         help="fault-placement seed of --chaos (default:"
                              " derived from --seed)")
    p_serve.add_argument("--fault-window", type=float, default=3600.0,
                         metavar="SECONDS",
                         help="uptime window the chaos schedule replays"
                              " over (default: 3600)")
    p_serve.add_argument("--port-file", metavar="PATH", default=None,
                         help="write the bound ports as JSON (for"
                              " scripting against ephemeral ports)")
    p_serve.add_argument("--duration", type=float, default=None,
                         metavar="SECONDS",
                         help="serve for this long then exit (default:"
                              " until SIGINT/SIGTERM)")
    p_serve.add_argument("--telemetry-out", metavar="PATH",
                         help="write the final telemetry snapshot as"
                              " JSON on shutdown")
    p_serve.add_argument("--metrics-out", metavar="PATH",
                         help="write the final snapshot in Prometheus"
                              " text format on shutdown")
    p_serve.set_defaults(func=_cmd_serve, make_config=_serve_config)

    p_loadgen = sub.add_parser(
        "loadgen", help="replay workload streams against a live serve"
    )
    p_loadgen.add_argument("dataset_id", nargs="?", default="nl-w2020",
                           help="dataset shaping the query stream"
                                " (default: nl-w2020)")
    p_loadgen.add_argument("--host", default="127.0.0.1",
                           help="target address (default: 127.0.0.1)")
    p_loadgen.add_argument("--port", type=int, default=5300,
                           help="target UDP port (default: 5300)")
    p_loadgen.add_argument("--tcp-port", type=int, default=None,
                           help="target TCP port (default: same as"
                                " --port)")
    p_loadgen.add_argument("--queries", type=int, default=1000,
                           help="queries to send (default: 1000)")
    p_loadgen.add_argument("--tcp-fraction", type=float, default=0.0,
                           help="share of queries sent over TCP, in"
                                " [0, 1] (default: 0)")
    p_loadgen.add_argument("--seed", type=int, default=20201027,
                           help="stream seed (default: 20201027)")
    p_loadgen.add_argument("--min-answered", type=float, default=0.0,
                           metavar="FRACTION",
                           help="exit 1 if the answered fraction falls"
                                " below this (CI gate)")
    p_loadgen.add_argument("--json", metavar="PATH", default=None,
                           help="write the full report as JSON")
    p_loadgen.set_defaults(func=_cmd_loadgen, make_config=_loadgen_config)

    args = parser.parse_args(argv)
    try:
        if hasattr(args, "chaos"):
            _resolve_flags(args)
        _check_args(args)
        if hasattr(args, "make_config"):
            # Built here so a value the config rejects is a usage error too.
            args.live_config = args.make_config(args)
    except ValueError as exc:
        parser.error(str(exc))
    if args.verbose:
        from .telemetry import configure_logging

        configure_logging(args.verbose)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
