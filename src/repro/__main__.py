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

Observability flags (see README "Observability"): ``-v/-vv`` turn on
progress/debug logging, ``--telemetry-out PATH`` exports the run's
telemetry snapshot as JSON, and every simulating command prints a
phase/counter summary on stderr.  The two simulating commands
(``dataset``, ``experiments``) expose the same flag set via a shared
helper so availability and help text cannot drift.

Chaos flags (see README "Chaos scenarios"): ``--chaos <scenario>`` runs
the simulation under a named fault schedule (``--chaos-seed``, which
needs ``--chaos``, varies the fault placement independently of ``--seed``).

Where the capture lives (see README "Capture chunks and the one fold"):
every run folds each capture chunk into single-pass aggregates as it
freezes it; ``--spool-dir DIR`` then writes the chunks as files under
``DIR/<dataset_id>/`` instead of keeping them in memory.  Answers are
bit-identical either way.

Settings come from flags alone: nothing here reads the environment.  The
flags of ``dataset`` and ``experiments`` are checked once, before anything
is built, and folded into one :class:`~repro.config.RunConfig`; a value
that cannot run — ``--scale -1``, ``--chaos-seed`` without ``--chaos``, or
a ``--workers`` other than 1 (every dataset runs in one process; the flag
stays only for callers that still pass ``--workers 1``) — is a usage error
(exit 2) naming it.  So is an unknown dataset id and an output path that
is a directory or whose directory does not exist.
"""

from __future__ import annotations

import argparse
import os
import sys


def _resolve_flags(args: argparse.Namespace) -> None:
    """Check the flags of the simulating commands (``dataset``,
    ``experiments``) and give them ``args.config``, the run's
    :class:`~repro.config.RunConfig`.

    ``--chaos-seed`` places the faults of a ``--chaos`` scenario, so alone
    it is an error.  A value that does not validate raises ``ValueError``,
    which :func:`main` reports as a usage error before anything is
    simulated.
    """
    from .config import RunConfig, check_positive

    if args.workers < 1:
        raise ValueError(f"workers must be >= 1, got {args.workers}")
    if args.workers != 1:
        raise ValueError(
            f"--workers {args.workers}: shard parallelism was removed;"
            " every dataset runs in one process (only --workers 1 runs)"
        )
    if args.chaos_seed is not None and not args.chaos:
        raise ValueError(f"--chaos-seed {args.chaos_seed} needs --chaos SCENARIO")
    check_positive("scale", args.scale)
    args.config = RunConfig(spool_dir=args.spool_dir)


#: Flags naming a file a command writes; its directory must already exist.
_OUTPUT_FLAGS = ("out", "write", "telemetry_out")


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


def _print_telemetry(snapshot, telemetry_out, title: str) -> None:
    """Stderr summary + optional JSON export, shared by the commands."""
    from .telemetry import format_summary

    print(format_summary(snapshot, title=title, max_counters=30), file=sys.stderr)
    if telemetry_out:
        snapshot.write_json(telemetry_out)
        print(f"wrote telemetry to {telemetry_out}", file=sys.stderr)


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
    parser.add_argument("--workers", type=int, default=1,
                        help="removed: every dataset runs in one process;"
                             " only 1 (the default) is accepted")
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
    p_dataset.set_defaults(func=_cmd_dataset)

    p_exp = sub.add_parser("experiments", help="run all paper experiments")
    _add_sim_flags(p_exp, scale_default="1.0")
    p_exp.add_argument("--write", metavar="PATH",
                       help="write the combined report to PATH (markdown)")
    p_exp.set_defaults(func=_cmd_experiments)

    p_chaos = sub.add_parser("chaos", help="list chaos scenarios")
    p_chaos.set_defaults(func=_cmd_chaos)

    args = parser.parse_args(argv)
    try:
        if hasattr(args, "chaos"):
            _resolve_flags(args)
        _check_args(args)
    except ValueError as exc:
        parser.error(str(exc))
    if args.verbose:
        from .telemetry import configure_logging

        configure_logging(args.verbose)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
