"""Run every experiment and render the full paper-vs-measured record.

This is the engine behind ``python -m repro experiments`` and the generator
for EXPERIMENTS.md: it executes all table/figure runners against a shared
context and emits one combined document, closed by the ``claims`` report
(the paper's findings, :data:`repro.paper.CLAIMS`, checked against them).

Every runner is executed through :func:`instrumented`, which stamps the
report with its wall time and the session-counter deltas it caused (which
datasets it simulated, how many rows it touched) — the per-experiment cost
record the ROADMAP's perf work reports against.
"""

from __future__ import annotations

import time
from typing import Callable, List

from . import (
    extension_composition,
    extension_concentration,
    extension_outage,
    extension_resilience,
    extension_rssac,
    extension_sovereignty,
    figure1,
    figure2,
    figure3,
    figure4,
    figure5,
    figure6,
    table2,
    table3,
    table4,
    table5,
    table6,
)
from .claims import claims_report, evaluate
from .context import ExperimentContext
from .report import Report


def instrumented(ctx: ExperimentContext, runner: Callable[[], Report]) -> Report:
    """Run one experiment, attaching wall time and counter deltas."""
    before = ctx.telemetry.snapshot()
    start = time.perf_counter()
    report = runner()
    report.wall_time_s = time.perf_counter() - start
    report.counter_deltas = ctx.telemetry.snapshot().diff(before).counters
    return report


def collect_all(ctx: ExperimentContext) -> List[Report]:
    """Run every experiment; returns reports in paper order."""
    runners: List[Callable[[], Report]] = []
    runners.append(lambda: table2.run(ctx))
    runners.append(lambda: table3.run(ctx))
    for vantage in ("nl", "nz", "root"):
        runners.append(lambda v=vantage: figure1.run_vantage(ctx, v))
    for (vantage, year), figure_id in sorted(
        figure2.PANELS.items(), key=lambda item: item[1]
    ):
        runners.append(lambda v=vantage, y=year: figure2.run_panel(ctx, v, y))
    for vantage in ("nl", "nz"):
        runners.append(lambda v=vantage: figure3.run_vantage(ctx, v))
    for vantage in ("nl", "nz", "root"):
        runners.append(lambda v=vantage: figure4.run_vantage(ctx, v))
    runners.append(lambda: table4.run_year(ctx, 2020))
    runners.append(lambda: table4.run_year(ctx, 2019))
    for vantage in ("nl", "nz"):
        for year in (2018, 2019, 2020):
            runners.append(
                lambda v=vantage, y=year: table5.run_vantage_year(ctx, v, y)
            )
    runners.append(lambda: table6.run(ctx))
    runners.append(lambda: figure5.run_server(ctx, "nl-a"))
    runners.append(lambda: figure5.run_server(ctx, "nl-b"))
    runners.append(lambda: figure6.run(ctx))
    for vantage in ("nl", "nz", "root"):
        runners.append(
            lambda v=vantage: extension_concentration.run_vantage(ctx, v)
        )
    for vantage in ("nl", "nz", "root"):
        runners.append(
            lambda v=vantage: extension_sovereignty.run_vantage(ctx, v)
        )
    for vantage in ("nl", "nz", "root"):
        runners.append(
            lambda v=vantage: extension_composition.run_vantage(ctx, v)
        )
    runners.append(lambda: extension_rssac.run(ctx))
    runners.append(lambda: extension_outage.run(ctx))
    runners.append(lambda: extension_resilience.run(ctx))
    return [instrumented(ctx, runner) for runner in runners]


def render_markdown(reports: List[Report], scale: float, elapsed: float) -> str:
    """EXPERIMENTS.md content from a full run."""
    lines = [
        "# EXPERIMENTS — paper vs. measured",
        "",
        "Generated by `python -m repro experiments --write`.",
        "",
        f"* simulation scale: {scale} (client queries relative to the benchmark volume)",
        f"* total wall time: {elapsed:.0f}s",
        "",
        "Scales: simulated client queries stand for ~40k real queries each;",
        "zone entries ~1:1500; resolver addresses ~1:100-500 (per-fleet,",
        "declared in `repro.clouds.profiles`).  Absolute counts therefore",
        "differ from the paper by design; the comparisons below are about",
        "*shape*: who wins, by what factor, and where the crossovers are.",
        "",
        "Known scale artifacts: per-resolver fixed-cost queries (DNSKEY",
        "refreshes) are over-represented relative to the paper because each",
        "simulated resolver sends ~10^3 fewer queries than a real one; this",
        "inflates DNSKEY shares mostly in the small per-CP samples at the",
        "B-Root vantage.",
        "",
    ]
    for report in reports:
        lines.append("```")
        lines.append(report.to_text())
        lines.append("```")
        lines.append("")
    return "\n".join(lines)


def run_and_render(ctx: ExperimentContext) -> str:
    """Every report of ``ctx`` and the ``claims`` report checked against
    them, rendered as the experiments document.

    The CLI builds ``ctx``, so it keeps its caches and telemetry registry
    and can export ``ctx.telemetry`` afterwards.
    """
    start = time.perf_counter()
    reports = collect_all(ctx)
    elapsed = time.perf_counter() - start
    claims = claims_report(evaluate(reports, ctx.scale))
    return render_markdown([*reports, claims], ctx.scale, elapsed)
