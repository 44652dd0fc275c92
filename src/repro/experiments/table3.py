"""Table 3 — per-dataset totals: queries, valid queries, resolvers, ASes."""

from __future__ import annotations

from typing import Dict

from ..paper import TABLE3
from ..workload import datasets_for_vantage
from .context import ExperimentContext
from .report import Report


def run(ctx: ExperimentContext) -> Report:
    """Regenerate Table 3 for all nine datasets.

    Absolute counts live on different scales (queries 1:~40k, resolvers
    1:~500); the shape assertions are the ratios: valid fractions per
    vantage, query growth over years, and the root's junk dominance.
    """
    report = Report("table3", "Evaluated datasets (Table 3)")
    for dataset_id, (queries, valid, resolvers, ases) in sorted(TABLE3.items()):
        summary = ctx.analytics(dataset_id).dataset_summary()
        report.add(f"{dataset_id} queries", f"{queries}B", summary.queries_total)
        report.add(
            f"{dataset_id} valid fraction",
            round(valid / queries, 3),
            round(summary.valid_fraction, 3),
        )
        report.add(f"{dataset_id} resolvers", f"{resolvers}M", summary.resolvers)
        report.add(f"{dataset_id} ASes", ases, summary.ases)
    report.notes.append(
        "queries/resolvers are simulated at declared scales; valid fractions "
        "and growth shapes are directly comparable"
    )
    return report


def growth(ctx: ExperimentContext, vantage: str) -> Dict[str, float]:
    """Query growth 2018→2020 for one vantage (paper: .nl +88%, .nz +55%,
    B-Root +150%)."""
    ids = [d.dataset_id for d in datasets_for_vantage(vantage)]
    # Capture length, not a materialised view: it comes from chunk
    # metadata, so spilled chunks are never loaded here.
    first = len(ctx.run(ids[0]).capture)
    last = len(ctx.run(ids[-1]).capture)
    return {"first": first, "last": last, "growth": last / first - 1.0}
