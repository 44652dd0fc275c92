"""Table 3 — per-dataset totals: queries, valid queries, resolvers, ASes."""

from __future__ import annotations

from typing import Dict

from ..workload import PAPER_DATASETS
from .context import ExperimentContext
from .report import Report


def run(ctx: ExperimentContext) -> Report:
    """Regenerate Table 3 for all nine datasets.

    Absolute counts live on different scales (queries 1:~40k, resolvers
    1:~500); the shape assertions are the ratios: valid fractions per
    vantage, query growth over years, and the root's junk dominance.
    """
    report = Report("table3", "Evaluated datasets (Table 3)")
    for dataset_id in sorted(PAPER_DATASETS):
        descriptor = PAPER_DATASETS[dataset_id]
        summary = ctx.analytics(dataset_id).dataset_summary()
        paper_valid_fraction = (
            descriptor.paper_queries_valid / descriptor.paper_queries_total
        )
        report.add(
            f"{dataset_id} queries",
            f"{descriptor.paper_queries_total}B",
            summary.queries_total,
        )
        report.add(
            f"{dataset_id} valid fraction",
            round(paper_valid_fraction, 3),
            round(summary.valid_fraction, 3),
        )
        report.add(
            f"{dataset_id} resolvers",
            f"{descriptor.paper_resolvers}M",
            summary.resolvers,
        )
        report.add(f"{dataset_id} ASes", descriptor.paper_ases, summary.ases)
    report.notes.append(
        "queries/resolvers are simulated at declared scales; valid fractions "
        "and growth shapes are directly comparable"
    )
    return report


def growth(ctx: ExperimentContext, vantage: str) -> Dict[str, float]:
    """Query growth 2018→2020 for one vantage (paper: .nl +88%, .nz +55%,
    B-Root +150%)."""
    ids = sorted(
        d for d in PAPER_DATASETS if PAPER_DATASETS[d].vantage == vantage
    )
    # Capture length, not a materialised view: it comes from chunk
    # metadata, so streaming runs never load rows here.
    first = len(ctx.run(ids[0]).capture)
    last = len(ctx.run(ids[-1]).capture)
    return {"first": first, "last": last, "growth": last / first - 1.0}
