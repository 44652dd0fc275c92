"""Table 3 — per-dataset totals: queries, valid queries, resolvers, ASes."""

from __future__ import annotations

from ..paper import TABLE3
from .context import ExperimentContext
from .report import Report


def run(ctx: ExperimentContext) -> Report:
    """Regenerate Table 3 for all nine datasets.

    Absolute counts live on different scales (queries 1:~40k, resolvers
    1:~500); the paper's claims over these rows are ratios — valid
    fractions per vantage, query growth from 2018 to 2020 (the ``queries``
    rows), and the root's junk dominance (:data:`repro.paper.CLAIMS`).
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
