"""Tables 4 and 7 — Google Public DNS vs rest-of-Google split."""

from __future__ import annotations

from ..clouds import GOOGLE_PUBLIC_DNS_PREFIXES
from .context import ExperimentContext
from .report import Report

#: Paper values: (vantage, year) → (public query ratio, public resolver ratio).
PAPER_SPLITS = {
    ("nl", 2020): (0.865, 0.156),
    ("nz", 2020): (0.884, 0.187),
    ("nl", 2019): (0.893, 0.154),
    ("nz", 2019): (0.844, 0.177),
}


def run_year(ctx: ExperimentContext, year: int) -> Report:
    table = "table4" if year == 2020 else "table7"
    report = Report(table, f"Queries from Google on w{year} (Table {4 if year == 2020 else 7})")
    for vantage in ("nl", "nz"):
        dataset_id = f"{vantage}-w{year}"
        split = ctx.analytics(dataset_id).google_split(GOOGLE_PUBLIC_DNS_PREFIXES)
        paper_q, paper_r = PAPER_SPLITS[(vantage, year)]
        report.add(f".{vantage} total queries", None, split.total_queries)
        report.add(f".{vantage} public queries", None, split.public_queries)
        report.add(f".{vantage} rest queries", None, split.rest_queries)
        report.add(
            f".{vantage} ratio public (queries)",
            paper_q,
            round(split.public_query_ratio, 3),
        )
        report.add(f".{vantage} total resolvers", None, split.total_resolvers)
        report.add(
            f".{vantage} ratio public (resolvers)",
            paper_r,
            round(split.public_resolver_ratio, 3),
        )
    report.notes.append(
        "split computed by membership of source addresses in the advertised "
        "Google Public DNS egress ranges, as in the paper"
    )
    return report
