"""Table 5 — per-provider IPv4/IPv6 and UDP/TCP query distribution."""

from __future__ import annotations

from ..paper import TABLE5
from .context import ExperimentContext
from .report import Report

def run_vantage_year(ctx: ExperimentContext, vantage: str, year: int) -> Report:
    dataset_id = f"{vantage}-w{year}"
    report = Report(
        f"table5-{vantage}-{year}", f"Transport distribution, .{vantage} {year} (Table 5)"
    )
    rows = ctx.analytics(dataset_id).transport_matrix()
    for row in rows:
        paper = TABLE5[(row.provider, vantage, year)]
        report.add(f"{row.provider} IPv4", paper[0], round(row.ipv4, 2))
        report.add(f"{row.provider} IPv6", paper[1], round(row.ipv6, 2))
        report.add(f"{row.provider} UDP", paper[2], round(row.udp, 2))
        report.add(f"{row.provider} TCP", paper[3], round(row.tcp, 2))
    return report
