"""Table 5 — per-provider IPv4/IPv6 and UDP/TCP query distribution."""

from __future__ import annotations

from typing import Dict, Tuple

from ..clouds import PROVIDERS
from .context import ExperimentContext
from .report import Report

#: Paper's Table 5, flattened: (provider, vantage, year) → (v4, v6, udp, tcp).
PAPER_TABLE5: Dict[Tuple[str, str, int], Tuple[float, float, float, float]] = {
    ("Google", "nl", 2018): (0.66, 0.34, 1.0, 0.0),
    ("Google", "nl", 2019): (0.49, 0.51, 1.0, 0.0),
    ("Google", "nl", 2020): (0.52, 0.48, 1.0, 0.0),
    ("Google", "nz", 2018): (0.61, 0.39, 1.0, 0.0),
    ("Google", "nz", 2019): (0.54, 0.46, 1.0, 0.0),
    ("Google", "nz", 2020): (0.54, 0.46, 1.0, 0.0),
    ("Amazon", "nl", 2018): (1.0, 0.0, 1.0, 0.0),
    ("Amazon", "nl", 2019): (0.98, 0.02, 0.98, 0.02),
    ("Amazon", "nl", 2020): (0.97, 0.03, 0.95, 0.05),
    ("Amazon", "nz", 2018): (1.0, 0.0, 0.98, 0.02),
    ("Amazon", "nz", 2019): (0.97, 0.03, 0.96, 0.04),
    ("Amazon", "nz", 2020): (0.96, 0.04, 0.95, 0.05),
    ("Microsoft", "nl", 2018): (1.0, 0.0, 1.0, 0.0),
    ("Microsoft", "nl", 2019): (1.0, 0.0, 1.0, 0.0),
    ("Microsoft", "nl", 2020): (1.0, 0.0, 1.0, 0.0),
    ("Microsoft", "nz", 2018): (1.0, 0.0, 1.0, 0.0),
    ("Microsoft", "nz", 2019): (1.0, 0.0, 1.0, 0.0),
    ("Microsoft", "nz", 2020): (1.0, 0.0, 1.0, 0.0),
    ("Facebook", "nl", 2018): (0.52, 0.48, 0.79, 0.21),
    ("Facebook", "nl", 2019): (0.24, 0.76, 0.85, 0.15),
    ("Facebook", "nl", 2020): (0.24, 0.76, 0.86, 0.14),
    ("Facebook", "nz", 2018): (0.51, 0.49, 0.52, 0.48),
    ("Facebook", "nz", 2019): (0.19, 0.81, 0.83, 0.17),
    ("Facebook", "nz", 2020): (0.17, 0.83, 0.85, 0.15),
    ("Cloudflare", "nl", 2018): (0.54, 0.46, 1.0, 0.0),
    ("Cloudflare", "nl", 2019): (0.57, 0.43, 0.99, 0.01),
    ("Cloudflare", "nl", 2020): (0.51, 0.49, 0.98, 0.02),
    ("Cloudflare", "nz", 2018): (0.54, 0.46, 1.0, 0.0),
    ("Cloudflare", "nz", 2019): (0.56, 0.44, 1.0, 0.0),
    ("Cloudflare", "nz", 2020): (0.49, 0.51, 0.99, 0.01),
}


def run_vantage_year(ctx: ExperimentContext, vantage: str, year: int) -> Report:
    dataset_id = f"{vantage}-w{year}"
    report = Report(
        f"table5-{vantage}-{year}", f"Transport distribution, .{vantage} {year} (Table 5)"
    )
    rows = ctx.analytics(dataset_id).transport_matrix(PROVIDERS)
    for row in rows:
        paper = PAPER_TABLE5[(row.provider, vantage, year)]
        report.add(f"{row.provider} IPv4", paper[0], round(row.ipv4, 2))
        report.add(f"{row.provider} IPv6", paper[1], round(row.ipv6, 2))
        report.add(f"{row.provider} UDP", paper[2], round(row.udp, 2))
        report.add(f"{row.provider} TCP", paper[3], round(row.tcp, 2))
    return report
