"""Extension experiment: scalar centralization indices across vantages.

Not a paper figure — the natural extension of the paper's analysis (its
conclusion asks how concentrated DNS traffic is becoming): HHI, CR-n, and
Gini over the per-AS query distribution, per vantage and year, plus the
paper's own 5-provider group share for comparison.

Expected shapes: ccTLDs are more provider-concentrated than the root; the
group share tracks Figure 1; indices do not decrease over the years.
"""

from __future__ import annotations

from typing import Dict

from ..workload import datasets_for_vantage
from .context import ExperimentContext
from .report import Report


def run_vantage(ctx: ExperimentContext, vantage: str) -> Report:
    report = Report(
        f"ext-concentration-{vantage}",
        f"Concentration indices at {vantage} (extension)",
    )
    series: Dict[str, list] = {"year": [], "hhi": [], "cr5": [], "cr20": [], "gini": [], "group": []}
    for descriptor in datasets_for_vantage(vantage):
        analytics = ctx.analytics(descriptor.dataset_id)
        stats = analytics.concentration()
        group = analytics.provider_group_share()
        year = descriptor.year
        series["year"].append(year)
        series["hhi"].append(stats.hhi)
        series["cr5"].append(stats.cr5)
        series["cr20"].append(stats.cr20)
        series["gini"].append(stats.gini)
        series["group"].append(group)
        report.add(f"{year} CR-5 (ASes)", None, round(stats.cr5, 3))
        report.add(f"{year} CR-20 (ASes)", None, round(stats.cr20, 3))
        report.add(f"{year} HHI", None, round(stats.hhi, 4), note=stats.hhi_band)
        report.add(f"{year} Gini", None, round(stats.gini, 3))
        report.add(
            f"{year} 5-provider group share",
            ">0.30 at ccTLDs, ~0.09 at root" if vantage != "root" else "~0.06-0.09",
            round(group, 3),
        )
        report.add(
            f"{year} effective competitors",
            None,
            round(stats.effective_competitors, 1),
        )
    report.series = series
    return report
