"""Extension experiment: RSSAC002-style operator report for B-Root.

Section 3 of the paper leans on the RSSAC002 statistics the root letters
publish (to establish that only ~20-32% of root queries are valid).  This
experiment produces the equivalent operator report for the simulated
B-Root captures: daily volumes, transport/family splits, NXDOMAIN share,
and unique-source counts, per collection year.
"""

from __future__ import annotations

from typing import Dict

from ..paper import TABLE3
from ..workload import datasets_for_vantage
from .context import ExperimentContext
from .report import Report


def run(ctx: ExperimentContext) -> Report:
    report = Report("ext-rssac", "RSSAC002-style report for simulated B-Root")
    series: Dict[str, list] = {"year": [], "nxdomain": [], "v6": [], "sources": []}
    for descriptor in datasets_for_vantage("root"):
        summary = ctx.analytics(descriptor.dataset_id).rssac()
        year = descriptor.year
        # Table 3's valid fraction, rounded as section 3 quotes it; most
        # junk is NXDOMAIN (some is REFUSED et al.), so NXDOMAIN is about
        # its complement.
        queries, valid = TABLE3[descriptor.dataset_id][:2]
        valid_fraction = round(valid / queries, 2)
        series["year"].append(year)
        series["nxdomain"].append(summary.nxdomain_share)
        series["v6"].append(summary.v6_share)
        series["sources"].append(summary.unique_sources_peak)
        report.add(f"{year} total queries", None, summary.total_queries)
        report.add(f"{year} mean daily", None, round(summary.mean_daily_queries))
        report.add(
            f"{year} NXDOMAIN share",
            round(1.0 - valid_fraction, 2),
            round(summary.nxdomain_share, 3),
            note="paper column = 1 - valid fraction",
        )
        report.add(f"{year} UDP share", "~1.0", round(summary.udp_share, 3))
        report.add(f"{year} IPv6 share", None, round(summary.v6_share, 3))
        report.add(f"{year} peak unique sources", None, summary.unique_sources_peak)
    report.series = series
    return report
