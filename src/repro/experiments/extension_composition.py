"""Extension experiment: query-composition taxonomy per vantage.

Not a paper figure — the B-Root composition lens (Ginesin & Mirkovic)
applied to the paper's datasets: Figure 4's NOERROR/non-NOERROR split
refined into chromium-style single-label probes, leaked local names,
meta-qtype junk, and residual error classes, plus the sketch-backed
repeated-query heavy hitters.

Expected shapes: the root vantage carries the largest junk fraction and
its junk is dominated by single-label probes (the chromium effect); the
ccTLD vantages see mostly NOERROR with a thinner junk tail.

Category rows come from exact counting and are bit-identical however the
capture was chunked.  The heavy-hitter list is approximate
(space-saving + count-min) and therefore rides in ``Report.approx`` with
its certified error bounds, outside the bit-identity contract.
"""

from __future__ import annotations

from typing import Dict

from ..analysis import CATEGORIES
from .context import ExperimentContext
from .report import Report

#: How many heavy-hitter names to surface per dataset.
TOP_NAMES = 5


def run_vantage(ctx: ExperimentContext, vantage: str) -> Report:
    from ..workload import datasets_for_vantage

    report = Report(
        f"ext-composition-{vantage}",
        f"Query-composition taxonomy at {vantage} (extension)",
    )
    series: Dict[str, list] = {"year": []}
    for category in CATEGORIES:
        series[category] = []
    for descriptor in datasets_for_vantage(vantage):
        analytics = ctx.analytics(descriptor.dataset_id)
        composition = analytics.composition(top_k=TOP_NAMES)
        year = descriptor.year
        series["year"].append(year)
        for category in CATEGORIES:
            share = composition.category_shares[category]
            series[category].append(round(share, 6))
            report.add(
                f"{year} {category} share",
                None,
                round(share, 4),
                note=f"{composition.category_counts[category]} queries",
            )
        report.approx[f"{year} heavy hitters"] = [
            (
                hitter.qname,
                hitter.estimate,
                hitter.error,
                hitter.cm_estimate,
            )
            for hitter in composition.heavy_hitters
        ]
        report.approx[f"{year} cm error bound"] = round(
            composition.cm_error_bound, 2
        )
    report.series = series
    report.notes.append(
        "categories are per-row pure (leaked-local suffix > meta qtype > "
        "single-label NXDOMAIN probe > other NXDOMAIN > other error > "
        "noerror); heavy hitters are sketch-estimated with stated bounds"
    )
    return report
