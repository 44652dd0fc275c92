"""Extension experiment: the sovereignty (country/bloc) cut per vantage.

Not a paper figure — the Boeira et al. jurisdiction lens applied to the
paper's datasets: the same captures re-cut by the registry country of the
query's origin AS, rolled up into jurisdiction blocs (EU, Five Eyes,
BRICS), with each bloc's hyperscaler-cloud dependency alongside the
paper's own 5-provider share.

Expected shapes: the ccTLD vantages skew toward their home jurisdiction
(nl → EU, nz → Five Eyes via AU/NZ sites), the Five Eyes rollup rides the
US-registered cloud ASes everywhere, and each bloc's cloud share tracks
the vantage's overall provider share.

All reported rows come from exact integer counting (the
:class:`~repro.analysis.sovereignty.SovereigntyAggregator` state), so
they are bit-identical whether the chunks stayed resident or spilled.
"""

from __future__ import annotations

from typing import Dict

from ..analysis import JURISDICTION_BLOCS
from .context import ExperimentContext
from .report import Report

#: How many top countries to report per dataset.
TOP_COUNTRIES = 5


def run_vantage(ctx: ExperimentContext, vantage: str) -> Report:
    from ..workload import datasets_for_vantage

    report = Report(
        f"ext-sovereignty-{vantage}",
        f"Digital sovereignty cut at {vantage} (extension)",
    )
    series: Dict[str, list] = {"year": []}
    for bloc in JURISDICTION_BLOCS:
        series[f"{bloc} query share"] = []
        series[f"{bloc} cloud share"] = []
    for descriptor in datasets_for_vantage(vantage):
        analytics = ctx.analytics(descriptor.dataset_id)
        sovereignty = analytics.sovereignty()
        year = descriptor.year
        series["year"].append(year)
        for row in sovereignty.countries[:TOP_COUNTRIES]:
            report.add(
                f"{year} {row.name} query share",
                None,
                round(row.query_share, 4),
                note=f"traffic {row.traffic_share:.4f}",
            )
        for bloc in JURISDICTION_BLOCS:
            row = sovereignty.bloc(bloc)
            series[f"{bloc} query share"].append(round(row.query_share, 6))
            series[f"{bloc} cloud share"].append(round(row.cloud_share, 6))
            report.add(
                f"{year} {bloc} query share",
                None,
                round(row.query_share, 4),
                note=f"cloud dependency {row.cloud_share:.4f}",
            )
        report.add(
            f"{year} countries observed",
            None,
            len(sovereignty.countries),
        )
    report.series = series
    report.notes.append(
        "countries are the registry country of each query's origin AS; "
        "blocs roll up EU-27, Five Eyes, and BRICS membership"
    )
    return report
