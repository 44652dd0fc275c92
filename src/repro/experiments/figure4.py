"""Figure 4 — per-provider junk ratios at each vantage."""

from __future__ import annotations

from ..clouds import JUNK_FRACTION, PROVIDERS
from ..workload import datasets_for_vantage
from .context import ExperimentContext
from .report import Report

#: Paper's vantage-wide junk levels (section 3): ~14% .nl, ~29% .nz,
#: ~80% B-Root in 2020.
PAPER_OVERALL_JUNK = {
    ("nl", 2018): 0.104, ("nl", 2019): 0.109, ("nl", 2020): 0.136,
    ("nz", 2018): 0.322, ("nz", 2019): 0.193, ("nz", 2020): 0.337,
    ("root", 2018): 0.653, ("root", 2019): 0.654, ("root", 2020): 0.800,
}


def run_vantage(ctx: ExperimentContext, vantage: str) -> Report:
    panel = {"nl": "a", "nz": "b", "root": "c"}[vantage]
    report = Report(
        f"figure4{panel}", f"Cloud junk query ratio at {vantage} (Figure 4{panel})"
    )
    for descriptor in datasets_for_vantage(vantage):
        analytics = ctx.analytics(descriptor.dataset_id)
        ratios = analytics.junk_ratios(PROVIDERS)
        for provider in PROVIDERS:
            report.add(
                f"{descriptor.year} {provider}",
                round(JUNK_FRACTION[(provider, descriptor.year)], 3),
                round(ratios[provider], 3),
                unit="junk ratio",
                note="paper column = configured client junk input",
            )
        report.add(
            f"{descriptor.year} overall",
            PAPER_OVERALL_JUNK[(vantage, descriptor.year)],
            round(analytics.overall_junk_ratio(), 3),
            unit="junk ratio",
        )
    return report
