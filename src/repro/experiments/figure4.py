"""Figure 4 — per-provider junk ratios at each vantage."""

from __future__ import annotations

from ..clouds import JUNK_FRACTION, PROVIDERS
from ..paper import FIGURE4
from ..workload import datasets_for_vantage
from .context import ExperimentContext
from .report import Report


def run_vantage(ctx: ExperimentContext, vantage: str) -> Report:
    panel = {"nl": "a", "nz": "b", "root": "c"}[vantage]
    report = Report(
        f"figure4{panel}", f"Cloud junk query ratio at {vantage} (Figure 4{panel})"
    )
    for descriptor in datasets_for_vantage(vantage):
        analytics = ctx.analytics(descriptor.dataset_id)
        ratios = analytics.junk_ratios()
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
            FIGURE4[(vantage, descriptor.year)],
            round(analytics.overall_junk_ratio(), 3),
            unit="junk ratio",
        )
    return report
