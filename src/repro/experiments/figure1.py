"""Figure 1 — cloud-provider query share per vantage and year."""

from __future__ import annotations

from typing import Dict

from ..clouds import PROVIDERS
from ..paper import FIGURE1, FIGURE1_TOTAL
from ..workload import datasets_for_vantage
from .context import ExperimentContext
from .report import Report


def run_vantage(ctx: ExperimentContext, vantage: str) -> Report:
    """One panel of Figure 1 (a: .nl, b: .nz, c: B-Root)."""
    panel = {"nl": "a", "nz": "b", "root": "c"}[vantage]
    report = Report(
        f"figure1{panel}", f"Cloud query ratio at {vantage} (Figure 1{panel})"
    )
    series: Dict[str, list] = {p: [] for p in PROVIDERS}
    for descriptor in datasets_for_vantage(vantage):
        analytics = ctx.analytics(descriptor.dataset_id)
        shares = analytics.provider_shares()
        total = analytics.cloud_share()
        for provider in PROVIDERS:
            series[provider].append(shares[provider])
            report.add(
                f"{descriptor.year} {provider}",
                round(FIGURE1[(vantage, descriptor.year)][provider], 3),
                round(shares[provider], 3),
                unit="share",
            )
        report.add(
            f"{descriptor.year} all 5 CPs",
            FIGURE1_TOTAL[(vantage, descriptor.year)],
            round(total, 3),
            unit="share",
        )
    report.series = series
    return report
