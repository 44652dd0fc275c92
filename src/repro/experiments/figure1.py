"""Figure 1 — cloud-provider query share per vantage and year."""

from __future__ import annotations

from typing import Dict

from ..clouds import PROVIDERS, TRAFFIC_SHARE
from ..workload import datasets_for_vantage
from .context import ExperimentContext
from .report import Report

#: Paper's headline totals per vantage (section 4.1): >30% at .nl, a bit
#: under 30% at .nz (2019), 8.7% at B-Root (2020).
PAPER_CLOUD_TOTAL = {
    ("nl", 2018): 0.32, ("nl", 2019): 0.34, ("nl", 2020): 0.335,
    ("nz", 2018): 0.27, ("nz", 2019): 0.285, ("nz", 2020): 0.297,
    ("root", 2018): 0.060, ("root", 2019): 0.075, ("root", 2020): 0.087,
}


def run_vantage(ctx: ExperimentContext, vantage: str) -> Report:
    """One panel of Figure 1 (a: .nl, b: .nz, c: B-Root)."""
    panel = {"nl": "a", "nz": "b", "root": "c"}[vantage]
    report = Report(
        f"figure1{panel}", f"Cloud query ratio at {vantage} (Figure 1{panel})"
    )
    series: Dict[str, list] = {p: [] for p in PROVIDERS}
    for descriptor in datasets_for_vantage(vantage):
        analytics = ctx.analytics(descriptor.dataset_id)
        shares = analytics.provider_shares(PROVIDERS)
        total = analytics.cloud_share(PROVIDERS)
        for provider in PROVIDERS:
            series[provider].append(shares[provider])
            report.add(
                f"{descriptor.year} {provider}",
                round(TRAFFIC_SHARE[(vantage, descriptor.year)][provider], 3),
                round(shares[provider], 3),
                unit="share",
            )
        report.add(
            f"{descriptor.year} all 5 CPs",
            PAPER_CLOUD_TOTAL[(vantage, descriptor.year)],
            round(total, 3),
            unit="share",
        )
    report.series = series
    return report
