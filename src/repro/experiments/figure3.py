"""Figure 3 — monthly Google query mix and the Q-min rollout detection.

The paper's longitudinal study: per-month query-type distributions for
Google at both ccTLDs reveal the Dec-2019 Q-min deployment (NS share
jumps), and the Feb-2020 `.nz` dip caused by a cyclic-dependency
misconfiguration that flooded the TLD with A/AAAA queries.
"""

from __future__ import annotations

from typing import List

from ..analysis import MonthlyPoint, detect_rollout
from ..workload import FIGURE3_MONTHS
from .context import ExperimentContext
from .report import Report

#: The ground truth the paper establishes (confirmed by Google operators).
PAPER_ROLLOUT = (2019, 12)


def monthly_series(ctx: ExperimentContext, vantage: str) -> List[MonthlyPoint]:
    """Google's per-month Figure 3 data points for one ccTLD."""
    series = []
    for year, month in FIGURE3_MONTHS:
        __, analytics = ctx.monthly_analytics(vantage, year, month)
        series.append(analytics.monthly_point("Google", year, month))
    return series


def run_vantage(ctx: ExperimentContext, vantage: str) -> Report:
    panel = "a" if vantage == "nl" else "b"
    report = Report(
        f"figure3{panel}", f"Monthly Google query mix at .{vantage} (Figure 3{panel})"
    )
    series = monthly_series(ctx, vantage)
    for point in series:
        report.add(
            f"{point.label} NS share",
            "jump from Dec 2019" if (point.year, point.month) >= PAPER_ROLLOUT else "low",
            round(point.ns_share, 3),
        )
    detected = detect_rollout(series)
    report.add(
        "detected Q-min rollout",
        f"{PAPER_ROLLOUT[0]}-{PAPER_ROLLOUT[1]:02d}",
        f"{detected[0]}-{detected[1]:02d}" if detected else None,
    )
    # Verify the minimised-name signature on a post-rollout month.  .nz
    # registrations sit at the second AND third level, so minimised cuts
    # may be one or two labels below the apex.
    __, analytics = ctx.monthly_analytics(vantage, 2020, 1)
    max_cut_depth = 1 if vantage == "nl" else 2
    report.add(
        "minimised NS qnames (2020-01)",
        "~1.0",
        round(analytics.minimized_fraction("Google", 1, max_cut_depth), 3),
    )
    if vantage == "nz":
        feb = next(p for p in series if (p.year, p.month) == (2020, 2))
        jan = next(p for p in series if (p.year, p.month) == (2020, 1))
        report.add(
            "Feb-2020 A/AAAA spike (cyclic dep)",
            "A+AAAA > Jan",
            round(feb.a_share + feb.aaaa_share - (jan.a_share + jan.aaaa_share), 3),
            note="positive = spike reproduced",
        )
    report.series = {
        "months": [p.label for p in series],
        "ns_share": [p.ns_share for p in series],
        "a_share": [p.a_share for p in series],
        "aaaa_share": [p.aaaa_share for p in series],
    }
    return report
