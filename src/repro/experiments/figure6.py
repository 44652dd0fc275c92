"""Figure 6 — EDNS(0) UDP message-size CDF and truncation ratios."""

from __future__ import annotations

from ..paper import FIGURE6_CDF, FIGURE6_TRUNCATION, TABLE5
from .context import ExperimentContext
from .report import Report


def run(ctx: ExperimentContext) -> Report:
    report = Report(
        "figure6", "CDF of EDNS(0) UDP message size for .nl, w2020 (Figure 6)"
    )
    analytics = ctx.analytics("nl-w2020")

    cdfs = {p: analytics.bufsize_cdf(p) for p in ("Facebook", "Google", "Microsoft")}
    for (provider, size), share in FIGURE6_CDF.items():
        report.add(f"{provider} CDF @{size}", share, round(cdfs[provider].at(size), 3))
    report.add(
        "Microsoft CDF @1232",
        "similar to Google",
        round(cdfs["Microsoft"].at(1232), 3),
    )

    truncation = analytics.truncation_table()
    for provider, paper_value in FIGURE6_TRUNCATION.items():
        report.add(
            f"{provider} truncated UDP answers",
            paper_value,
            round(truncation[provider], 4),
        )
    report.add(
        "Facebook TCP share (consequence)",
        TABLE5[("Facebook", "nl", 2020)][3],
        round(analytics.tcp_share("Facebook"), 3),
    )
    report.series = {f"{p.lower()}_cdf": cdf.as_points() for p, cdf in cdfs.items()}
    return report
