"""Figures 5 and 8 — Facebook per-site dual-stack behaviour vs RTT.

Figure 5a: per-site query volumes by family toward `.nl`'s Server A.
Figure 5b: per-site IPv6 query ratio against median TCP RTTs per family.
Figure 8 repeats both for Server B (appendix).
"""

from __future__ import annotations

from ..analysis import rtt_preference_correlation
from ..paper import FIGURE5
from .context import ExperimentContext
from .report import Report


def run_server(ctx: ExperimentContext, server_id: str) -> Report:
    figure = "figure5" if server_id == "nl-a" else "figure8"
    report = Report(
        figure, f"Facebook sites vs .nl {server_id} (w2020, {figure})"
    )
    stats, dual = ctx.analytics("nl-w2020").facebook_sites(
        ctx.run("nl-w2020").ptr_table, server_id
    )
    report.add("sites identified", FIGURE5["sites_total"], len(stats))
    if stats:
        dominant = max(stats, key=lambda s: s.total_queries)
        report.add("dominant site", FIGURE5["dominant_site"], dominant.site_index)
        site1 = next((s for s in stats if s.site_index == 1), None)
        if site1 is not None:
            no_tcp = site1.median_tcp_rtt_v4 is None and site1.median_tcp_rtt_v6 is None
            report.add("site 1 sends TCP", "no", "no" if no_tcp else "yes")
    correlation = rtt_preference_correlation(stats)
    for site_index, v6_ratio, gap in correlation:
        expectation = (
            "v4-preferring"
            if site_index in FIGURE5["v4_preferring_sites"]
            else "mixed/v6"
        )
        gap_text = f"gap {gap:+.0f}ms" if gap is not None else "no TCP RTT"
        report.add(
            f"site {site_index} v6 ratio",
            expectation,
            round(v6_ratio, 2),
            note=gap_text,
        )
    report.add("dual-stack hosts (PTR join)", ">0", dual.dual_stack_hosts)
    report.add("addresses without PTR", "1 v4 + 2 v6", dual.addresses_without_ptr)
    report.series = {
        "sites": [s.site_index for s in stats],
        "queries_v4": [s.queries_v4 for s in stats],
        "queries_v6": [s.queries_v6 for s in stats],
        "v6_ratio": [s.v6_ratio for s in stats],
        "rtt_v4": [s.median_tcp_rtt_v4 for s in stats],
        "rtt_v6": [s.median_tcp_rtt_v6 for s in stats],
    }
    return report
