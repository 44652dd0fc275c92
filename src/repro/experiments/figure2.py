"""Figure 2 (and appendix Figure 7) — resource-record mix per provider."""

from __future__ import annotations

from typing import Dict

from ..clouds import PROVIDERS, VALIDATES, qmin_enabled
from .context import ExperimentContext
from .report import Report

#: Figure panels: (vantage, year) → figure label.  2019 panels are the
#: appendix Figure 7.
PANELS = {
    ("nl", 2018): "figure2a", ("nz", 2018): "figure2b", ("root", 2018): "figure2c",
    ("nl", 2019): "figure7a", ("nz", 2019): "figure7b", ("root", 2019): "figure7c",
    ("nl", 2020): "figure2d", ("nz", 2020): "figure2e", ("root", 2020): "figure2f",
}


def _dataset_id(vantage: str, year: int) -> str:
    return f"{vantage}-w{year}" if vantage != "root" else f"root-{year}"


def run_panel(ctx: ExperimentContext, vantage: str, year: int) -> Report:
    """One panel: per-provider RR-type distributions.

    The paper's qualitative claims encoded as expectations:

    * 2018: A dominates everywhere;
    * 2020: NS share jumps for Q-min adopters (Google/Cloudflare/Facebook
      at both ccTLDs, Amazon at .nz only);
    * validators show DS > 0; Cloudflare's DS exceeds its DNSKEY;
    * the non-validator (Microsoft) shows ~no DS/DNSKEY.
    """
    figure = PANELS[(vantage, year)]
    dataset_id = _dataset_id(vantage, year)
    report = Report(figure, f"RR mix per cloud provider, {vantage} {year}")
    analytics = ctx.analytics(dataset_id)
    series: Dict[str, Dict[str, float]] = {}
    for provider in PROVIDERS:
        mix = analytics.rrtype_mix(provider)
        series[provider] = mix
        qmin = qmin_enabled(provider, vantage, year)
        for rrtype in ("A", "AAAA", "NS", "DS", "DNSKEY"):
            expectation = _expectation(provider, rrtype, qmin)
            report.add(
                f"{provider} {rrtype}", expectation, round(mix[rrtype], 3), unit="share"
            )
    report.series = series
    return report


def _expectation(provider: str, rrtype: str, qmin: bool) -> str:
    if rrtype == "NS":
        return "high (Q-min)" if qmin else "low"
    if rrtype in ("DS", "DNSKEY"):
        return ">0 (validates)" if VALIDATES[provider] else "~0"
    if rrtype == "A":
        return "dominant" if not qmin else "present"
    return "present"
