"""Table 6 — Amazon and Microsoft resolver counts per address family."""

from __future__ import annotations

from ..paper import TABLE6
from .context import ExperimentContext
from .report import Report


def run(ctx: ExperimentContext) -> Report:
    """Distinct resolver addresses per family, Amazon and Microsoft, w2020.

    The paper's observation: the v6 address fractions (1.8-4.6%) directly
    correlate with the tiny v6 traffic shares of Table 5.
    """
    report = Report("table6", "Amazon and Microsoft resolvers, w2020 (Table 6)")
    for provider in ("Amazon", "Microsoft"):
        for vantage in ("nl", "nz"):
            dataset_id = f"{vantage}-w2020"
            inventory = ctx.analytics(dataset_id).resolver_inventory(provider)
            paper_total, paper_v4, paper_v6 = TABLE6[provider][vantage]
            report.add(f"{provider} .{vantage} total", paper_total, inventory.total)
            report.add(f"{provider} .{vantage} IPv4", paper_v4, inventory.ipv4)
            report.add(f"{provider} .{vantage} IPv6", paper_v6, inventory.ipv6)
            report.add(
                f"{provider} .{vantage} IPv6 fraction",
                round(paper_v6 / paper_total, 3),
                round(inventory.ipv6_fraction, 3),
            )
    report.notes.append("simulated resolver populations are scaled ~1:100")
    return report
