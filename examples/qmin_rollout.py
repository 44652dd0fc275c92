#!/usr/bin/env python3
"""Longitudinal Q-min detection: pinpoint Google's rollout month.

Reproduces the paper's Figure 3 study: monthly Google-only traffic samples
at a ccTLD, the NS-share time series, changepoint detection of the QNAME
minimisation rollout (ground truth: Dec 2019, confirmed by Google
operators), and verification that post-rollout NS queries carry minimised
names.

Usage::

    python examples/qmin_rollout.py [nl|nz] [scale]
"""

import sys

from repro.analysis import detect_rollout
from repro.experiments import ExperimentContext, figure3
from repro.reporting import bar_chart, sparkline


def main() -> None:
    vantage = sys.argv[1] if len(sys.argv) > 1 else "nl"
    scale = float(sys.argv[2]) if len(sys.argv) > 2 else 0.15
    if vantage not in ("nl", "nz"):
        raise SystemExit("vantage must be nl or nz")

    ctx = ExperimentContext(scale=scale)
    print(f"simulating monthly Google traffic at .{vantage} ...")
    series = figure3.monthly_series(ctx, vantage)

    labels = [point.label for point in series]
    ns_shares = [point.ns_share for point in series]
    print()
    print(bar_chart(labels, ns_shares, title="Google NS-query share per month:"))
    print()
    print("trend:", sparkline(ns_shares))

    rollout = detect_rollout(series)
    if rollout is None:
        print("no rollout detected (increase scale?)")
        return
    print(f"detected Q-min rollout: {rollout[0]}-{rollout[1]:02d} "
          "(paper ground truth: 2019-12)")

    __, analytics = ctx.monthly_analytics(vantage, 2020, 1)
    minimised = analytics.minimized_fraction("Google", 1)
    print(f"post-rollout NS queries with minimised qnames: {minimised:.1%}")

    if vantage == "nz":
        feb = next(p for p in series if (p.year, p.month) == (2020, 2))
        jan = next(p for p in series if (p.year, p.month) == (2020, 1))
        print()
        print("Feb-2020 cyclic-dependency event at .nz:")
        print(f"  A-share Jan: {jan.a_share:.2f}  Feb: {feb.a_share:.2f} "
              "(the misconfiguration pushes A/AAAA back up)")


if __name__ == "__main__":
    main()
