#!/usr/bin/env python3
"""Quickstart: simulate one week of `.nl` traffic and measure centralization.

Runs a scaled-down version of the paper's w2020 `.nl` dataset end to end —
cloud-provider and background resolver fleets resolving client queries
against simulated authoritative servers — then attributes every captured
query to its origin AS and prints the per-provider traffic shares
(the paper's Figure 1a for 2020).

Usage::

    python examples/quickstart.py [scale]

``scale`` (default 0.2) multiplies the client-query volume; 1.0 is the
volume the benchmarks use.
"""

import sys

from repro.analysis import DatasetAnalytics
from repro.reporting import bar_chart
from repro.sim import run_dataset
from repro.workload import dataset


def main() -> None:
    scale = float(sys.argv[1]) if len(sys.argv) > 1 else 0.2
    descriptor = dataset("nl-w2020")
    volume = int(descriptor.client_queries * scale)

    print(f"simulating {descriptor.dataset_id}: {volume} client queries ...")
    run = run_dataset(descriptor, client_queries=volume)
    print(f"captured {len(run.capture)} queries at servers {run.vantage_server_ids}")

    analytics = DatasetAnalytics.of(run)
    summary = analytics.dataset_summary()
    print(
        f"valid: {summary.valid_fraction:.1%}  "
        f"resolvers: {summary.resolvers}  ASes: {summary.ases}"
    )
    print()

    shares = analytics.provider_shares()
    print(bar_chart(
        list(shares), list(shares.values()),
        title="Share of .nl queries per cloud provider (w2020):",
    ))
    total = analytics.cloud_share()
    print()
    print(
        f"the five cloud providers send {total:.1%} of all queries "
        f"(paper: >30% from just 20 of {summary.ases}+ ASes)"
    )


if __name__ == "__main__":
    main()
