#!/usr/bin/env python3
"""Per-provider transport audit: IPv6, TCP, EDNS0 and truncation.

Reproduces the paper's section 4.3/4.4 analyses on one dataset: Table 5's
family/transport splits, Table 6's resolver inventories, Figure 6's EDNS0
buffer-size CDFs, and the truncation ratios that explain who needs TCP.

Usage::

    python examples/transport_audit.py [dataset-id] [scale]

e.g. ``python examples/transport_audit.py nz-w2020 0.3``
"""

import sys

from repro.analysis import DatasetAnalytics
from repro.reporting import cdf_plot
from repro.sim import run_dataset
from repro.workload import dataset


def main() -> None:
    dataset_id = sys.argv[1] if len(sys.argv) > 1 else "nl-w2020"
    scale = float(sys.argv[2]) if len(sys.argv) > 2 else 0.2
    descriptor = dataset(dataset_id)

    print(f"simulating {dataset_id} at scale {scale} ...")
    run = run_dataset(
        descriptor, client_queries=int(descriptor.client_queries * scale)
    )
    analytics = DatasetAnalytics.of(run)

    print()
    print(f"{'provider':<11} {'IPv4':>6} {'IPv6':>6} {'UDP':>6} {'TCP':>6}"
          f" {'resolvers':>10} {'v6 addrs':>9}")
    for row in analytics.transport_matrix():
        inventory = analytics.resolver_inventory(row.provider)
        print(
            f"{row.provider:<11} {row.ipv4:>6.2f} {row.ipv6:>6.2f} "
            f"{row.udp:>6.2f} {row.tcp:>6.2f} {inventory.total:>10} "
            f"{inventory.ipv6:>9}"
        )

    print()
    print("truncated UDP answers per provider:")
    for provider, ratio in analytics.truncation_table().items():
        print(f"  {provider:<11} {ratio:.2%}")

    print()
    for provider in ("Facebook", "Google"):
        print(cdf_plot(
            analytics.bufsize_cdf(provider).as_points(),
            title=f"{provider} EDNS0 UDP size CDF:",
        ))
        print()


if __name__ == "__main__":
    main()
