"""Benchmark T6: regenerate Table 6 (Amazon/Microsoft resolver inventories).

Shape: tiny IPv6 address fractions (paper: 1.8-4.6%) that correlate with
the tiny IPv6 traffic shares of Table 5.
"""

from conftest import emit

from repro.experiments import table6


def test_bench_table6(ctx, benchmark):
    report = benchmark.pedantic(table6.run, args=(ctx,), rounds=1, iterations=1)
    emit(report.to_text())

    for provider in ("Amazon", "Microsoft"):
        for vantage in ("nl", "nz"):
            total = report.measured(f"{provider} .{vantage} total")
            v6_fraction = report.measured(f"{provider} .{vantage} IPv6 fraction")
            assert total > 50, (provider, vantage, total)
            # IPv6 is a small minority of each fleet's addresses.
            assert v6_fraction < 0.12, (provider, vantage, v6_fraction)

    # Correlation with traffic (section 4.3): Amazon's v6 address share is
    # of the same order as its v6 traffic share.
    rows = {r.provider: r for r in ctx.analytics("nl-w2020").transport_matrix()}
    amazon_addr_v6 = report.measured("Amazon .nl IPv6 fraction")
    amazon_traffic_v6 = rows["Amazon"].ipv6
    assert abs(amazon_addr_v6 - amazon_traffic_v6) < 0.06
