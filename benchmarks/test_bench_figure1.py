"""Benchmark F1: regenerate Figure 1 (cloud query share per vantage/year).

The paper's headline: the five CPs send >30% of ccTLD queries from just 20
ASes, but only ~8.7% of B-Root's traffic.
"""

from conftest import emit

from repro.clouds import PROVIDERS
from repro.experiments import figure1
from repro.reporting import bar_chart


def test_bench_figure1_nl(ctx, benchmark):
    report = benchmark.pedantic(
        figure1.run_vantage, args=(ctx, "nl"), rounds=1, iterations=1
    )
    emit(report.to_text())
    emit(bar_chart(PROVIDERS, [report.series[p][-1] for p in PROVIDERS],
                   title="Figure 1a, 2020 shares"))
    # >~30% of .nl queries from the 5 CPs, every year.
    for year in (2018, 2019, 2020):
        assert report.measured(f"{year} all 5 CPs") > 0.25
    # Google is the single largest CP at .nl.
    shares_2020 = {p: report.series[p][-1] for p in PROVIDERS}
    assert max(shares_2020, key=shares_2020.get) == "Google"


def test_bench_figure1_nz(ctx, benchmark):
    report = benchmark.pedantic(
        figure1.run_vantage, args=(ctx, "nz"), rounds=1, iterations=1
    )
    emit(report.to_text())
    for year in (2018, 2019, 2020):
        total = report.measured(f"{year} all 5 CPs")
        assert 0.18 < total < 0.42
    # Google sends proportionally more to .nl than to .nz (section 4.1).
    nl_google = figure1.run_vantage(ctx, "nl").series["Google"][-1]
    nz_google = report.series["Google"][-1]
    assert nl_google > nz_google


def test_bench_figure1_root(ctx, benchmark):
    report = benchmark.pedantic(
        figure1.run_vantage, args=(ctx, "root"), rounds=1, iterations=1
    )
    emit(report.to_text())
    # B-Root: far smaller CP share (~8.7% in 2020) than the ccTLDs...
    root_2020 = report.measured("2020 all 5 CPs")
    assert root_2020 < 0.18
    assert root_2020 < ctx.analytics("nl-w2020").cloud_share() / 2
    # ...but growing over the years (slower penetration, section 4.1).
    assert report.measured("2020 all 5 CPs") > report.measured("2018 all 5 CPs")
