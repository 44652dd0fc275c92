"""Ablation: Q-min detection — NS-share changepoint vs minimised-name check.

DESIGN.md calls out the detector choice: the cheap signal (NS share
jumping) against the precise one (qnames stripped to one label more than
the zone).  Both must agree on the rollout month, and the minimised-name
check must separate pre/post months cleanly.
"""

from conftest import emit

from repro.analysis import cusum_detector, detect_rollout
from repro.experiments import figure3
from repro.experiments.report import Report


def _minimized_series(ctx, vantage):
    out = []
    for year, month in ((2019, 10), (2019, 11), (2019, 12), (2020, 1)):
        __, analytics = ctx.monthly_analytics(vantage, year, month)
        out.append(((year, month), analytics.minimized_fraction("Google", 1)))
    return out


def test_bench_ablation_qmin_detectors(ctx, benchmark):
    def run_ablation():
        series = figure3.monthly_series(ctx, "nl")
        changepoint = detect_rollout(series)
        cusum_index = cusum_detector([p.ns_share for p in series])
        cusum_month = (
            (series[cusum_index].year, series[cusum_index].month)
            if cusum_index is not None
            else None
        )
        minimized = _minimized_series(ctx, "nl")
        return changepoint, cusum_month, minimized

    changepoint, cusum_month, minimized = benchmark.pedantic(
        run_ablation, rounds=1, iterations=1
    )

    report = Report("ablation-qmin", "Q-min detectors: jump vs CUSUM vs minimised names")
    report.add("jump-detector month", "2019-12", f"{changepoint[0]}-{changepoint[1]:02d}")
    report.add(
        "CUSUM month",
        "2019-12",
        f"{cusum_month[0]}-{cusum_month[1]:02d}" if cusum_month else None,
    )
    for (year, month), fraction in minimized:
        report.add(f"minimised fraction {year}-{month:02d}", None, round(fraction, 3))
    emit(report.to_text())

    # All detectors agree on Dec 2019.
    assert changepoint == (2019, 12)
    assert cusum_month == (2019, 12)
    values = dict(minimized)
    # Before rollout the NS traffic is not minimisation-shaped wall-to-wall;
    # after rollout it is.
    assert values[(2020, 1)] > 0.9
    # NS queries pre-rollout are rare; the share-based detector is the one
    # robust to that sparsity (this is why the paper uses the share first).
    pre = [fraction for (ym, fraction) in minimized if ym < (2019, 12)]
    post = [fraction for (ym, fraction) in minimized if ym >= (2019, 12)]
    assert min(post) >= max(0.5, max(pre, default=0.0) - 0.5)
