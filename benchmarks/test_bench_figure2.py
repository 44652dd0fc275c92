"""Benchmark F2/F7: regenerate Figure 2 and Figure 7 (RR mix per provider).

Shapes from section 4.2: A dominates in 2018; NS jumps by 2020 for the
Q-min adopters (Google/Cloudflare/Facebook at both ccTLDs, Amazon at .nz);
validators fetch DS/DNSKEY, the one non-validator does not; Cloudflare's
DS share exceeds its DNSKEY share.
"""

from conftest import emit

from repro.experiments import figure2
from repro.reporting import grouped_bar_chart


def test_bench_figure2_2018_panels(ctx, benchmark):
    reports = benchmark.pedantic(
        lambda: [figure2.run_panel(ctx, v, 2018) for v in ("nl", "nz", "root")],
        rounds=1, iterations=1,
    )
    for report in reports:
        emit(report.to_text())
        at_root = report.experiment_id == "figure2c"
        for provider, mix in report.series.items():
            if not at_root:
                # 2018, pre-Q-min: A is each CP's top type at the ccTLDs.
                top = max((k for k in mix if k != "other"), key=lambda k: mix[k])
                assert top == "A", (report.experiment_id, provider, mix)
            else:
                # At the root the CP samples are small and per-resolver
                # DNSKEY refreshes are over-represented at simulation scale
                # (documented in EXPERIMENTS.md); A must still dominate the
                # lookup types.
                assert mix["A"] > mix["NS"], (provider, mix)
                assert mix["A"] > mix["DS"], (provider, mix)
                assert mix["A"] > mix["AAAA"], (provider, mix)


def test_bench_figure2_2020_ccTLDs(ctx, benchmark):
    reports = benchmark.pedantic(
        lambda: (figure2.run_panel(ctx, "nl", 2020), figure2.run_panel(ctx, "nz", 2020)),
        rounds=1, iterations=1,
    )
    nl, nz = reports
    emit(nl.to_text())
    emit(nz.to_text())
    emit("Figure 2d: NS share per provider (.nl 2020)\n" + grouped_bar_chart(
        list(nl.series), {"NS": [nl.series[p]["NS"] for p in nl.series]}
    ))

    for report, vantage in ((nl, "nl"), (nz, "nz")):
        series = report.series
        # Q-min adopters show a big NS share in 2020...
        for adopter in ("Google", "Cloudflare", "Facebook"):
            assert series[adopter]["NS"] > 0.15, (vantage, adopter, series[adopter])
        # ...while Microsoft (no Q-min) stays A-dominated with low NS.
        assert series["Microsoft"]["NS"] < 0.10
        assert series["Microsoft"]["A"] > series["Microsoft"]["NS"]
        # The non-validator sends ~no DNSSEC queries; validators do.
        assert series["Microsoft"]["DS"] < 0.01
        assert series["Microsoft"]["DNSKEY"] < 0.01
        assert series["Cloudflare"]["DS"] > 0.02
        # Cloudflare: more DS than DNSKEY (section 4.2.2 / Figure 2d).
        assert series["Cloudflare"]["DS"] > series["Cloudflare"]["DNSKEY"]
        # Google's DS share is diluted by its non-validating bulk.
        assert series["Google"]["DS"] < series["Cloudflare"]["DS"]

    # Amazon's Q-min reached .nz but not .nl by w2020.
    assert nz.series["Amazon"]["NS"] > nl.series["Amazon"]["NS"] + 0.10


def test_bench_figure7_2019(ctx, benchmark):
    report = benchmark.pedantic(
        figure2.run_panel, args=(ctx, "nl", 2019), rounds=1, iterations=1
    )
    emit(report.to_text())
    # 2019: still pre-rollout for Google — NS low, A on top.
    assert report.series["Google"]["NS"] < 0.15
    assert report.series["Google"]["A"] > report.series["Google"]["NS"]
