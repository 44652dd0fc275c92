"""Experiment runners' plumbing: structural checks on the serial matrix.

Each check reads one report of the ``serial_matrix`` session fixture (ids,
row labels, series, internal consistency), so a regression in experiment
plumbing fails fast.  What the reports say about the paper is
:data:`repro.paper.CLAIMS`, gated by ``tests/test_claims.py``.
"""

import pytest


@pytest.fixture(scope="module")
def reports(serial_matrix):
    return {report.experiment_id: report for report in serial_matrix[0]}


class TestStructure:
    def test_figure1_panels(self, reports):
        figure = reports["figure1b"]
        assert set(figure.series) == {
            "Google", "Amazon", "Microsoft", "Facebook", "Cloudflare",
        }
        assert all(len(v) == 3 for v in figure.series.values())
        for year in (2018, 2019, 2020):
            assert 0.0 <= figure.measured(f"{year} all 5 CPs") <= 1.0

    def test_figure2_panel(self, reports):
        for provider, mix in reports["figure2d"].series.items():
            assert sum(mix.values()) == pytest.approx(1.0) or sum(mix.values()) == 0.0

    def test_figure4(self, reports):
        for year in (2018, 2019, 2020):
            assert 0.0 <= reports["figure4a"].measured(f"{year} overall") <= 1.0

    def test_figure6(self, reports):
        figure = reports["figure6"]
        assert 0.0 <= figure.measured("Facebook CDF @512") <= 1.0
        assert figure.series["facebook_cdf"]
        # CDF values are monotone.
        values = [v for __, v in figure.series["facebook_cdf"]]
        assert values == sorted(values)
        assert values[-1] == pytest.approx(1.0)

    def test_table3(self, reports):
        table = reports["table3"]
        assert len(table.rows) == 9 * 4
        for dataset_id in ("nl-w2020", "root-2020"):
            assert table.measured(f"{dataset_id} queries") > 0

    def test_table4(self, reports):
        ratio = reports["table4"].measured(".nl ratio public (queries)")
        assert 0.0 <= ratio <= 1.0

    def test_table5(self, reports):
        table = reports["table5-nl-2020"]
        for provider in ("Google", "Microsoft"):
            v4 = table.measured(f"{provider} IPv4")
            v6 = table.measured(f"{provider} IPv6")
            assert v4 + v6 == pytest.approx(1.0)

    def test_table6(self, reports):
        table = reports["table6"]
        for provider in ("Amazon", "Microsoft"):
            row_total = table.measured(f"{provider} .nl total")
            row_v4 = table.measured(f"{provider} .nl IPv4")
            row_v6 = table.measured(f"{provider} .nl IPv6")
            assert row_total == row_v4 + row_v6

    def test_concentration(self, reports):
        table = reports["ext-concentration-nl"]
        for year in (2018, 2019, 2020):
            assert 0.0 < table.measured(f"{year} HHI") <= 1.0
            assert 0.0 <= table.measured(f"{year} Gini") <= 1.0

    def test_rssac(self, reports):
        table = reports["ext-rssac"]
        assert table.measured("2020 total queries") > 0
        assert 0.0 <= table.measured("2020 NXDOMAIN share") <= 1.0
