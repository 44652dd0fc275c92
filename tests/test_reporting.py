"""Unit tests for report rendering and ASCII charts."""

import pytest

from repro.experiments.report import Report, ReportRow
from repro.reporting import bar_chart, cdf_plot, grouped_bar_chart, sparkline
from repro.reporting.charts import BAR_WIDTH, CDF_WIDTH, GROUPED_BAR_WIDTH


class TestReport:
    def test_add_and_lookup(self):
        report = Report("t1", "Test")
        report.add("alpha", 1.0, 0.9, unit="share")
        assert report.measured("alpha") == 0.9
        assert report.row("alpha").paper == 1.0
        with pytest.raises(KeyError):
            report.row("beta")

    def test_to_text_contains_rows(self):
        report = Report("t1", "Test")
        report.add("metric-a", 0.5, 0.51)
        report.add("metric-b", "high", "low", note="watch this")
        report.notes.append("scaled 1:100")
        text = report.to_text()
        assert "t1: Test" in text
        assert "metric-a" in text
        assert "0.51" in text
        assert "watch this" in text
        assert "note: scaled 1:100" in text

    def test_none_rendered_as_dash(self):
        row = ReportRow("x", None, None)
        assert row.format_value(None) == "-"

    def test_float_formatting(self):
        row = ReportRow("x", 0.123456, None)
        assert row.format_value(0.123456) == "0.1235"


class TestCharts:
    def test_bar_chart_basic(self):
        text = bar_chart(["a", "bb"], [1.0, 0.5], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert lines[1].startswith("a ")
        assert lines[1].count("#") == BAR_WIDTH
        assert lines[2].count("#") == BAR_WIDTH // 2

    def test_bar_chart_empty(self):
        assert "(no data)" in bar_chart([], [], title="T")

    def test_bar_chart_mismatched_rejected(self):
        with pytest.raises(ValueError):
            bar_chart(["a"], [1.0, 2.0])

    def test_grouped_bar_chart(self):
        text = grouped_bar_chart(["g1", "g2"], {"x": [1.0, 0.2], "y": [0.5, 0.8]})
        assert "g1:" in text and "g2:" in text
        assert text.count("|") == 4
        assert text.splitlines()[1].count("#") == GROUPED_BAR_WIDTH

    def test_cdf_plot(self):
        text = cdf_plot([(512, 0.3), (4096, 1.0)])
        lines = text.splitlines()
        assert "512" in lines[0]
        assert lines[1].count("#") == CDF_WIDTH

    def test_cdf_plot_empty(self):
        assert "(no data)" in cdf_plot([])

    def test_sparkline_shape(self):
        line = sparkline([0.0, 0.0, 1.0])
        assert len(line) == 3
        assert line[0] == line[1]
        assert line[2] == "█"

    def test_sparkline_constant(self):
        assert len(sparkline([1.0, 1.0])) == 2

    def test_sparkline_empty(self):
        assert sparkline([]) == ""
