"""Report rendering: text tables and ASCII charts."""

from .charts import bar_chart, cdf_plot, sparkline

__all__ = ["bar_chart", "cdf_plot", "sparkline"]
