"""Experiment runners: one module per paper table/figure."""

from . import (
    extension_composition,
    extension_concentration,
    extension_outage,
    extension_resilience,
    extension_rssac,
    extension_sovereignty,
    figure1,
    figure2,
    figure3,
    figure4,
    figure5,
    figure6,
    table2,
    table3,
    table4,
    table5,
    table6,
)
from .context import ExperimentContext
from .report import Report, ReportRow

__all__ = [
    "ExperimentContext",
    "Report",
    "ReportRow",
    "extension_composition",
    "extension_concentration",
    "extension_outage",
    "extension_resilience",
    "extension_rssac",
    "extension_sovereignty",
    "figure1",
    "figure2",
    "figure3",
    "figure4",
    "figure5",
    "figure6",
    "table2",
    "table3",
    "table4",
    "table5",
    "table6",
]
