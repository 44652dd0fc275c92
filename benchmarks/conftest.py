"""Shared fixtures for the per-figure shape checks.

Simulation (the expensive part, = the paper's capture collection) happens
once per session in a shared :class:`ExperimentContext`; each check then
regenerates its table/figure, asserts the paper's qualitative shape, and
prints the paper-vs-measured report.  Nothing here measures speed or
writes a file: the benchmark of record is ``bench/``.

Volume can be scaled down for quick runs: ``REPRO_SCALE=0.2 pytest
benchmarks/``.
"""

import pytest

from repro.experiments import ExperimentContext


@pytest.fixture(scope="session")
def ctx():
    return ExperimentContext()


def emit(report_text: str) -> None:
    """Print a report so it lands in pytest's captured output."""
    print()
    print(report_text)
