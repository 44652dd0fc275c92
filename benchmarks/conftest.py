"""Shared fixtures for the per-figure shape checks.

Simulation (the expensive part, = the paper's capture collection) happens
once per session in a shared :class:`ExperimentContext`; each check then
regenerates its table/figure, asserts the paper's qualitative shape, and
prints the paper-vs-measured report.  Nothing here measures speed or
writes a file: the benchmark of record is ``bench/``.

Volume can be scaled down for quick runs: ``pytest benchmarks/ --scale 0.2``.
"""

import pytest

from repro.experiments import ExperimentContext


def pytest_addoption(parser):
    parser.addoption(
        "--scale", type=float, default=1.0,
        help="client-query volume scale of the shared context (default: 1.0)",
    )


@pytest.fixture(scope="session")
def ctx(request):
    return ExperimentContext(scale=request.config.getoption("--scale"))


def emit(report_text: str) -> None:
    """Print a report so it lands in pytest's captured output."""
    print()
    print(report_text)
