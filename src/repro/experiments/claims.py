"""The paper's claims, checked against a run's reports.

:data:`repro.paper.CLAIMS` states each finding once; :func:`evaluate` is
the one place they are checked — by ``repro experiments`` (the ``claims``
report it appends), by the tier-1 suite and by CI's claims step.
"""

from __future__ import annotations

from typing import List, NamedTuple, Sequence

from ..paper import CLAIMS, Claim
from .report import Number, Report


class Readings:
    """The lookup a claim's predicate reads: every report of a run, by
    experiment id."""

    def __init__(self, reports: Sequence[Report]):
        self._reports = {report.experiment_id: report for report in reports}

    def measured(self, experiment_id: str, label: str) -> Number:
        return self._reports[experiment_id].measured(label)

    def series(self, experiment_id: str, key: str) -> list:
        return self._reports[experiment_id].series[key]


class Verdict(NamedTuple):
    claim: Claim
    held: bool
    #: Whether the run's scale is one the claim is gated at.
    gated: bool


def evaluate(reports: Sequence[Report], scale: float) -> List[Verdict]:
    """Every claim's verdict on ``reports``, a run at ``scale``."""
    readings = Readings(reports)
    return [
        Verdict(
            claim,
            bool(claim.holds(readings)),
            claim.scale is not None and claim.scale <= scale,
        )
        for claim in CLAIMS
    ]


def claims_report(verdicts: Sequence[Verdict]) -> Report:
    """The ``claims`` report: one row per claim — the scale it is gated
    from (in the paper column), its verdict and its source."""
    held = sum(verdict.held for verdict in verdicts)
    report = Report("claims", f"The paper's claims: held {held} of {len(verdicts)}")
    for claim, holds, __ in verdicts:
        report.add(
            claim.name,
            "not kept" if claim.scale is None else f"from {claim.scale}",
            "held" if holds else "FAILED",
            note=claim.source,
        )
    report.notes.append(
        "paper column: the scale a claim is gated from (it held for five "
        "seeds there and at every larger scale); not kept: it failed for "
        "some seed even at full scale"
    )
    return report
