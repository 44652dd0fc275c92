"""The paper's claims (:data:`repro.paper.CLAIMS`) as a tier-1 gate.

Every claim gated at ``REPORT_SCALE`` must hold on the serial matrix, and a
Q-min rollout moved by one month must fail the claim that dates it.  The
claims gated at larger scales are CI's (``tests/tools/claims.py 0.2``).
"""

from repro.experiments import ExperimentContext, figure3
from repro.experiments.claims import claims_report, evaluate
from repro.paper import CLAIMS, SCALE_LADDER

from .helpers import REPORT_SCALE


def gate_failures(reports):
    return [
        verdict.claim.name
        for verdict in evaluate(reports, REPORT_SCALE)
        if verdict.gated and not verdict.held
    ]


def test_claims_gated_at_report_scale_hold(serial_matrix):
    reports, __ = serial_matrix
    assert gate_failures(reports) == []


def test_claims_are_named_once_and_gated_on_the_ladder():
    assert len({claim.name for claim in CLAIMS}) == len(CLAIMS)
    assert {claim.scale for claim in CLAIMS} <= {*SCALE_LADDER, None}
    assert any(claim.scale == REPORT_SCALE for claim in CLAIMS)


def test_claims_report_counts_what_held(serial_matrix):
    reports, __ = serial_matrix
    verdicts = evaluate(reports, REPORT_SCALE)
    report = claims_report(verdicts)
    held = sum(verdict.held for verdict in verdicts)
    assert report.title.endswith(f"held {held} of {len(CLAIMS)}")
    assert [row.label for row in report.rows] == [claim.name for claim in CLAIMS]
    assert {row.measured for row in report.rows} <= {"held", "FAILED"}


def test_a_moved_rollout_fails_the_gate(serial_matrix, monkeypatch):
    reports, __ = serial_matrix
    monkeypatch.setattr("repro.workload.datasets.FIGURE3_ROLLOUT", (2020, 1))
    moved = figure3.run_vantage(ExperimentContext(scale=REPORT_SCALE), "nl")
    assert moved.measured("detected Q-min rollout") == "2020-01"
    mutated = [moved if r.experiment_id == "figure3a" else r for r in reports]
    assert "the Q-min rollout is detected at .nl in 2019-12" in gate_failures(mutated)
