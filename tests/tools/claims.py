"""``PYTHONPATH=src python tests/tools/claims.py SCALE``: run the whole
experiment matrix serially at ``SCALE``, check :data:`repro.paper.CLAIMS`
against its reports, print each claim that failed, and exit 1 if any
claim gated at or below ``SCALE`` failed.

Tier-1 gates the claims that hold at its report scale; this gates the
rest (CI runs it at 0.2; ``1.0`` checks every claim).
"""

import sys

from repro.experiments import ExperimentContext
from repro.experiments.claims import claims_report, evaluate
from repro.experiments.render_all import collect_all

if __name__ == "__main__":
    scale = float(sys.argv[1])
    verdicts = evaluate(collect_all(ExperimentContext(scale=scale)), scale)
    for verdict in verdicts:
        if not verdict.held:
            gate = "FAILED" if verdict.gated else "failed, not gated"
            print(f"{gate}: {verdict.claim.name} ({verdict.claim.source})")
    gated = [verdict for verdict in verdicts if verdict.gated]
    print(
        f"scale {scale}: {claims_report(verdicts).title}; "
        f"{sum(v.held for v in gated)} of {len(gated)} gated claims held"
    )
    sys.exit(1 if any(not v.held for v in gated) else 0)
