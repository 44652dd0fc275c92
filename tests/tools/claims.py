"""``PYTHONPATH=src python tests/tools/claims.py SCALE [SEED ...]``: run the
whole experiment matrix serially at ``SCALE`` once per seed (default: the
context's own), check :data:`repro.paper.CLAIMS` against its reports,
print each claim that failed and Figure 1a's ``.nl`` "all 5 CPs" rows, and
exit 1 if any claim gated at or below ``SCALE`` failed for any seed.

Tier-1 gates the claims that hold at its report scale; this gates the
rest (CI runs it at 0.2; ``1.0`` checks every claim).  With several seeds
it shows how far a reading moves with the seed alone.
"""

import sys

from repro.experiments import ExperimentContext
from repro.experiments.claims import claims_report, evaluate
from repro.experiments.render_all import collect_all

#: The ``.nl`` cloud share per year: the headline the seed moves most.
FIGURE1A_ROWS = [f"{year} all 5 CPs" for year in (2018, 2019, 2020)]


def check(ctx: ExperimentContext) -> bool:
    """Print one seed's failed claims and Figure 1a rows; whether every
    gated claim held."""
    reports = collect_all(ctx)
    verdicts = evaluate(reports, ctx.scale)
    for verdict in verdicts:
        if not verdict.held:
            gate = "FAILED" if verdict.gated else "failed, not gated"
            print(f"{gate}: {verdict.claim.name} ({verdict.claim.source})")
    figure1a = next(report for report in reports if report.experiment_id == "figure1a")
    print("figure1a .nl: " + "; ".join(
        f"{label} {figure1a.measured(label)}" for label in FIGURE1A_ROWS
    ))
    gated = [verdict for verdict in verdicts if verdict.gated]
    print(
        f"scale {ctx.scale} seed {ctx.seed}: {claims_report(verdicts).title}; "
        f"{sum(v.held for v in gated)} of {len(gated)} gated claims held"
    )
    return all(verdict.held for verdict in gated)


if __name__ == "__main__":
    scale = float(sys.argv[1])
    contexts = (
        (ExperimentContext(scale=scale, seed=int(seed)) for seed in sys.argv[2:])
        if sys.argv[2:] else [ExperimentContext(scale=scale)]
    )
    held = [check(ctx) for ctx in contexts]
    sys.exit(0 if all(held) else 1)
