"""Extension experiment: resolver resilience under network faults.

Companion to :mod:`extension_outage`: instead of taking servers *down*,
this experiment degrades the path to them — uniform packet loss and a
per-server RRL-pressure storm — and measures the two resilience effects
the chaos layer (:mod:`repro.faults`) models:

* **query amplification** — every dropped packet costs a retransmit (or a
  failover to a sibling server), so authoritative load per client query
  rises with the loss rate while the client-visible SERVFAIL ratio stays
  near zero until the retry budget saturates;
* **failover share shift** — when one server of the NS set turns flaky,
  resolvers re-select away from it, concentrating capture share on its
  healthy siblings (the traffic-concentration-under-stress effect the
  paper's Dyn/AWS motivation describes, now visible *per provider*).

Every scenario is an ``nl-w2020`` dataset run and read as in
:mod:`extension_outage`: the loss sweep drives the Google fleet, the
failover shift all five providers'.
"""

from __future__ import annotations

from typing import Dict

from ..clouds import PROVIDERS
from ..faults import FaultPlan, chaos_scenario
from ..telemetry import TelemetrySnapshot
from ..workload import dataset
from .context import ExperimentContext
from .extension_outage import BASE, per_client_query, run_scenario, scenario
from .report import Report

#: Uniform loss rates of the amplification sweep.
LOSS_RATES = (0.0, 0.02, 0.10, 0.25)


def capture_shares(telemetry: TelemetrySnapshot) -> Dict[str, float]:
    """Each captured ``nl-w2020`` server's share of the captured queries:
    every query a server answers appends one captured row."""
    queries = {
        spec.server_id: telemetry.counter("server.queries", server=spec.server_id)
        for spec in dataset(BASE).servers if spec.captured
    }
    captured = max(sum(queries.values()), 1)
    return {server_id: count / captured for server_id, count in queries.items()}


def run(ctx: ExperimentContext) -> Report:
    report = Report("ext-resilience", "Resolver resilience under packet loss (extension)")

    # -- query amplification vs loss rate ----------------------------------
    runs = [
        run_scenario(ctx, scenario(
            f"loss-{loss}", FaultPlan(name=f"loss-{loss}", packet_loss=loss), ("Google",)
        ))
        for loss in LOSS_RATES
    ]
    amplification = [per_client_query(t, "resolver.auth_queries") for t in runs]
    servfail = [per_client_query(t, "resolver.servfails") for t in runs]
    for loss, auth, failed in zip(LOSS_RATES, amplification, servfail):
        label = f"loss {loss:.0%}"
        report.add(f"{label}: auth queries/client",
                   "baseline" if loss == 0 else "amplified by retries", round(auth, 2),
                   note=f"x{auth / amplification[0]:.2f} of loss-free")
        report.add(f"{label}: SERVFAIL ratio", "~0 (retries absorb loss)", round(failed, 3))

    # -- failover share shift (flaky-server scenario) ----------------------
    before = capture_shares(run_scenario(ctx, scenario("five-cps", None, PROVIDERS)))
    flaky = run_scenario(ctx, scenario(
        "flaky-server", chaos_scenario("flaky-server"), PROVIDERS
    ))
    for server_id, share in capture_shares(flaky).items():
        expectation = "share drops (flaky)" if server_id.endswith("-a") else "absorbs failovers"
        report.add(f"flaky-server: {server_id} capture share", expectation, round(share, 3),
                   note=f"healthy {before[server_id]:.3f} -> flaky {share:.3f}")
    for provider in PROVIDERS:
        report.add(f"flaky-server: {provider} failovers", ">0 under faults",
                   flaky.counter("resolver.retry.failovers", provider=provider))

    report.series = {
        "loss": list(LOSS_RATES),
        "amplification": amplification,
        "servfail": servfail,
        "retransmits": [t.total("resolver.retry.retransmits") for t in runs],
        "failovers": [t.total("resolver.retry.failovers") for t in runs],
    }
    report.notes.append(
        "retransmit+failover resilience keeps client-visible failures near "
        "zero while amplifying authoritative load — the concentration-"
        "under-stress risk of section 1, measured"
    )
    return report
