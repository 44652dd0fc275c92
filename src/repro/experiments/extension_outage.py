"""Extension experiment: authoritative outage resilience.

The paper's introduction motivates centralization risk with the Dyn (2016)
and AWS (2019) DDoS events: concentrated authoritative infrastructure is a
single point of failure.  This experiment injects that failure mode into
the simulated `.nl` deployment — taking authoritative servers offline one
by one — and measures what the paper's framing predicts:

* with the NS set intact, resolvers fail over and the client-visible
  failure rate stays ~0;
* as more of the NS set goes dark, surviving servers absorb the load
  (traffic concentration under stress);
* with the whole NS set down, resolution collapses (SERVFAIL storm + a
  burst of retry traffic at the remaining infrastructure).

Every scenario is a dataset (:func:`scenario`): ``nl-w2020`` under a
fault plan, driven by the Google fleet and run by
:func:`~repro.sim.run_dataset`; every row is read from its telemetry.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional, Tuple

from ..faults import FaultPlan, OutageWindow
from ..sim import run_dataset
from ..telemetry import TelemetrySnapshot
from ..workload import DatasetDescriptor, dataset
from .context import ExperimentContext
from .report import Report

#: The dataset every fault scenario varies.
BASE = "nl-w2020"

#: Client queries of one scenario run at scale 1.0 (never fewer than 400).
CLIENT_QUERIES = 4000


def scenario(
    name: str, fault_plan: Optional[FaultPlan], providers: Tuple[str, ...]
) -> DatasetDescriptor:
    """The dataset ``nl-w2020+<name>``: ``nl-w2020`` under ``fault_plan``,
    driven by the members of ``providers`` alone, weighted like every run."""
    return replace(dataset(BASE), dataset_id=f"{BASE}+{name}",
                   fault_plan=fault_plan, providers_only=providers)


def run_scenario(ctx: ExperimentContext, descriptor: DatasetDescriptor) -> TelemetrySnapshot:
    """What one scenario counted, simulated at the context's scale and
    seed.  It is never spooled and nothing else of the run is kept."""
    volume = max(400, int(CLIENT_QUERIES * ctx.scale))
    run = run_dataset(descriptor, ctx.seed, client_queries=volume, telemetry=ctx.telemetry)
    return run.telemetry


def per_client_query(telemetry: TelemetrySnapshot, counter: str) -> float:
    """A fleet counter per client query the fleet resolved."""
    return telemetry.total(counter) / max(telemetry.total("resolver.client_queries"), 1)


def run(ctx: ExperimentContext) -> Report:
    report = Report("ext-outage", "Authoritative outage resilience at .nl (extension)")
    servers = dataset(BASE).servers
    total = len(servers)
    servfail, retry_load = [], []
    for offline in range(total + 1):
        # One full-window outage per dark server; none is no plan at all.
        outages = tuple(OutageWindow(s.server_id, 0.0, 1.0) for s in servers[:offline])
        plan = FaultPlan(name=f"outage-{offline}", outages=outages)
        telemetry = run_scenario(ctx, scenario(plan.name, plan, ("Google",)))
        servfail.append(per_client_query(telemetry, "resolver.servfails"))
        retry_load.append(per_client_query(telemetry, "resolver.auth_queries"))
        label = f"{offline}/{total} servers down"
        report.add(f"{label}: SERVFAIL ratio", "~0" if offline < total else "~1.0",
                   round(servfail[-1], 3))
        report.add(f"{label}: auth queries/client",
                   "rises with retries" if offline else "baseline", round(retry_load[-1], 2))
    report.series = {
        "offline": list(range(total + 1)), "servfail": servfail, "retry_load": retry_load,
    }
    report.notes.append(
        "NS-set redundancy absorbs partial outages (Dyn/AWS motivation, "
        "paper section 1); total outage collapses resolution"
    )
    return report
