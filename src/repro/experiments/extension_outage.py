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
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List

from ..dnscore import RCode
from ..faults import FaultPlan, OutageWindow
from ..sim import borrowed_environment
from ..telemetry import MetricsRegistry
from ..workload import DiurnalPattern, WorkloadGenerator, dataset
from ..zones import domains_of
from .context import ExperimentContext
from .report import Report


@dataclass
class OutageOutcome:
    """Result of one outage scenario."""

    offline_servers: int
    client_queries: int
    servfail_ratio: float
    auth_queries_per_client: float
    captured_queries: int


def _run_scenario(
    offline: int, client_queries: int, seed: int, metrics: MetricsRegistry
) -> OutageOutcome:
    """Simulate nl-w2020 with ``offline`` of the NS set forced down.

    The outage is expressed as a :class:`FaultPlan` — one full-window
    :class:`OutageWindow` per dark server — and the world assembled through
    the shared :func:`borrowed_environment` path, so this experiment
    exercises exactly the fault layer every chaos scenario uses, on the
    fleet the process already holds for nl-w2020.
    """
    base = dataset("nl-w2020")
    plan = FaultPlan(
        name=f"outage-{offline}",
        outages=tuple(
            OutageWindow(spec.server_id, 0.0, 1.0)
            for spec in base.servers[:offline]
        ),
    )
    descriptor = replace(base, fault_plan=plan) if offline else base
    with borrowed_environment(descriptor, seed, metrics) as env:
        domains = domains_of(env.vantage_zone)
        generator = WorkloadGenerator("nl", domains, seed=seed)
        pattern = DiurnalPattern(descriptor.start, descriptor.duration)
        fleet = [m for m in env.fleet if m.provider == "Google"][:40]

        servfails = 0
        total = 0
        per_member = max(1, client_queries // len(fleet))
        for index, member in enumerate(fleet):
            for query in generator.generate(
                index, per_member, pattern, junk_fraction=0.05
            ):
                rcode = member.resolver.resolve(
                    env.network, query.timestamp, query.qname, query.qtype
                )
                total += 1
                if rcode is RCode.SERVFAIL:
                    servfails += 1
        # Read before the fleet goes back: returning it rewinds the stats.
        auth_queries = sum(m.resolver.stats.auth_queries for m in fleet)
    return OutageOutcome(
        offline_servers=offline,
        client_queries=total,
        servfail_ratio=servfails / total if total else 0.0,
        auth_queries_per_client=auth_queries / max(total, 1),
        captured_queries=len(env.capture),
    )


def run(ctx: ExperimentContext, client_queries: int = 4000) -> Report:
    report = Report(
        "ext-outage", "Authoritative outage resilience at .nl (extension)"
    )
    volume = max(400, int(client_queries * ctx.scale))
    outcomes: List[OutageOutcome] = []
    total_servers = len(dataset("nl-w2020").servers)
    for offline in range(total_servers + 1):
        outcomes.append(_run_scenario(offline, volume, ctx.seed, ctx.telemetry))
    for outcome in outcomes:
        label = f"{outcome.offline_servers}/{total_servers} servers down"
        expectation = "~0" if outcome.offline_servers < total_servers else "~1.0"
        report.add(
            f"{label}: SERVFAIL ratio", expectation, round(outcome.servfail_ratio, 3)
        )
        report.add(
            f"{label}: auth queries/client",
            "rises with retries" if outcome.offline_servers else "baseline",
            round(outcome.auth_queries_per_client, 2),
        )
    report.series = {
        "offline": [o.offline_servers for o in outcomes],
        "servfail": [o.servfail_ratio for o in outcomes],
        "retry_load": [o.auth_queries_per_client for o in outcomes],
    }
    report.notes.append(
        "NS-set redundancy absorbs partial outages (Dyn/AWS motivation, "
        "paper section 1); total outage collapses resolution"
    )
    return report
