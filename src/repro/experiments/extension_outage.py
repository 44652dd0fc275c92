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

from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Callable, Iterator, List, Sequence

from ..clouds import FleetResolver
from ..dnscore import RCode
from ..faults import FaultPlan, OutageWindow
from ..sim import borrowed_environment
from ..sim.driver import SimEnvironment
from ..telemetry import MetricsRegistry
from ..workload import DatasetDescriptor, DiurnalPattern, WorkloadGenerator, dataset
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


@dataclass
class ResolvedSample:
    """A fleet sample driven by hand through a borrowed world."""

    env: SimEnvironment
    members: List[FleetResolver]
    client_queries: int
    servfails: int

    @property
    def servfail_ratio(self) -> float:
        return self.servfails / self.client_queries if self.client_queries else 0.0


def google_sample(fleet: Sequence[FleetResolver]) -> List[FleetResolver]:
    """The first 40 Google members of a fleet."""
    return [m for m in fleet if m.provider == "Google"][:40]


@contextmanager
def resolve_sample(
    descriptor: DatasetDescriptor,
    seed: int,
    metrics: MetricsRegistry,
    sample: Callable[[Sequence[FleetResolver]], List[FleetResolver]],
    client_queries: int,
) -> Iterator[ResolvedSample]:
    """Borrow ``descriptor``'s world and resolve ``client_queries`` spread
    evenly over the members ``sample`` picks from its fleet, each with its
    own workload stream.

    The world is assembled through the shared :func:`borrowed_environment`
    path, on the fleet the process already holds for the dataset, so the
    extension experiments exercise exactly the fault layer every chaos
    scenario uses.  The fleet goes back when the block exits, and
    returning it rewinds the members' stats: read them inside the block.
    """
    with borrowed_environment(descriptor, seed, metrics) as env:
        generator = WorkloadGenerator(
            descriptor.vantage, domains_of(env.vantage_zone), seed=seed
        )
        pattern = DiurnalPattern(descriptor.start, descriptor.duration)
        members = sample(env.fleet)
        per_member = max(1, client_queries // len(members))
        total = servfails = 0
        for index, member in enumerate(members):
            for query in generator.generate(
                index, per_member, pattern, junk_fraction=0.05
            ):
                rcode = member.resolver.resolve(
                    env.network, query.timestamp, query.qname, query.qtype
                )
                total += 1
                if rcode is RCode.SERVFAIL:
                    servfails += 1
        yield ResolvedSample(env, members, total, servfails)


def _run_scenario(
    offline: int, client_queries: int, seed: int, metrics: MetricsRegistry
) -> OutageOutcome:
    """Simulate nl-w2020 with ``offline`` of the NS set forced down: one
    full-window :class:`OutageWindow` per dark server."""
    base = dataset("nl-w2020")
    plan = FaultPlan(
        name=f"outage-{offline}",
        outages=tuple(
            OutageWindow(spec.server_id, 0.0, 1.0)
            for spec in base.servers[:offline]
        ),
    )
    descriptor = replace(base, fault_plan=plan) if offline else base
    with resolve_sample(
        descriptor, seed, metrics, google_sample, client_queries
    ) as sample:
        auth_queries = sum(m.resolver.stats.auth_queries for m in sample.members)
    return OutageOutcome(
        offline_servers=offline,
        client_queries=sample.client_queries,
        servfail_ratio=sample.servfail_ratio,
        auth_queries_per_client=auth_queries / max(sample.client_queries, 1),
        captured_queries=len(sample.env.capture),
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
