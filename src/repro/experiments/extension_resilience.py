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
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from typing import Dict, List

from ..clouds import PROVIDERS
from ..faults import FaultPlan, chaos_scenario
from ..telemetry import MetricsRegistry
from ..workload import dataset
from .context import ExperimentContext
from .extension_outage import google_sample, resolve_sample
from .report import Report

#: Uniform loss rates of the amplification sweep.
LOSS_RATES = (0.0, 0.02, 0.10, 0.25)

#: Fleet members sampled per provider in the failover-shift measurement.
MEMBERS_PER_PROVIDER = 8


@dataclass
class LossOutcome:
    """One point of the loss-rate sweep."""

    loss_rate: float
    client_queries: int
    servfail_ratio: float
    auth_queries_per_client: float
    retransmits: int
    failovers: int


def _loss_point(
    loss: float, client_queries: int, seed: int, metrics: MetricsRegistry
) -> LossOutcome:
    """Resolve a Google-fleet sample against nl-w2020 under uniform loss."""
    base = dataset("nl-w2020")
    descriptor = base
    if loss:
        plan = FaultPlan(name=f"loss-{loss}", packet_loss=loss)
        descriptor = replace(base, fault_plan=plan)
    with resolve_sample(
        descriptor, seed, metrics, google_sample, client_queries
    ) as sample:
        auth = sum(m.resolver.stats.auth_queries for m in sample.members)
        retransmits = sum(m.resolver.stats.retransmits for m in sample.members)
        failovers = sum(m.resolver.stats.failovers for m in sample.members)
    return LossOutcome(
        loss_rate=loss,
        client_queries=sample.client_queries,
        servfail_ratio=sample.servfail_ratio,
        auth_queries_per_client=auth / max(sample.client_queries, 1),
        retransmits=retransmits,
        failovers=failovers,
    )


def _capture_shares(env) -> Dict[str, float]:
    """Fraction of captured queries per vantage server id."""
    counts = Counter(env.capture.view().server_id.tolist())
    return {server_id: count / len(env.capture) for server_id, count in counts.items()}


def _five_provider_sample(fleet):
    """The first :data:`MEMBERS_PER_PROVIDER` members of each provider."""
    sample = []
    for provider in PROVIDERS:
        sample.extend([m for m in fleet if m.provider == provider][:MEMBERS_PER_PROVIDER])
    return sample


def _flaky_run(client_queries: int, seed: int, chaos: bool, metrics: MetricsRegistry):
    """Resolve a five-provider sample against nl-w2020, optionally with the
    ``flaky-server`` scenario active; returns (capture share per server,
    the sample's failovers per provider)."""
    base = dataset("nl-w2020")
    descriptor = (
        replace(base, fault_plan=chaos_scenario("flaky-server")) if chaos else base
    )
    with resolve_sample(
        descriptor, seed, metrics, _five_provider_sample, client_queries
    ) as sample:
        failovers = {
            provider: sum(
                m.resolver.stats.failovers
                for m in sample.members if m.provider == provider
            )
            for provider in PROVIDERS
        }
    return _capture_shares(sample.env), failovers


def run(ctx: ExperimentContext, client_queries: int = 4000) -> Report:
    report = Report(
        "ext-resilience", "Resolver resilience under packet loss (extension)"
    )
    volume = max(400, int(client_queries * ctx.scale))

    # -- query amplification vs loss rate ----------------------------------
    outcomes: List[LossOutcome] = []
    for loss in LOSS_RATES:
        outcomes.append(_loss_point(loss, volume, ctx.seed, ctx.telemetry))
    baseline = outcomes[0].auth_queries_per_client
    for outcome in outcomes:
        label = f"loss {outcome.loss_rate:.0%}"
        report.add(
            f"{label}: auth queries/client",
            "baseline" if outcome.loss_rate == 0 else "amplified by retries",
            round(outcome.auth_queries_per_client, 2),
            note=f"x{outcome.auth_queries_per_client / baseline:.2f} of loss-free",
        )
        report.add(
            f"{label}: SERVFAIL ratio",
            "~0 (retries absorb loss)",
            round(outcome.servfail_ratio, 3),
        )

    # -- failover share shift (flaky-server scenario) ----------------------
    healthy_shares, _ = _flaky_run(volume, ctx.seed, False, ctx.telemetry)
    flaky_shares, failovers_by_provider = _flaky_run(
        volume, ctx.seed, True, ctx.telemetry
    )
    for server_id in sorted(set(healthy_shares) | set(flaky_shares)):
        before = healthy_shares.get(server_id, 0.0)
        after = flaky_shares.get(server_id, 0.0)
        expectation = (
            "share drops (flaky)" if server_id.endswith("-a") else "absorbs failovers"
        )
        report.add(
            f"flaky-server: {server_id} capture share",
            expectation,
            round(after, 3),
            note=f"healthy {before:.3f} -> flaky {after:.3f}",
        )
    for provider, count in failovers_by_provider.items():
        report.add(
            f"flaky-server: {provider} failovers", ">0 under faults", count
        )

    report.series = {
        "loss": [o.loss_rate for o in outcomes],
        "amplification": [o.auth_queries_per_client for o in outcomes],
        "servfail": [o.servfail_ratio for o in outcomes],
        "retransmits": [o.retransmits for o in outcomes],
        "failovers": [o.failovers for o in outcomes],
    }
    report.notes.append(
        "retransmit+failover resilience keeps client-visible failures near "
        "zero while amplifying authoritative load — the concentration-"
        "under-stress risk of section 1, measured"
    )
    return report
