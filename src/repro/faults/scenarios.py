"""Named chaos scenarios: curated :class:`FaultPlan` presets.

These are the schedules behind the CLI's ``--chaos <scenario>`` flag and
the CI chaos-smoke job.  Server-id patterns are written to be meaningful
across vantages (``"*-a"`` matches ``nl-a`` and ``nz-a``; ``"*"`` matches
everything including ``b-root``).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Optional

from .plan import FamilyBlackout, FaultPlan, LatencySpike, OutageWindow, RRLStorm

CHAOS_SCENARIOS: Dict[str, FaultPlan] = {
    # Background packet loss at realistic (1%) and stress (10%) levels —
    # the retry-amplification axis of paper Figure 4.
    "default-loss": FaultPlan(name="default-loss", packet_loss=0.01),
    "heavy-loss": FaultPlan(name="heavy-loss", packet_loss=0.10),
    # One NS-set member goes dark for the middle third of the window (the
    # Dyn-style partial outage the paper's introduction motivates).
    "partial-outage": FaultPlan(
        name="partial-outage",
        outages=(OutageWindow("*-a", 0.33, 0.66),),
    ),
    # The whole NS set goes dark mid-window: resolution collapses unless
    # caches absorb the hit.
    "total-outage": FaultPlan(
        name="total-outage",
        outages=(OutageWindow("*", 0.40, 0.60),),
    ),
    # IPv6 unreachable for the middle half: dual-stack resolvers must fail
    # over to v4 (the family-failover axis of Table 5 / Figure 5).
    "v6-blackout": FaultPlan(
        name="v6-blackout",
        blackouts=(FamilyBlackout(6, 0.25, 0.75),),
    ),
    # Path degradation: tripled RTT plus 50ms across the middle of the
    # window — shifts timestamps, TCP RTTs and server selection.
    "latency-storm": FaultPlan(
        name="latency-storm",
        latency=(LatencySpike("*", 0.30, 0.70, multiplier=3.0, extra_ms=50.0),),
    ),
    # Aggressive RRL under attack pressure: 30% of UDP answers dropped —
    # the dropped-answer retry storm of paper section 4.2.
    "rrl-pressure": FaultPlan(
        name="rrl-pressure",
        storms=(RRLStorm(0.30, "*", 0.20, 0.80),),
    ),
    # A single flaky server: heavy loss + latency spikes on "*-a" only,
    # pushing its traffic share onto the surviving NS-set members.
    "flaky-server": FaultPlan(
        name="flaky-server",
        storms=(RRLStorm(0.50, "*-a", 0.0, 1.0),),
        latency=(LatencySpike("*-a", 0.0, 1.0, multiplier=2.0),),
    ),
}


def chaos_scenario(name: str, seed: Optional[int] = None) -> FaultPlan:
    """Look up a named scenario, optionally pinning its decision seed."""
    try:
        plan = CHAOS_SCENARIOS[name]
    except KeyError:
        known = ", ".join(sorted(CHAOS_SCENARIOS))
        raise KeyError(f"unknown chaos scenario {name!r} (known: {known})") from None
    return replace(plan, seed=seed) if seed is not None else plan
