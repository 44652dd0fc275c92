"""Deterministic network fault injection (chaos engineering for the sim).

The subsystem splits in three:

* :mod:`repro.faults.plan` — :class:`FaultPlan` and its window dataclasses:
  frozen, picklable schedules of outages, packet loss, latency spikes,
  family blackouts and RRL storms, expressed in capture-window fractions;
* :mod:`repro.faults.injector` — :class:`FaultInjector`: resolves a plan
  against one dataset window and hands the transport layer hash-based
  (shard-invariant, RNG-free) per-packet verdicts, plus ``faults.*``
  telemetry;
* :mod:`repro.faults.scenarios` — named presets behind ``--chaos``.

Wiring: ``DatasetDescriptor.fault_plan`` carries a plan into
:func:`repro.sim.driver.build_environment`, which attaches the injector to
the :class:`~repro.resolver.AuthorityNetwork`; ``SimResolver._send``
consults it per exchange and reacts with retransmit/backoff, NS-set
failover and SERVFAIL-on-exhaustion.
"""

from .injector import (
    CAUSE_BLACKOUT,
    CAUSE_LOSS,
    CAUSE_OUTAGE,
    CAUSE_STORM,
    FaultInjector,
    FaultStats,
    FaultVerdict,
    derive_fault_seed,
)
from .plan import (
    ANY_SERVER,
    FamilyBlackout,
    FaultPlan,
    LatencySpike,
    OutageWindow,
    RRLStorm,
)
from .scenarios import CHAOS_SCENARIOS, chaos_scenario

__all__ = [
    "ANY_SERVER",
    "CAUSE_BLACKOUT",
    "CAUSE_LOSS",
    "CAUSE_OUTAGE",
    "CAUSE_STORM",
    "CHAOS_SCENARIOS",
    "FamilyBlackout",
    "FaultInjector",
    "FaultPlan",
    "FaultStats",
    "FaultVerdict",
    "LatencySpike",
    "OutageWindow",
    "RRLStorm",
    "chaos_scenario",
    "derive_fault_seed",
]
