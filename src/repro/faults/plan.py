"""Fault schedules: declarative descriptions of what goes wrong, when.

A :class:`FaultPlan` is a frozen, picklable value object naming every
network pathology one dataset run should suffer: per-server outage
windows, uniform packet loss, latency spikes/degradation windows,
per-family (v4/v6) blackouts, and RRL-pressure storms.  Plans say nothing
about *which individual packet* is affected — that decision is made
deterministically by :class:`~repro.faults.injector.FaultInjector` from
the plan plus a seed, so the same ``(plan, seed)`` always yields the same
traffic.

All windows are expressed as fractions of the dataset's capture window
(``0.0`` = collection start, ``1.0`` = collection end), which makes one
plan meaningful across datasets with different absolute time ranges.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

#: Wildcard matching every server in :attr:`OutageWindow.server_id` et al.
ANY_SERVER = "*"


def _check_frac_window(start: float, end: float, what: str) -> None:
    if not 0.0 <= start < end <= 1.0:
        raise ValueError(
            f"{what} window must satisfy 0 <= start < end <= 1, "
            f"got [{start}, {end}]"
        )


def _server_matches(pattern: str, server_id: str) -> bool:
    """``"*"`` matches everything; ``"nl-*"`` matches by prefix and
    ``"*-a"`` by suffix (one glob, at either end)."""
    if pattern == ANY_SERVER:
        return True
    if pattern.endswith("*"):
        return server_id.startswith(pattern[:-1])
    if pattern.startswith("*"):
        return server_id.endswith(pattern[1:])
    return server_id == pattern


@dataclass(frozen=True)
class OutageWindow:
    """One server (or server-id pattern) answers nothing during a window —
    the DoS scenario of the paper's introduction (Dyn 2016, AWS 2019)."""

    server_id: str = ANY_SERVER
    start_frac: float = 0.0
    end_frac: float = 1.0

    def __post_init__(self):
        _check_frac_window(self.start_frac, self.end_frac, "outage")

    def covers(self, server_id: str, frac: float) -> bool:
        return (
            self.start_frac <= frac < self.end_frac
            and _server_matches(self.server_id, server_id)
        )


@dataclass(frozen=True)
class FamilyBlackout:
    """One address family (4 or 6) is unreachable during a window —
    models the routing incidents behind the paper's dual-stack failover
    observations (Table 5 / Figure 5)."""

    family: int
    start_frac: float = 0.0
    end_frac: float = 1.0

    def __post_init__(self):
        if self.family not in (4, 6):
            raise ValueError(f"family must be 4 or 6, got {self.family}")
        _check_frac_window(self.start_frac, self.end_frac, "blackout")

    def covers(self, family: int, frac: float) -> bool:
        return self.family == family and self.start_frac <= frac < self.end_frac


@dataclass(frozen=True)
class LatencySpike:
    """RTT degradation during a window: multiply the path RTT and/or add a
    fixed penalty.  Visible in capture timestamps and TCP handshake RTTs."""

    server_id: str = ANY_SERVER
    start_frac: float = 0.0
    end_frac: float = 1.0
    multiplier: float = 1.0
    extra_ms: float = 0.0

    def __post_init__(self):
        _check_frac_window(self.start_frac, self.end_frac, "latency spike")
        if self.multiplier < 1.0:
            raise ValueError("latency multiplier must be >= 1")
        if self.extra_ms < 0.0:
            raise ValueError("extra_ms must be >= 0")

    def covers(self, server_id: str, frac: float) -> bool:
        return (
            self.start_frac <= frac < self.end_frac
            and _server_matches(self.server_id, server_id)
        )


@dataclass(frozen=True)
class RRLStorm:
    """A window of response-rate-limiting pressure: an extra probability
    that any UDP answer is dropped, modelling aggressive RRL under attack
    traffic (the dropped-answer junk amplification of paper Figure 4)."""

    drop_probability: float
    server_id: str = ANY_SERVER
    start_frac: float = 0.0
    end_frac: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.drop_probability <= 1.0:
            raise ValueError("drop_probability must be in [0, 1]")
        _check_frac_window(self.start_frac, self.end_frac, "RRL storm")

    def covers(self, server_id: str, frac: float) -> bool:
        return (
            self.start_frac <= frac < self.end_frac
            and _server_matches(self.server_id, server_id)
        )


@dataclass(frozen=True)
class FaultPlan:
    """Composable chaos schedule for one dataset run.

    The default (everything empty/zero) is the *null plan*: a run carrying
    it is asserted — not assumed — to produce capture output bit-identical
    to a run with no plan at all (see ``tests/test_faults.py``).

    ``seed`` optionally pins the injector's decision seed; when ``None``
    the driver derives one from the run seed, so the same ``--seed`` gives
    the same chaos and ``--chaos-seed`` varies it independently.
    """

    name: str = ""
    packet_loss: float = 0.0           #: uniform UDP loss probability
    outages: Tuple[OutageWindow, ...] = ()
    blackouts: Tuple[FamilyBlackout, ...] = ()
    latency: Tuple[LatencySpike, ...] = ()
    storms: Tuple[RRLStorm, ...] = ()
    seed: Optional[int] = None

    def __post_init__(self):
        if not 0.0 <= self.packet_loss <= 1.0:
            raise ValueError("packet_loss must be in [0, 1]")
        # Accept lists for convenience but store tuples (frozen+picklable).
        for attr in ("outages", "blackouts", "latency", "storms"):
            value = getattr(self, attr)
            if not isinstance(value, tuple):
                object.__setattr__(self, attr, tuple(value))

    @property
    def enabled(self) -> bool:
        """True when this plan can affect traffic at all."""
        return bool(
            self.packet_loss > 0.0
            or self.outages
            or self.blackouts
            or self.latency
            or self.storms
        )
