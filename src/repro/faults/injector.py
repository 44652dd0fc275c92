"""Deterministic fault-decision engine.

A :class:`FaultInjector` resolves a :class:`~repro.faults.plan.FaultPlan`
against one dataset's capture window and answers, per authoritative send,
the two questions the transport layer asks: *does this packet die?* and
*how much extra latency does this path carry right now?*

Determinism contract
--------------------
Probabilistic decisions (packet loss, RRL-storm drops) are **hash-based**,
not RNG-stream-based: each verdict is a pure function of ``(seed,
server_id, family, send timestamp, qname)``.  The injector therefore
consumes no shared randomness, which makes fault placement

* independent of shard boundaries and worker count (the parallel runtime's
  bit-identity guarantee survives chaos),
* reproducible across runs given the same ``(plan, seed)``,
* and invisible to the resolvers' own RNG streams — enabling the
  zero-fault path to stay bit-identical to a run without any injector.

Window checks (outages, blackouts, latency spikes) are plain interval
tests on the capture-window fraction and involve no randomness at all.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, field
from typing import Dict, Optional

from .plan import FaultPlan

#: Drop causes, used as the ``cause`` label on ``faults.dropped``.
CAUSE_OUTAGE = "outage"
CAUSE_BLACKOUT = "blackout"
CAUSE_LOSS = "loss"
CAUSE_STORM = "storm"

_HASH_DENOM = float(2**32)


def mix32(digest: int) -> int:
    """Murmur3 finalizer: avalanche every input bit of a 32-bit digest.

    CRC32 alone is linear — two inputs differing in a prefix yield digests
    differing by a constant XOR, which a fixed threshold can fail to
    distinguish — so hash-derived fault verdicts scramble the digest
    through this finalizer first.
    """
    digest ^= digest >> 16
    digest = (digest * 0x85EBCA6B) & 0xFFFFFFFF
    digest ^= digest >> 13
    digest = (digest * 0xC2B2AE35) & 0xFFFFFFFF
    digest ^= digest >> 16
    return digest


def derive_fault_seed(run_seed: int) -> int:
    """The injector seed a run uses when its plan does not pin one.

    Domain-separated from the run seed so chaos decisions never correlate
    with resolver/workload RNG streams derived from the same value.
    """
    return zlib.crc32(struct.pack("<q", run_seed) + b"repro.faults")


@dataclass
class FaultVerdict:
    """Outcome of one transport-level drop check."""

    dropped: bool = False
    cause: Optional[str] = None


@dataclass
class FaultStats:
    """Counters for one injector (one environment build).

    Plain attribute increments, mirroring ``ResolverStats``: the check runs
    on the simulator's hottest path, so registry instruments are only
    touched once per run via :meth:`FaultInjector.publish_metrics`.
    """

    checks: int = 0
    latency_spikes: int = 0
    extra_latency_ms_total: float = 0.0
    dropped_by_cause: Dict[str, int] = field(default_factory=dict)

    @property
    def dropped(self) -> int:
        return sum(self.dropped_by_cause.values())

    def record_drop(self, cause: str) -> None:
        self.dropped_by_cause[cause] = self.dropped_by_cause.get(cause, 0) + 1


class FaultInjector:
    """Applies one :class:`FaultPlan` to one dataset's capture window.

    Parameters
    ----------
    plan:
        The fault schedule.
    seed:
        Decision seed (already resolved — see :func:`derive_fault_seed`).
    window_start, window_duration:
        The dataset's capture window (epoch seconds / seconds), used to
        turn absolute simulation timestamps into window fractions.
    """

    def __init__(
        self,
        plan: FaultPlan,
        seed: int,
        window_start: float,
        window_duration: float,
    ):
        if window_duration <= 0:
            raise ValueError("window_duration must be positive")
        self.plan = plan
        self.seed = int(seed) & 0xFFFFFFFF
        self.window_start = window_start
        self.window_duration = window_duration
        self.stats = FaultStats()
        self._seed_bytes = struct.pack("<I", self.seed)

    # -- decision helpers -------------------------------------------------------

    def window_frac(self, timestamp: float) -> float:
        """Capture-window fraction of an absolute timestamp (clamped)."""
        frac = (timestamp - self.window_start) / self.window_duration
        return min(max(frac, 0.0), 1.0)

    def _uniform(
        self, label: bytes, server_id: str, family: int, timestamp: float,
        qname_key: bytes,
    ) -> float:
        """Deterministic uniform [0, 1) from the full decision identity.

        The timestamp participates at full float precision, so retransmits
        of the same question (which always carry later send times) roll
        fresh verdicts instead of being identically re-dropped.

        CRC32 alone is linear — two seeds differing in the prefix yield
        digests differing by a constant XOR, which a fixed threshold can
        fail to distinguish — so the digest is scrambled through
        :func:`mix32` (a murmur3 finalizer) to avalanche every input bit
        across the output.
        """
        digest = zlib.crc32(
            self._seed_bytes
            + label
            + server_id.encode()
            + bytes((family,))
            + struct.pack("<d", timestamp)
            + qname_key
        )
        return mix32(digest) / _HASH_DENOM

    # -- the transport-facing API ----------------------------------------------

    def udp_fate(
        self, server_id: str, family: int, timestamp: float, qname_key: bytes
    ) -> FaultVerdict:
        """Fate of one UDP exchange sent to ``server_id`` at ``timestamp``.

        Drop decision only — latency penalties are queried separately (via
        :meth:`extra_latency_ms`) *before* the send clock ticks, so they
        shift the send timestamp this method then judges.  ``qname_key`` is
        any stable byte identity for the question (the resolver passes the
        textual qname) so two different questions in flight at the same
        instant get independent loss verdicts.
        """
        plan = self.plan
        stats = self.stats
        stats.checks += 1
        frac = self.window_frac(timestamp)

        cause = None
        if any(o.covers(server_id, frac) for o in plan.outages):
            cause = CAUSE_OUTAGE
        elif any(b.covers(family, frac) for b in plan.blackouts):
            cause = CAUSE_BLACKOUT
        elif plan.packet_loss > 0.0 and (
            self._uniform(b"loss", server_id, family, timestamp, qname_key)
            < plan.packet_loss
        ):
            cause = CAUSE_LOSS
        else:
            for storm in plan.storms:
                if storm.covers(server_id, frac) and (
                    self._uniform(b"storm", server_id, family, timestamp, qname_key)
                    < storm.drop_probability
                ):
                    cause = CAUSE_STORM
                    break
        if cause is None:
            return FaultVerdict()
        stats.record_drop(cause)
        return FaultVerdict(dropped=True, cause=cause)

    def extra_latency_ms(
        self, server_id: str, timestamp: float, base_rtt_ms: float = 0.0
    ) -> float:
        """Latency penalty active for ``server_id`` at ``timestamp``.

        ``base_rtt_ms`` feeds the multiplicative part of any active spike;
        the additive parts apply regardless.
        """
        plan = self.plan
        if not plan.latency:
            return 0.0
        frac = self.window_frac(timestamp)
        extra = 0.0
        for spike in plan.latency:
            if spike.covers(server_id, frac):
                extra += spike.extra_ms + base_rtt_ms * (spike.multiplier - 1.0)
        if extra > 0.0:
            self.stats.latency_spikes += 1
            self.stats.extra_latency_ms_total += extra
        return extra

    # -- telemetry --------------------------------------------------------------

    def publish_metrics(self, metrics) -> None:
        """Aggregate this injector's counters into a
        :class:`~repro.telemetry.MetricsRegistry` (once per run)."""
        stats = self.stats
        metrics.counter("faults.checks").inc(stats.checks)
        for cause, count in sorted(stats.dropped_by_cause.items()):
            metrics.counter("faults.dropped", cause=cause).inc(count)
        metrics.counter("faults.latency_spikes").inc(stats.latency_spikes)
        if stats.extra_latency_ms_total:
            metrics.counter("faults.extra_latency_ms").inc(
                int(round(stats.extra_latency_ms_total))
            )
