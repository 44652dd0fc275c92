"""Resilience primitives for the live service: shed, break, bound.

This module is the self-healing layer of ``repro serve``.  The service
runs one policy for a silent upstream, and three mechanisms make it up,
each cheap enough to sit on the per-query path:

* **Admission control** (:class:`TokenBucket`) — a rate/burst gate at the
  socket endpoints (burst :data:`ADMISSION_BURST_FACTOR` times the rate).
  A query over capacity is *shed* silently before any dispatch work
  happens: the cheapest answer to a spoofed flood, and over TCP the
  connection is closed.
* **Circuit breakers** (:class:`CircuitBreaker` / :class:`BreakerBoard`)
  — per-upstream failure tracking with the classic closed → open →
  half-open state machine.  A blackholed upstream is skipped in O(1)
  instead of being re-tried (and re-charged against the deadline) on
  every query; after a cooldown one probe query tests recovery.
* **Deadline budgets** (:class:`Deadline`) — every query carries a
  :data:`DEADLINE_MS` budget combining *real* elapsed wall time with
  *virtual* charges for upstream waits.  The simulated world answers
  instantly, so the time a real forwarder would have spent waiting on a
  silent upstream (:data:`ATTEMPT_CHARGES_MS`: the attempt timeout plus
  capped exponential backoff) is charged against the budget instead of
  slept; the virtual offset also advances the fault-verdict timestamp so
  retransmits roll fresh loss verdicts, exactly as the simulated
  resolver's retransmit clock does.  An exhausted budget turns into a
  graceful SERVFAIL rather than silence.

The tuning values are module constants: no caller sets another value.
:class:`ResilienceConfig` keeps the two that callers do set, the admission
rate and the breaker cooldown.

Everything here is synchronous and lock-free: dispatch runs inline on
the event loop, so ``allow``/``record`` pairs can never interleave.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

#: Breaker states, with the integer encoding exported on the
#: ``service.breaker_state`` gauge (0 is healthy so dashboards sum to
#: "anything non-zero needs a look").
BREAKER_CLOSED = 0
BREAKER_HALF_OPEN = 1
BREAKER_OPEN = 2

#: Admission burst, as a multiple of the admission rate.
ADMISSION_BURST_FACTOR = 2.0

#: Consecutive failures that open a breaker.
BREAKER_FAILURE_THRESHOLD = 5
#: Rolling-window error rate that opens a breaker, the window's size, and
#: the samples it needs before the rate applies.
BREAKER_ERROR_RATE = 0.5
BREAKER_WINDOW = 20
BREAKER_MIN_SAMPLES = 10
#: Open → half-open delay ``repro serve`` uses.
BREAKER_COOLDOWN_S = 2.0

#: One query's budget; the soak's ``p99_under_deadline`` SLO reads it too.
DEADLINE_MS = 1500.0
#: Virtual wait per silent attempt, per-server retries before failover,
#: and the capped exponential backoff charged after failed attempt N.
ATTEMPT_TIMEOUT_MS = 250.0
RETRANSMITS = 1
BACKOFF_BASE_MS = 50.0
BACKOFF_CAP_MS = 400.0


def backoff_ms(attempt: int) -> float:
    """Capped exponential backoff charged after failed attempt N."""
    return min(BACKOFF_CAP_MS, BACKOFF_BASE_MS * (2.0 ** attempt))


#: What each silent attempt on one server charges, attempt by attempt:
#: ``(300.0, 350.0)``, so two silent servers spend 1300 of the 1500 ms.
ATTEMPT_CHARGES_MS = tuple(
    ATTEMPT_TIMEOUT_MS + backoff_ms(attempt) for attempt in range(1 + RETRANSMITS)
)


@dataclass
class ResilienceConfig:
    """The resilience settings that differ between callers (one instance
    per service).

    ``admission_rate_qps=None`` disables admission control; the soak sets
    a rate, ``repro serve --admission-qps`` may.  The breaker cooldown is
    :data:`BREAKER_COOLDOWN_S` under ``repro serve``; the soak shortens it
    to fit its run.
    """

    admission_rate_qps: Optional[float] = None
    breaker_cooldown_s: float = BREAKER_COOLDOWN_S

    def __post_init__(self):
        if self.admission_rate_qps is not None and self.admission_rate_qps <= 0:
            raise ValueError("admission_rate_qps must be positive (or None)")

    def make_bucket(self) -> Optional["TokenBucket"]:
        if self.admission_rate_qps is None:
            return None
        return TokenBucket(
            self.admission_rate_qps,
            ADMISSION_BURST_FACTOR * self.admission_rate_qps,
        )


class TokenBucket:
    """A refilling token bucket; one token per admitted query."""

    __slots__ = ("rate", "burst", "_tokens", "_last")

    def __init__(self, rate: float, burst: float):
        if rate <= 0 or burst < 1.0:
            raise ValueError("rate must be > 0 and burst >= 1")
        self.rate = float(rate)
        self.burst = float(burst)
        self._tokens = float(burst)
        self._last: Optional[float] = None

    def try_take(self, now: float) -> bool:
        """Admit one query at time ``now`` (epoch seconds), or shed it."""
        if self._last is not None and now > self._last:
            self._tokens = min(
                self.burst, self._tokens + (now - self._last) * self.rate
            )
        self._last = now
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return True
        return False

    @property
    def level(self) -> float:
        return self._tokens


class Deadline:
    """One query's remaining time budget (real elapsed + virtual charges).

    The budget starts at ``started``, the clock reading the query was
    stamped with, and every check takes the caller's reading of the same
    clock: a query that has not yet waited on anything needs no second one.
    The virtual component models upstream waits the instant-answer
    simulation never actually performs; :meth:`virtual_offset_s` feeds the
    charged time back into fault-verdict timestamps so retries are judged
    at the moment a real retry would have been sent.
    """

    __slots__ = ("budget_ms", "_started", "_virtual_ms")

    def __init__(self, budget_ms: float, started: float):
        self.budget_ms = float(budget_ms)
        self._started = started
        self._virtual_ms = 0.0

    def charge_ms(self, ms: float) -> None:
        """Consume ``ms`` of virtual wait (a timeout the sim skipped)."""
        self._virtual_ms += ms

    def exhausted(self, now: float) -> bool:
        """Have real elapsed time and virtual charges spent the budget?"""
        return (now - self._started) * 1000.0 + self._virtual_ms >= self.budget_ms

    def virtual_offset_s(self) -> float:
        return self._virtual_ms / 1000.0


class CircuitBreaker:
    """Closed → open → half-open failure tracking for one upstream.

    Opens on either :data:`BREAKER_FAILURE_THRESHOLD` consecutive failures
    or a rolling-window error rate at/above :data:`BREAKER_ERROR_RATE` (once
    :data:`BREAKER_MIN_SAMPLES` outcomes are in the window).  After
    ``cooldown_s`` an open breaker admits a single probe: success closes
    it, failure re-opens and restarts the cooldown.
    """

    __slots__ = (
        "cooldown_s", "state", "consecutive_failures", "_window", "_opened_at",
        "opened_count", "closed_count", "probe_count",
    )

    def __init__(self, cooldown_s: float = BREAKER_COOLDOWN_S):
        self.cooldown_s = cooldown_s
        self.state = BREAKER_CLOSED
        self.consecutive_failures = 0
        self._window: list = []  # rolling bools, newest last
        self._opened_at = 0.0
        self.opened_count = 0
        self.closed_count = 0
        self.probe_count = 0

    def allow(self, now: float) -> bool:
        """May dispatch try this upstream right now?"""
        if self.state == BREAKER_CLOSED:
            return True
        if self.state == BREAKER_OPEN:
            if now - self._opened_at >= self.cooldown_s:
                self.state = BREAKER_HALF_OPEN
                self.probe_count += 1
                return True
            return False
        # Half-open: dispatch is single-threaded, so the probe outcome is
        # always recorded before the next allow() — admit it.
        return True

    def record(self, ok: bool, now: float) -> None:
        """Feed one attempt outcome back into the state machine."""
        if self.state == BREAKER_HALF_OPEN:
            if ok:
                self._close()
            else:
                self._open(now)
            return
        window = self._window
        window.append(ok)
        if len(window) > BREAKER_WINDOW:
            del window[0]
        if ok:
            self.consecutive_failures = 0
            return
        self.consecutive_failures += 1
        if self.state == BREAKER_CLOSED and self._should_open():
            self._open(now)

    # -- internals ---------------------------------------------------------

    def _should_open(self) -> bool:
        if self.consecutive_failures >= BREAKER_FAILURE_THRESHOLD:
            return True
        if len(self._window) >= BREAKER_MIN_SAMPLES:
            failures = self._window.count(False)
            return failures / len(self._window) >= BREAKER_ERROR_RATE
        return False

    def _open(self, now: float) -> None:
        self.state = BREAKER_OPEN
        self._opened_at = now
        self.opened_count += 1
        self.consecutive_failures = 0
        self._window.clear()

    def _close(self) -> None:
        self.state = BREAKER_CLOSED
        self.closed_count += 1
        self.consecutive_failures = 0
        self._window.clear()


class BreakerBoard:
    """All the per-upstream breakers of one dispatcher, plus telemetry."""

    def __init__(self, cooldown_s: float = BREAKER_COOLDOWN_S):
        self.cooldown_s = cooldown_s
        self._breakers: Dict[str, CircuitBreaker] = {}
        self.skipped = 0

    def get(self, upstream: str) -> CircuitBreaker:
        breaker = self._breakers.get(upstream)
        if breaker is None:
            breaker = CircuitBreaker(self.cooldown_s)
            self._breakers[upstream] = breaker
        return breaker

    def items(self):
        return self._breakers.items()

    def open_count(self) -> int:
        """Breakers currently not closed (open or probing)."""
        return sum(
            1 for b in self._breakers.values() if b.state != BREAKER_CLOSED
        )

    def publish_metrics(self, metrics) -> None:
        """Export breaker state into a (scratch) registry.

        Called from the service's snapshot path, so counters are published
        as whole totals into a fresh roll-up registry each time — the same
        idiom as :meth:`~repro.faults.FaultInjector.publish_metrics`.
        """
        opened = closed = probes = 0
        for upstream, breaker in sorted(self._breakers.items()):
            metrics.gauge("service.breaker_state", upstream=upstream).set(
                breaker.state
            )
            opened += breaker.opened_count
            closed += breaker.closed_count
            probes += breaker.probe_count
        metrics.counter("service.breaker.opened").inc(opened)
        metrics.counter("service.breaker.closed").inc(closed)
        metrics.counter("service.breaker.probes").inc(probes)
        metrics.counter("service.breaker.skipped").inc(self.skipped)
