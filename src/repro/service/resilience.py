"""Resilience primitives for the live service: shed, break, bound.

This module is the self-healing layer of ``repro serve``.  Three
mechanisms compose, each cheap enough to sit on the per-query path:

* **Admission control** (:class:`TokenBucket`) — a rate/burst gate at the
  socket endpoints.  Queries over the configured capacity are *shed*
  before any dispatch work happens, either silently (``drop`` — the
  cheapest answer to a spoofed flood) or with an immediate
  SERVFAIL-with-TC response (``servfail`` — an honest "overloaded, retry
  over TCP" signal for well-behaved stubs).
* **Circuit breakers** (:class:`CircuitBreaker` / :class:`BreakerBoard`)
  — per-upstream failure tracking with the classic closed → open →
  half-open state machine.  A blackholed upstream is skipped in O(1)
  instead of being re-tried (and re-charged against the deadline) on
  every query; after a cooldown one probe query tests recovery.
* **Deadline budgets** (:class:`Deadline`) — every query carries a
  budget combining *real* elapsed wall time with *virtual* charges for
  upstream waits.  The simulated world answers instantly, so the time a
  real forwarder would have spent waiting on a silent upstream (attempt
  timeout plus capped exponential backoff) is charged against the budget
  instead of slept; the virtual offset also advances the fault-verdict
  timestamp so retransmits roll fresh loss verdicts, exactly as the
  simulated resolver's retransmit clock does.  An exhausted budget turns
  into a graceful SERVFAIL rather than silence.

Everything here is synchronous and lock-free: dispatch runs inline on
the event loop, so ``allow``/``record`` pairs can never interleave.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

#: Shed policies for admission control.
SHED_DROP = "drop"
SHED_SERVFAIL = "servfail"
SHED_POLICIES = (SHED_DROP, SHED_SERVFAIL)

#: Breaker states, with the integer encoding exported on the
#: ``service.breaker_state`` gauge (0 is healthy so dashboards sum to
#: "anything non-zero needs a look").
BREAKER_CLOSED = 0
BREAKER_HALF_OPEN = 1
BREAKER_OPEN = 2

_STATE_NAMES = {
    BREAKER_CLOSED: "closed",
    BREAKER_HALF_OPEN: "half_open",
    BREAKER_OPEN: "open",
}


@dataclass
class ResilienceConfig:
    """Tuning for the whole resilience layer (one instance per service).

    ``admission_rate_qps=None`` disables admission control;
    ``deadline_ms=None`` disables budget accounting (legacy PR 7
    semantics: an exhausted chain is silent over UDP).  Breakers default
    on — they only change behaviour when upstreams actually fail.
    """

    # -- admission control
    admission_rate_qps: Optional[float] = None
    admission_burst: Optional[float] = None  #: default: 2x the rate
    shed_policy: str = SHED_SERVFAIL

    # -- circuit breakers
    breakers: bool = True
    breaker_failure_threshold: int = 5   #: consecutive failures to open
    breaker_error_rate: float = 0.5      #: rolling-window open threshold
    breaker_window: int = 20             #: rolling-window sample size
    breaker_min_samples: int = 10        #: samples before the rate applies
    breaker_cooldown_s: float = 2.0      #: open → half-open delay

    # -- deadline budgets
    deadline_ms: Optional[float] = 1500.0
    attempt_timeout_ms: float = 250.0    #: virtual wait per silent attempt
    retransmits: int = 1                 #: per-server retries before failover
    backoff_base_ms: float = 50.0
    backoff_cap_ms: float = 400.0
    hedge: bool = False                  #: hedged retries charge half a wait

    def __post_init__(self):
        if self.shed_policy not in SHED_POLICIES:
            raise ValueError(
                f"shed_policy must be one of {SHED_POLICIES}, "
                f"got {self.shed_policy!r}"
            )
        if self.admission_rate_qps is not None and self.admission_rate_qps <= 0:
            raise ValueError("admission_rate_qps must be positive (or None)")
        if self.deadline_ms is not None and self.deadline_ms <= 0:
            raise ValueError("deadline_ms must be positive (or None)")
        if self.breaker_failure_threshold < 1:
            raise ValueError("breaker_failure_threshold must be >= 1")
        if not 0.0 < self.breaker_error_rate <= 1.0:
            raise ValueError("breaker_error_rate must be in (0, 1]")
        if self.retransmits < 0:
            raise ValueError("retransmits must be >= 0")

    def backoff_ms(self, attempt: int) -> float:
        """Capped exponential backoff charged after failed attempt N."""
        return min(self.backoff_cap_ms, self.backoff_base_ms * (2.0 ** attempt))

    def make_bucket(self) -> Optional["TokenBucket"]:
        if self.admission_rate_qps is None:
            return None
        burst = (
            self.admission_burst
            if self.admission_burst is not None
            else 2.0 * self.admission_rate_qps
        )
        return TokenBucket(self.admission_rate_qps, burst)


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

    Opens on either ``failure_threshold`` consecutive failures or a
    rolling-window error rate at/above ``error_rate`` (once
    ``min_samples`` outcomes are in the window).  After ``cooldown_s`` an
    open breaker admits a single probe: success closes it, failure
    re-opens and restarts the cooldown.
    """

    __slots__ = (
        "config", "state", "consecutive_failures", "_window", "_opened_at",
        "opened_count", "closed_count", "probe_count",
    )

    def __init__(self, config: ResilienceConfig):
        self.config = config
        self.state = BREAKER_CLOSED
        self.consecutive_failures = 0
        self._window: list = []  # rolling bools, newest last
        self._opened_at = 0.0
        self.opened_count = 0
        self.closed_count = 0
        self.probe_count = 0

    @property
    def state_name(self) -> str:
        return _STATE_NAMES[self.state]

    def allow(self, now: float) -> bool:
        """May dispatch try this upstream right now?"""
        if self.state == BREAKER_CLOSED:
            return True
        if self.state == BREAKER_OPEN:
            if now - self._opened_at >= self.config.breaker_cooldown_s:
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
        if len(window) > self.config.breaker_window:
            del window[0]
        if ok:
            self.consecutive_failures = 0
            return
        self.consecutive_failures += 1
        if self.state == BREAKER_CLOSED and self._should_open():
            self._open(now)

    # -- internals ---------------------------------------------------------

    def _should_open(self) -> bool:
        if self.consecutive_failures >= self.config.breaker_failure_threshold:
            return True
        if len(self._window) >= self.config.breaker_min_samples:
            failures = self._window.count(False)
            return failures / len(self._window) >= self.config.breaker_error_rate
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

    def __init__(self, config: ResilienceConfig):
        self.config = config
        self._breakers: Dict[str, CircuitBreaker] = {}
        self.skipped = 0

    def get(self, upstream: str) -> CircuitBreaker:
        breaker = self._breakers.get(upstream)
        if breaker is None:
            breaker = CircuitBreaker(self.config)
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
