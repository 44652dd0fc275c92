"""Response Rate Limiting (RRL).

Authoritative operators deploy RRL to blunt reflection attacks: when a
source prefix exceeds a response-rate threshold, some responses are dropped
and some are "slipped" — answered with a minimal truncated (TC=1) reply that
forces a legitimate resolver to retry over TCP, proving it is not spoofing
(paper section 4.4 cites this as one of the two reasons resolvers use TCP).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from ..netsim import IPAddress
from ..telemetry import tracing


@dataclass
class RRLConfig:
    """Token-bucket parameters.

    ``responses_per_second`` is the sustained per-prefix rate; ``burst``
    is the bucket depth; every ``slip``-th limited response is sent as a
    TC=1 slip instead of being dropped (slip=1 → always slip, never drop).
    """

    responses_per_second: float = 50.0
    burst: float = 100.0
    slip: int = 2
    v4_prefix_len: int = 24
    v6_prefix_len: int = 56


@dataclass
class RRLStats:
    """Verdict counters for one rate limiter."""

    passed: int = 0
    slipped: int = 0
    dropped: int = 0


class RateLimiter:
    """Per-source-prefix token bucket with slip accounting."""

    DROP = "drop"
    SLIP = "slip"
    PASS = "pass"

    def __init__(self, config: RRLConfig):
        self.config = config
        self.stats = RRLStats()
        self._buckets: Dict[Tuple[int, int], Tuple[float, float]] = {}
        self._slip_counters: Dict[Tuple[int, int], int] = {}

    @property
    def tracked_prefixes(self) -> int:
        """How many distinct source prefixes have live token buckets."""
        return len(self._buckets)

    def _bucket_key(self, src: IPAddress) -> Tuple[int, int]:
        length = (
            self.config.v4_prefix_len if src.family == 4 else self.config.v6_prefix_len
        )
        shift = src.bits - length
        return (src.family, src.value >> shift)

    def check(self, src: IPAddress, now: float) -> str:
        """Account one response at time ``now``; returns PASS, SLIP or DROP."""
        key = self._bucket_key(src)
        tokens, last = self._buckets.get(key, (self.config.burst, now))
        tokens = min(
            self.config.burst,
            tokens + (now - last) * self.config.responses_per_second,
        )
        if tokens >= 1.0:
            self._buckets[key] = (tokens - 1.0, now)
            self.stats.passed += 1
            return self.PASS
        self._buckets[key] = (tokens, now)
        count = self._slip_counters.get(key, 0) + 1
        self._slip_counters[key] = count
        if self.config.slip > 0 and count % self.config.slip == 0:
            self.stats.slipped += 1
            verdict = self.SLIP
        else:
            self.stats.dropped += 1
            verdict = self.DROP
        # Only limited responses are worth a trace event; PASS is the
        # overwhelmingly common case and stays on the fast path above.
        if tracing.ACTIVE is not None:
            tracing.ACTIVE.event(now, "rrl_limited", {"verdict": verdict})
        return verdict
