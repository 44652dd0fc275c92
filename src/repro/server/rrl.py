"""Response Rate Limiting (RRL).

Authoritative operators deploy RRL to blunt reflection attacks: when a
source prefix exceeds a response-rate threshold, some responses are dropped
and some are "slipped" — answered with a minimal truncated (TC=1) reply that
forces a legitimate resolver to retry over TCP, proving it is not spoofing
(paper section 4.4 cites this as one of the two reasons resolvers use TCP).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Tuple

from ..netsim import IPAddress
from ..telemetry import tracing


#: Every ``SLIP``-th limited response from a prefix is sent as a TC=1 slip
#: instead of being dropped (BIND's default: every other one).
SLIP = 2
#: Source prefix lengths a token bucket covers, per address family.
V4_PREFIX_LEN = 24
V6_PREFIX_LEN = 56


@dataclass
class RRLConfig:
    """Token-bucket parameters: ``responses_per_second`` is the sustained
    per-prefix rate and ``burst`` the bucket depth."""

    responses_per_second: float = 50.0
    burst: float = 100.0

    def __post_init__(self):
        # 0 is allowed: a bucket that never refills (or never fills).
        for name in ("responses_per_second", "burst"):
            value = getattr(self, name)
            if not 0 <= value < math.inf:
                raise ValueError(f"{name} must be finite and >= 0, got {value}")


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
        shift = src.bits - (V4_PREFIX_LEN if src.family == 4 else V6_PREFIX_LEN)
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
        if count % SLIP == 0:
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
