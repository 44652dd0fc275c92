"""Domain-name popularity model.

DNS query volume across names is heavy-tailed; a Zipf-like rank-frequency
law is the standard first-order model.  The sampler here is what the
workload generator uses to pick which registered domain each simulated
client query targets, so that cache hit ratios at resolvers (and therefore
the cache-miss traffic the authoritatives see) behave realistically.
"""

from __future__ import annotations

import numpy as np


class ZipfSampler:
    """Samples ranks 0..n-1 with probability proportional to 1/(rank+1)^s.

    Uses an explicit normalised CDF + inverse-transform sampling, which is
    vectorisable with numpy (``sample_many``) — the inner loop of the whole
    simulator.
    """

    def __init__(self, n: int, exponent: float = 1.0):
        if n <= 0:
            raise ValueError("need at least one item")
        if exponent < 0:
            raise ValueError("Zipf exponent must be non-negative")
        self.n = n
        self.exponent = exponent
        weights = 1.0 / np.power(np.arange(1, n + 1, dtype=np.float64), exponent)
        self._cdf = np.cumsum(weights)
        self._cdf /= self._cdf[-1]

    def sample(self, rng: np.random.Generator) -> int:
        """Draw a single rank."""
        return int(self._cdf.searchsorted(rng.random(), side="right"))

    def sample_many(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """Draw ``count`` ranks as an int64 array."""
        return np.searchsorted(
            self._cdf, rng.random(count), side="right"
        ).astype(np.int64)

    def probability(self, rank: int) -> float:
        """The probability mass assigned to ``rank``."""
        if not 0 <= rank < self.n:
            raise ValueError("rank out of range")
        low = self._cdf[rank - 1] if rank > 0 else 0.0
        return float(self._cdf[rank] - low)
