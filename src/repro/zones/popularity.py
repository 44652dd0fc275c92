"""Domain-name popularity model, and the seeding of every member's streams.

DNS query volume across names is heavy-tailed; a Zipf-like rank-frequency
law is the standard first-order model.  The sampler here is what the
workload generator uses to pick which registered domain each simulated
client query targets, so that cache hit ratios at resolvers (and therefore
the cache-miss traffic the authoritatives see) behave realistically.

:func:`seed_words` hashes the seeds of many streams in one vectorised pass:
a fleet member's client stream and resolver each cost one ``SeedSequence``,
ten times the rest of their construction, for a few queries.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np
from numpy.random.bit_generator import ISeedSequence

_MASK = 0xFFFFFFFF
# ``SeedSequence``'s hash constants: NEP 19 keeps what it hashes a seed to.
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_POOL = 4


def _powers(init: int, mult: int, count: int) -> np.ndarray:
    """``init, init·mult, init·mult², …`` modulo 2^32, as a uint32 column."""
    return np.cumprod([init] + [mult] * (count - 1), dtype=np.uint64).astype(np.uint32)[:, None]


def _hashed(words: np.ndarray) -> np.ndarray:
    """``SeedSequence``'s pool mix and ``generate_state(4, np.uint64)`` of
    each column of ``words``; the mixes out of one source word are one step."""
    width, n = words.shape
    consts = _powers(_INIT_A, _MULT_A, 2 * _POOL * _POOL + _POOL * max(0, width - _POOL))
    used = 0

    def hashmix(values: np.ndarray, steps: int) -> np.ndarray:
        nonlocal used
        values = (values ^ consts[used:used + steps]) * consts[used + 1:used + steps + 1]
        used += steps
        return values ^ (values >> 16)

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = x * _MIX_L - y * _MIX_R
        return result ^ (result >> 16)

    pool = np.zeros((_POOL, n), dtype=np.uint32)
    pool[:min(width, _POOL)] = words[:_POOL]
    pool = hashmix(pool, _POOL)
    for src in range(_POOL):
        dst = [i for i in range(_POOL) if i != src]
        pool[dst] = mix(pool[dst], hashmix(pool[src], _POOL - 1))
    for word in words[_POOL:]:
        pool = mix(pool, hashmix(word, _POOL))
    consts = _powers(_INIT_B, _MULT_B, 2 * _POOL + 1)
    state = (np.concatenate([pool, pool]) ^ consts[:-1]) * consts[1:]
    state = (state ^ (state >> 16)).astype(np.uint64)
    return (state[0::2] | state[1::2] << np.uint64(32)).T


def seed_words(entropies: Iterable[int]) -> np.ndarray:
    """Row ``i`` is ``np.random.SeedSequence(entropies[i]).generate_state(4,
    np.uint64)``, the words a ``PCG64`` seeded with ``entropies[i]`` starts
    from.  Entropies are split into little-endian 32-bit words (``0`` is one
    zero word) and hashed by word count."""
    entropies = list(entropies)
    if entropies and min(entropies) < 0:
        raise ValueError("expected non-negative integer")
    count = max(1, -(-max(entropies, default=0).bit_length() // 32))
    words = np.array(
        [[e >> 32 * i & _MASK for e in entropies] for i in range(count)], dtype=np.uint32
    )
    nonzero = words != 0
    widths = np.where(nonzero.any(0), count - nonzero[::-1].argmax(0), 1)
    out = np.empty((len(entropies), _POOL), dtype=np.uint64)
    for width in np.unique(widths).tolist():
        rows = widths == width
        out[rows] = _hashed(words[:width, rows])
    return out


class _SeedWords(ISeedSequence):
    """One :func:`seed_words` row as the seed sequence ``PCG64`` reads."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words  # PCG64 asks for its four uint64 words


def word_stream(words: np.ndarray) -> np.random.Generator:
    """What ``np.random.default_rng(e)`` builds, from ``e``'s row of
    :func:`seed_words`, without hashing ``e`` again."""
    return np.random.Generator(np.random.PCG64(_SeedWords(words)))


class ZipfSampler:
    """Samples ranks 0..n-1 with probability proportional to 1/(rank+1)^s.

    Uses an explicit normalised CDF + inverse-transform sampling, which is
    vectorisable with numpy (``ranks``) — the inner loop of the whole
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

    def ranks(self, draws):
        """The ranks that uniform doubles ``draws`` (one or an array) pick."""
        return self._cdf.searchsorted(draws, side="right")

    def probability(self, rank: int) -> float:
        """The probability mass assigned to ``rank``."""
        if not 0 <= rank < self.n:
            raise ValueError("rank out of range")
        low = self._cdf[rank - 1] if rank > 0 else 0.0
        return float(self._cdf[rank] - low)
