"""Client-side query generation.

Simulated resolvers are driven by client query streams; this module
generates those streams per resolver: how many queries, when (weekly
diurnal pattern), for which names (Zipf over the vantage zone's registered
domains, plus junk), and of which types.

Junk here means queries destined to fail: typo/garbage second-level names
at a ccTLD, and random-label TLD probes (the Chromium behaviour, paper
section 3) at the root.

A member's stream is drawn as columns (:meth:`WorkloadGenerator.columns`)
from a stream seeded by words hashed for its whole member range at once;
they are the bytes the per-query draws of the same stream gave.
"""

from __future__ import annotations

import string
from dataclasses import dataclass
from itertools import groupby
from typing import Iterator, List, Sequence, Tuple

import numpy as np

from ..dnscore import ROOT, Name, RRType
from ..zones import ZipfSampler, seed_words, word_stream

#: Client query-type mix (fractions), before any resolver-side behaviour.
#: A/AAAA dominate (web traffic), with mail and service lookups behind.
CLIENT_QTYPE_MIX: Tuple[Tuple[RRType, float], ...] = (
    (RRType.A, 0.56),
    (RRType.AAAA, 0.26),
    (RRType.MX, 0.08),
    (RRType.TXT, 0.05),
    (RRType.NS, 0.03),
    (RRType.SOA, 0.02),
)

#: Subname structure of client queries: exact registered domain vs. a
#: label below it.  The split matters for Q-min (below-cut queries become
#: NS queries at the TLD; exact-cut queries keep their type).
SUBNAME_CHOICES: Tuple[Tuple[str, float], ...] = (
    ("", 0.45),          # the registered domain itself
    ("www", 0.35),
    ("mail", 0.08),
    ("api", 0.05),
    ("cdn", 0.04),
    ("shop", 0.03),
)

#: Zipf exponents of name popularity: over a ccTLD's registered domains,
#: and over the TLDs root-vantage queries target.
DOMAIN_ZIPF_EXPONENT = 1.0
TLD_ZIPF_EXPONENT = 0.8

#: Busiest-hour over quietest-hour query rate of the day (the Internet
#: "sleeps", Quan et al. 2014).
DIURNAL_PEAK_RATIO = 2.0

_JUNK, _STORM = 1, 2  # the kinds ``columns`` sorts queries into; legitimate is 0
_JUNK_LETTERS = bytes.maketrans(bytes(range(26)), string.ascii_lowercase.encode())


def _choice_cdf(probs: np.ndarray) -> np.ndarray:
    """The CDF ``rng.choice(len(probs), p=probs)`` builds on every call,
    built once: ``cdf.searchsorted(rng.random(n), side="right")`` reads the
    same doubles from ``rng`` and returns the same indices."""
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    return cdf


@dataclass
class ClientQuery:
    """One client-side query event."""

    timestamp: float
    qname: Name
    qtype: RRType


class DiurnalPattern:
    """Weekly arrival-time model with a sinusoidal day/night cycle whose
    busiest hour is :data:`DIURNAL_PEAK_RATIO` times its quietest."""

    def __init__(self, start: float, duration: float):
        if duration <= 0:
            raise ValueError("duration must be positive")
        self.start = start
        self.n_days = max(1, int(round(duration / 86400.0)))
        hours = np.arange(24)
        weights = 1.0 + (DIURNAL_PEAK_RATIO - 1.0) * 0.5 * (
            1.0 + np.sin((hours - 9.0) / 24.0 * 2.0 * np.pi)
        )
        self._hour_cdf = _choice_cdf(weights / weights.sum())

    def stamps(self, days: np.ndarray, hour_draws: np.ndarray, second_draws: np.ndarray):
        """Sorted timestamps from day indices below ``n_days`` and two
        uniform doubles a stamp: the hour, by the diurnal weights, and the
        second within it."""
        hours = self._hour_cdf.searchsorted(hour_draws, side="right")
        stamps = self.start + days * 86400.0 + hours * 3600.0 + second_draws * 3600.0
        stamps.sort()
        return stamps


def _random_label(rng: np.random.Generator, low: int = 7, high: int = 15) -> bytes:
    """One random lowercase label (junk names / Chromium-style probes)."""
    letters = rng.integers(0, 26, size=int(rng.integers(low, high + 1)))
    return letters.astype(np.uint8).tobytes().translate(_JUNK_LETTERS)


class WorkloadGenerator:
    """Generates one resolver's client query stream for a dataset.

    Parameters
    ----------
    vantage:
        "nl"/"nz" (queries target the ccTLD) or "root" (queries target a
        spread of TLDs, junk queries are nonexistent TLD probes).
    domains:
        The vantage zone's registered domains (for ccTLD vantages), sorted;
        popularity over them is Zipf (:data:`DOMAIN_ZIPF_EXPONENT`).
    tld_names:
        For the root vantage: existing TLDs to target.
    """

    def __init__(
        self,
        vantage: str,
        domains: Sequence[Name],
        tld_names: Sequence[str] = (),
        seed: int = 0,
    ):
        self.vantage = vantage
        self.domains = list(domains)
        self._tld_names = [Name.from_text(tld) for tld in tld_names]
        if vantage in ("nl", "nz") and not self.domains:
            raise ValueError("ccTLD vantage needs registered domains")
        if vantage == "root" and not self._tld_names:
            raise ValueError("root vantage needs TLD names")
        self._domain_sampler = (
            ZipfSampler(len(self.domains), DOMAIN_ZIPF_EXPONENT) if self.domains else None
        )
        self._tld_sampler = (
            ZipfSampler(len(self._tld_names), TLD_ZIPF_EXPONENT) if self._tld_names else None
        )
        self._qtypes = [t for t, __ in CLIENT_QTYPE_MIX]
        qtype_probs = np.array([p for __, p in CLIENT_QTYPE_MIX])
        self._qtype_cdf = _choice_cdf(qtype_probs / qtype_probs.sum())
        self._subnames = [s for s, __ in SUBNAME_CHOICES]
        subname_probs = np.array([p for __, p in SUBNAME_CHOICES])
        self._subname_cdf = _choice_cdf(subname_probs / subname_probs.sum())
        self._base_seed = seed
        # A junk name is one random label under the vantage's suffix.
        self._junk_suffix = ROOT if vantage == "root" else Name.from_text(vantage)
        # rank · len(SUBNAME_CHOICES) + subname → Name memo.  The Zipf head
        # repeats the same few thousand combinations constantly; interning
        # them also lets every layer downstream share one immutable Name
        # instance (and its cached wire/text forms) per distinct query name.
        self._legit_names: dict = {}

    # -- stream ---------------------------------------------------------------

    def member_seeds(self, start: int, stop: int) -> np.ndarray:
        """The seed words (:func:`~repro.zones.seed_words`) of the client
        streams of members ``[start, stop)``, one row each."""
        base = self._base_seed * 1_000_003
        return seed_words(range(base + start, base + stop))

    def columns(
        self,
        rng: np.random.Generator,
        count: int,
        pattern: DiurnalPattern,
        junk_fraction: float,
        storm_domains: Sequence[Name] = (),
        storm_fraction: float = 0.0,
    ) -> Tuple[List[float], List[Name], List[RRType]]:
        """One member's ``count >= 1`` client queries as time-ordered columns
        (timestamps, qnames, qtypes), drawn from ``rng``: the
        :func:`~repro.zones.word_stream` of its :meth:`member_seeds` row.

        ``storm_domains``/``storm_fraction`` route a slice of the stream at
        specific domains regardless of popularity — used for the Feb-2020
        cyclic-dependency event, where client retries hammered two `.nz`
        names.

        The stream reads its day indices, one block of five doubles a query
        (hour, second, junk, storm, qtype), then the name draws in query
        order; a run of legitimate ccTLD names reads its (rank, subname)
        doubles as one block, which consecutive ``random`` calls would
        read too, and a scalar ``integers`` (one day, a label's length)
        consumes what ``size=1`` does.  Bounded integers consume the stream
        by rejection and by the bit generator's buffered 32-bit half, so
        each other (label letters, storm picks) is the call it always was.
        """
        days = rng.integers(0, pattern.n_days, size=count if count > 1 else None)
        draws = rng.random(5 * count).reshape(5, count)
        stamps = pattern.stamps(days, draws[0], draws[1])
        kinds = (draws[2] < junk_fraction).astype(np.int8)
        if storm_domains:
            kinds[draws[3] < storm_fraction] = _STORM
        picks = self._qtype_cdf.searchsorted(draws[4], side="right").tolist()
        qtypes = list(map(self._qtypes.__getitem__, picks))
        qnames: List[Name] = []
        for kind, run in groupby(range(count), kinds.tolist().__getitem__):
            run = list(run)
            if kind == _STORM:
                for i in run:
                    qnames.append(storm_domains[int(rng.integers(len(storm_domains)))])
                    qtypes[i] = RRType.A if rng.random() < 0.6 else RRType.AAAA
            elif kind == _JUNK:
                qnames += [self._junk_suffix.prepend(_random_label(rng)) for __ in run]
                qtypes[run[0]:run[-1] + 1] = [RRType.A] * len(run)
            elif self.vantage == "root":
                qnames += [
                    self._tld_names[self._tld_sampler.ranks(rng.random())].prepend(
                        _random_label(rng, low=4, high=10)
                    )
                    for __ in run
                ]
            else:
                pairs = rng.random(2 * len(run))
                ranks = self._domain_sampler.ranks(pairs[0::2])
                subs = self._subname_cdf.searchsorted(pairs[1::2], side="right")
                qnames += self._legit_names_of((ranks * len(self._subnames) + subs).tolist())
        return stamps.tolist(), qnames, qtypes

    def _legit_names_of(self, keys: List[int]) -> Iterator[Name]:
        """The names of ``rank · len(SUBNAME_CHOICES) + subname`` keys, interned."""
        memo = self._legit_names
        for key in set(keys).difference(memo):
            rank, sub = divmod(key, len(self._subnames))
            domain, label = self.domains[rank], self._subnames[sub]
            memo[key] = domain.prepend(label.encode()) if label else domain
        return map(memo.__getitem__, keys)

    def generate(
        self,
        resolver_index: int,
        count: int,
        pattern: DiurnalPattern,
        junk_fraction: float,
    ) -> Iterator[ClientQuery]:
        """Yield ``count`` time-ordered client queries for one resolver:
        :meth:`columns` of its seed words, one query at a time, no storm."""
        if count <= 0:
            return
        rng = word_stream(self.member_seeds(resolver_index, resolver_index + 1)[0])
        columns = self.columns(rng, count, pattern, junk_fraction)
        yield from map(ClientQuery, *columns)
