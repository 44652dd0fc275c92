"""Client-side query generation.

Simulated resolvers are driven by client query streams; this module
generates those streams per resolver: how many queries, when (weekly
diurnal pattern), for which names (Zipf over the vantage zone's registered
domains, plus junk), and of which types.

Junk here means queries destined to fail: typo/garbage second-level names
at a ccTLD, and random-label TLD probes (the Chromium behaviour, paper
section 3) at the root.
"""

from __future__ import annotations

import string
from dataclasses import dataclass
from typing import Iterator, List, Sequence, Tuple

import numpy as np

from ..dnscore import Name, RRType
from ..zones import ZipfSampler

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

_JUNK_ALPHABET = np.array(list(string.ascii_lowercase))


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
    """Weekly arrival-time sampler with a sinusoidal day/night cycle.

    ``peak_ratio`` is the busiest-hour rate over the quietest-hour rate
    (the Internet "sleeps", Quan et al. 2014).
    """

    def __init__(self, start: float, duration: float, peak_ratio: float = 2.0):
        if duration <= 0:
            raise ValueError("duration must be positive")
        self.start = start
        self.duration = duration
        hours = np.arange(24)
        weights = 1.0 + (peak_ratio - 1.0) * 0.5 * (
            1.0 + np.sin((hours - 9.0) / 24.0 * 2.0 * np.pi)
        )
        self._hour_cdf = _choice_cdf(weights / weights.sum())

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """``count`` sorted timestamps across the window."""
        n_days = max(1, int(round(self.duration / 86400.0)))
        days = rng.integers(0, n_days, size=count)
        hours = self._hour_cdf.searchsorted(rng.random(count), side="right")
        seconds = rng.random(count) * 3600.0
        stamps = self.start + days * 86400.0 + hours * 3600.0 + seconds
        stamps.sort()
        return stamps


def _random_labels(rng: np.random.Generator, count: int, low: int = 7, high: int = 15) -> List[str]:
    """Random lowercase labels (junk names / Chromium-style probes)."""
    lengths = rng.integers(low, high + 1, size=count)
    out = []
    for length in lengths:
        letters = _JUNK_ALPHABET[rng.integers(0, 26, size=int(length))]
        out.append("".join(letters))
    return out


class WorkloadGenerator:
    """Generates one resolver's client query stream for a dataset.

    Parameters
    ----------
    vantage:
        "nl"/"nz" (queries target the ccTLD) or "root" (queries target a
        spread of TLDs, junk queries are nonexistent TLD probes).
    domains:
        The vantage zone's registered domains (for ccTLD vantages), sorted;
        popularity over them is Zipf.
    tld_names:
        For the root vantage: existing TLDs to target.
    """

    def __init__(
        self,
        vantage: str,
        domains: Sequence[Name],
        tld_names: Sequence[str] = (),
        zipf_exponent: float = 1.0,
        seed: int = 0,
    ):
        self.vantage = vantage
        self.domains = list(domains)
        self.tld_names = list(tld_names)
        if vantage in ("nl", "nz") and not self.domains:
            raise ValueError("ccTLD vantage needs registered domains")
        if vantage == "root" and not self.tld_names:
            raise ValueError("root vantage needs TLD names")
        self._domain_sampler = (
            ZipfSampler(len(self.domains), zipf_exponent) if self.domains else None
        )
        self._tld_sampler = (
            ZipfSampler(len(self.tld_names), 0.8) if self.tld_names else None
        )
        self._qtypes = [t for t, __ in CLIENT_QTYPE_MIX]
        qtype_probs = np.array([p for __, p in CLIENT_QTYPE_MIX])
        self._qtype_cdf = _choice_cdf(qtype_probs / qtype_probs.sum())
        self._subnames = [s for s, __ in SUBNAME_CHOICES]
        subname_probs = np.array([p for __, p in SUBNAME_CHOICES])
        self._subname_cdf = _choice_cdf(subname_probs / subname_probs.sum())
        self._base_seed = seed
        self._vantage_suffix = (
            Name.from_text(vantage) if vantage != "root" else None
        )
        # (domain rank, subname) → Name memo.  The Zipf head repeats the
        # same few thousand combinations constantly; interning them also
        # lets every layer downstream share one immutable Name instance
        # (and its cached wire/text forms) per distinct query name.
        self._legit_names: dict = {}

    # -- name construction ------------------------------------------------------

    def _cctld_legit_name(self, rng: np.random.Generator) -> Name:
        rank = self._domain_sampler.sample(rng)
        sub = self._subnames[
            int(self._subname_cdf.searchsorted(rng.random(), side="right"))
        ]
        key = (rank, sub)
        name = self._legit_names.get(key)
        if name is None:
            domain = self.domains[rank]
            name = domain if not sub else domain.prepend(sub.encode())
            self._legit_names[key] = name
        return name

    def _cctld_junk_name(self, rng: np.random.Generator) -> Name:
        label = _random_labels(rng, 1)[0]
        return self._vantage_suffix.prepend(label.encode())

    def _root_legit_name(self, rng: np.random.Generator) -> Name:
        tld = self.tld_names[self._tld_sampler.sample(rng)]
        label = _random_labels(rng, 1, low=4, high=10)[0]
        return Name.from_text(f"{label}.{tld}")

    def _root_junk_name(self, rng: np.random.Generator) -> Name:
        # Chromium-style probe: a single random non-existent TLD label.
        return Name([_random_labels(rng, 1)[0].encode()])

    # -- stream ---------------------------------------------------------------

    def generate(
        self,
        resolver_index: int,
        count: int,
        pattern: DiurnalPattern,
        junk_fraction: float,
        storm_domains: Sequence[Name] = (),
        storm_fraction: float = 0.0,
    ) -> Iterator[ClientQuery]:
        """Yield ``count`` time-ordered client queries for one resolver.

        ``storm_domains``/``storm_fraction`` route a slice of the stream at
        specific domains regardless of popularity — used for the Feb-2020
        cyclic-dependency event, where client retries hammered two `.nz`
        names.
        """
        if count <= 0:
            return
        # What ``default_rng`` builds, without its argument dispatch.
        rng = np.random.Generator(
            np.random.PCG64(self._base_seed * 1_000_003 + resolver_index)
        )
        stamps = pattern.sample(rng, count)
        junk_draws = rng.random(count)
        storm_draws = rng.random(count)
        qtype_draws = self._qtype_cdf.searchsorted(rng.random(count), side="right")
        for i in range(count):
            if storm_domains and storm_draws[i] < storm_fraction:
                qname = storm_domains[int(rng.integers(len(storm_domains)))]
                qtype = RRType.A if rng.random() < 0.6 else RRType.AAAA
            elif junk_draws[i] < junk_fraction:
                qname = (
                    self._root_junk_name(rng)
                    if self.vantage == "root"
                    else self._cctld_junk_name(rng)
                )
                qtype = RRType.A
            else:
                qname = (
                    self._root_legit_name(rng)
                    if self.vantage == "root"
                    else self._cctld_legit_name(rng)
                )
                qtype = self._qtypes[int(qtype_draws[i])]
            yield ClientQuery(float(stamps[i]), qname, qtype)
