"""Synthetic zone construction for the three vantage points.

The paper's zones are proprietary; these builders produce structurally
faithful stand-ins:

* **root zone** — delegations for real-ish TLD labels (gTLDs + ccTLDs,
  a mix of signed and unsigned), so that root queries for junk TLDs
  NXDOMAIN and real TLDs get referrals;
* **.nl** — second-level registrations only, high DNSSEC signing rate
  (the Netherlands leads DNSSEC adoption);
* **.nz** — a mix of direct second-level registrations and third-level
  registrations under ``co.nz``/``net.nz``/``org.nz``/etc., matching the
  paper's 140K second-level / 570K third-level split (scaled down).

Zone sizes are configurable; the experiments use scaled-down counts and
report the paper's real sizes through a declared scale factor.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import List, Tuple

import numpy as np

from ..dnscore import AAAARdata, ARdata, Name, ROOT, RRType
from .zone import RRset, Zone

#: TLD labels delegated from the synthetic root zone.  The real root has
#: ~1500; this subset keeps lookups meaningful while staying small.
DEFAULT_TLDS: Tuple[str, ...] = (
    "com", "net", "org", "info", "biz", "io", "dev", "app", "xyz", "online",
    "nl", "nz", "de", "uk", "fr", "br", "jp", "cn", "in", "id", "au", "us",
    "ca", "se", "pl", "it", "es", "ru", "za", "kr", "mx", "ch", "at", "be",
    "arpa", "edu", "gov", "mil", "int",
)

#: Second-level registry zones under .nz that accept third-level
#: registrations (the real list: co, net, org, govt, ac, geek, gen, kiwi,
#: maori, school, health, mil, cri, iwi, parliament).
NZ_SECOND_LEVEL_REGISTRIES: Tuple[str, ...] = (
    "co", "net", "org", "govt", "ac", "school", "gen", "geek",
)

_WORD_STEMS = (
    "alpha", "bravo", "cedar", "delta", "ember", "fjord", "glade", "harbor",
    "iris", "juniper", "krill", "lumen", "maple", "nimbus", "opal", "pico",
    "quartz", "river", "sable", "tundra", "umber", "vista", "willow", "xenon",
    "yarrow", "zephyr", "anchor", "basil", "copper", "dune", "echo", "fable",
)


def synthetic_labels(count: int, seed: int = 0) -> List[str]:
    """Deterministic pronounceable labels: stem, stem-stem, stem-stem-N."""
    labels: List[str] = []
    labels.extend(_WORD_STEMS[: min(count, len(_WORD_STEMS))])
    if len(labels) >= count:
        return labels[:count]
    for a, b in itertools.product(_WORD_STEMS, repeat=2):
        labels.append(f"{a}-{b}")
        if len(labels) >= count:
            return labels[:count]
    i = 0
    while len(labels) < count:
        labels.append(f"{_WORD_STEMS[i % len(_WORD_STEMS)]}-{i}")
        i += 1
    return labels[:count]


@dataclass
class ZoneSpec:
    """Parameters for one synthetic registry zone."""

    origin: str
    second_level_count: int
    third_level_count: int = 0
    signed_fraction: float = 0.6
    seed: int = 0


#: Fraction of delegations whose NS live under the delegated domain
#: itself ("in-bailiwick"), requiring glue in referrals.
IN_BAILIWICK_FRACTION = 0.3


#: Distinct out-of-zone hosters delegations are spread over.
HOSTER_COUNT = 50


@lru_cache(maxsize=HOSTER_COUNT)
def _hoster_nameservers(hoster: int) -> Tuple[Name, Name, Name]:
    """The NS triple of one hoster — parsed once, shared by every
    delegation (and every zone build) that draws it."""
    ns_base = Name.from_text(f"dns{hoster}.hosting-{hoster % 7}.net")
    return (
        ns_base.prepend(b"ns1"), ns_base.prepend(b"ns2"), ns_base.prepend(b"ns3")
    )


def _delegate_child(
    zone: Zone, child: Name, index: int, secure: bool, rng: np.random.Generator
) -> None:
    """Attach a delegation: out-of-zone hoster NS (70%, lean glueless
    referrals) or in-bailiwick vanity NS with A/AAAA glue (30%, the larger
    referrals that exceed a 512-octet EDNS0 buffer when signed)."""
    if rng.random() < IN_BAILIWICK_FRACTION:
        ns_names = [child.prepend(b"ns1"), child.prepend(b"ns2")]
        zone.add_delegation(child, ns_names, secure=secure)
        for offset, ns_name in enumerate(ns_names):
            host = (index * 4 + offset) % 0xFFFF
            zone.add_rrset(
                RRset(ns_name, RRType.A, 3600, [ARdata(0xC6336400 + host)])
            )
            zone.add_rrset(
                RRset(
                    ns_name,
                    RRType.AAAA,
                    3600,
                    [AAAARdata((0x20010DB8 << 96) | (index << 16) | offset)],
                )
            )
    else:
        hoster = int(rng.integers(0, HOSTER_COUNT))
        zone.add_delegation(child, _hoster_nameservers(hoster), secure=secure)


def build_registry_zone(spec: ZoneSpec) -> Zone:
    """Build a TLD registry zone from a :class:`ZoneSpec`.

    Second-level domains are straight delegations under the origin.  If
    ``third_level_count`` is nonzero, registry second-level zones
    (``co.<origin>`` etc.) are created as in-zone structure and third-level
    delegations are spread across them — the `.nz` shape.
    """
    rng = np.random.default_rng(spec.seed)
    origin = Name.from_text(spec.origin)
    zone = Zone(origin, signed=True)

    labels = synthetic_labels(spec.second_level_count, spec.seed)
    for index, label in enumerate(labels):
        child = origin.prepend(label.encode())
        secure = bool(rng.random() < spec.signed_fraction)
        _delegate_child(zone, child, index, secure, rng)

    if spec.third_level_count:
        registries = [
            origin.prepend(reg.encode()) for reg in NZ_SECOND_LEVEL_REGISTRIES
        ]
        third_labels = synthetic_labels(spec.third_level_count, spec.seed + 1)
        for index, label in enumerate(third_labels):
            registry = registries[index % len(registries)]
            child = registry.prepend(label.encode())
            secure = bool(rng.random() < spec.signed_fraction)
            _delegate_child(zone, child, index, secure, rng)

    return zone


#: Fraction of the root's TLD delegations that are DNSSEC-signed.
ROOT_SIGNED_FRACTION = 0.9


def build_root_zone(seed: int = 0) -> Zone:
    """Build the synthetic root zone with delegations for
    :data:`DEFAULT_TLDS`, :data:`ROOT_SIGNED_FRACTION` of them signed.

    Root-server NS names (``a.root-servers.net`` style) get in-zone glue so
    priming responses are realistic.
    """
    rng = np.random.default_rng(seed)
    zone = Zone(ROOT, signed=True)
    rsnet = Name.from_text("root-servers.net")
    for i, letter in enumerate("abcdefghijklm"):
        ns_name = rsnet.prepend(letter.encode())
        zone.add_rrset(RRset(ns_name, RRType.A, 3600000, [ARdata(0xC6290004 + i * 256)]))
        zone.add_rrset(
            RRset(ns_name, RRType.AAAA, 3600000, [AAAARdata((0x2001 << 112) | (0x503 << 96) | i)])
        )
    for tld in DEFAULT_TLDS:
        child = ROOT.prepend(tld.encode())
        secure = bool(rng.random() < ROOT_SIGNED_FRACTION)
        ns1 = Name.from_text(f"ns1.nic.{tld}")
        ns2 = Name.from_text(f"ns2.nic.{tld}")
        zone.add_delegation(child, [ns1, ns2], secure=secure)
    return zone


def domains_of(zone: Zone) -> List[Name]:
    """All delegated (registered) domains of a registry zone, sorted for
    deterministic indexing by the popularity sampler."""
    return sorted(zone.delegation_names, key=Name.canonical_key)
