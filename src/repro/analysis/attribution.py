"""Query attribution: source address → origin AS → operator.

This is the paper's core methodology (section 4): every captured query is
attributed to the autonomous system announcing the covering prefix of its
source address, and ASes are grouped into operators using the Table 1 list.
Everything downstream (traffic shares, per-provider behaviour) builds on
the labels produced here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..capture import CaptureView, join_address
from ..netsim import ASRegistry

#: Label used for traffic whose AS is not one of the five providers.
OTHER = "Other"

#: Label for unrouted source addresses (no covering prefix).
UNKNOWN = "Unknown"

#: ISO-3166-ish code for traffic whose country cannot be attributed
#: (unrouted addresses, or registry entries without country metadata).
NO_COUNTRY = "ZZ"


def factorize(values: np.ndarray) -> Tuple[List[str], np.ndarray]:
    """A string column as its distinct values, in first-seen order, and
    each row's index into them."""
    values = values.tolist()
    index = {value: code for code, value in enumerate(dict.fromkeys(values))}
    return list(index), np.array([index[value] for value in values], dtype=np.intp)


@dataclass
class AttributionResult:
    """Per-row labels plus the lookup tables used to produce them."""

    providers: np.ndarray   #: object array: provider name / OTHER / UNKNOWN
    asns: np.ndarray        #: int64 array: origin ASN (0 = unrouted)
    #: object array: registry country of the origin AS (NO_COUNTRY when
    #: unrouted).
    countries: np.ndarray
    _factorized: Dict[str, Tuple[List[str], np.ndarray]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def provider_mask(self, provider: str) -> np.ndarray:
        return self.providers == provider

    def codes(self, column: str, rows) -> Tuple[List[str], np.ndarray]:
        """The ``providers`` or ``countries`` column under ``rows``, as
        :func:`factorize` gives it: factorised once per result, however
        many tables key by it."""
        factorized = self._factorized.get(column)
        if factorized is None:
            factorized = self._factorized[column] = factorize(getattr(self, column))
        strings, codes = factorized
        return strings, codes[rows]


class Attributor:
    """Caches per-address lookups over a registry.

    Captures contain the same sources many times, so :meth:`attribute`
    looks each distinct source of a view up once and fans the labels out
    to its rows; the address→AS lookups themselves are memoised across
    views, so each source costs one trie walk per attributor.
    """

    def __init__(self, registry: ASRegistry, cloud_providers: Sequence[str]):
        self.registry = registry
        self.cloud_providers = tuple(cloud_providers)
        self._address_cache: Dict[Tuple[int, int, int], Tuple[int, str, str]] = {}

    def _lookup(self, family: int, hi: int, lo: int) -> Tuple[int, str, str]:
        key = (family, hi, lo)
        hit = self._address_cache.get(key)
        if hit is not None:
            return hit
        address = join_address(family, hi, lo)
        asn = self.registry.origin(address)
        if asn is None:
            result = (0, UNKNOWN, NO_COUNTRY)
        else:
            operator = self.registry.operator_of(asn)
            label = operator if operator in self.cloud_providers else OTHER
            country = self.registry.country_of(asn) or NO_COUNTRY
            result = (asn, label, country)
        self._address_cache[key] = result
        return result

    def attribute(self, view: CaptureView) -> AttributionResult:
        """Label every row of a capture view: one :meth:`_lookup` per
        distinct source, fanned out to its rows."""
        keys = list(zip(view.family.tolist(), view.src_hi.tolist(), view.src_lo.tolist()))
        distinct = dict.fromkeys(keys)
        for position, key in enumerate(distinct):
            distinct[key] = position
        inverse = np.array([distinct[key] for key in keys], dtype=np.intp)
        lookup = self._lookup
        asns, providers, countries = (
            zip(*[lookup(*key) for key in distinct]) if distinct else ((), (), ())
        )
        return AttributionResult(
            providers=np.array(providers, dtype=object)[inverse],
            asns=np.array(asns, dtype=np.int64)[inverse],
            countries=np.array(countries, dtype=object)[inverse],
        )
