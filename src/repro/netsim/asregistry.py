"""Autonomous-system registry: AS numbers, announced prefixes, and operators.

The paper attributes DNS queries to operators via the origin AS of the source
address (Table 1 lists the 20 cloud-provider ASes).  This module provides the
registry that the simulator populates (real CP ASes plus a synthetic
background population) and that the analysis side queries for attribution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional

from .addresses import IPAddress, Prefix
from .prefixtrie import PrefixTrie


@dataclass(frozen=True)
class ASInfo:
    """Static facts about one autonomous system."""

    asn: int
    name: str
    operator: str
    country: str = "ZZ"

    def __str__(self) -> str:
        return f"AS{self.asn} ({self.name})"


class ASRegistry:
    """Mutable registry of ASes and their announced prefixes.

    Provides the two lookups the pipeline needs:

    * ``origin(address)`` — longest-prefix match to the announcing AS, and
    * ``operator_of(asn)`` — AS to operator (company) mapping.
    """

    def __init__(self):
        self._ases: Dict[int, ASInfo] = {}
        self._trie: PrefixTrie[int] = PrefixTrie()
        self._announcements: Dict[int, List[Prefix]] = {}

    # -- registration --------------------------------------------------------

    def register(self, info: ASInfo) -> None:
        """Register an AS.  Re-registering the same ASN must agree."""
        existing = self._ases.get(info.asn)
        if existing is not None and existing != info:
            raise ValueError(f"AS{info.asn} already registered as {existing}")
        self._ases[info.asn] = info

    def announce(self, asn: int, prefix: Prefix) -> None:
        """Record that ``asn`` originates ``prefix``."""
        if asn not in self._ases:
            raise KeyError(f"AS{asn} not registered")
        self._trie.insert(prefix, asn)
        self._announcements.setdefault(asn, []).append(prefix)

    # -- lookups --------------------------------------------------------------

    def origin(self, address: IPAddress) -> Optional[int]:
        """The ASN originating the covering prefix, or None if unrouted."""
        return self._trie.lookup_value(address)

    def info(self, asn: int) -> ASInfo:
        return self._ases[asn]

    def operator_of(self, asn: int) -> Optional[str]:
        info = self._ases.get(asn)
        return None if info is None else info.operator

    def country_of(self, asn: int) -> Optional[str]:
        """Registered country of the AS, or None when unknown."""
        info = self._ases.get(asn)
        return None if info is None else info.country

    def announcements(self, asn: int) -> List[Prefix]:
        return list(self._announcements.get(asn, []))

    def ases(self) -> Iterator[ASInfo]:
        return iter(self._ases.values())

    def asns_for_operator(self, operator: str) -> List[int]:
        return sorted(
            info.asn for info in self._ases.values() if info.operator == operator
        )

    def __len__(self) -> int:
        return len(self._ases)

    def __contains__(self, asn: int) -> bool:
        return asn in self._ases
