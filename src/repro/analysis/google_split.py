"""Google Public DNS vs rest-of-Google split (paper Tables 4 and 7).

The paper separates Google's queries using the FAQ-advertised egress ranges
of Google Public DNS: traffic from those prefixes is "Pub. DNS", the rest
is corporate/cloud infrastructure.  Resolver counts use distinct source
addresses.  :class:`~repro.analysis.streaming.GoogleSplitAggregator`
does the counting; this module holds its result type and the prefix
index.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Tuple

from ..netsim import Prefix, PrefixTrie


@dataclass
class GoogleSplit:
    """Table 4/7 contents for one vantage."""

    total_queries: int
    public_queries: int
    rest_queries: int
    total_resolvers: int
    public_resolvers: int
    rest_resolvers: int

    @property
    def public_query_ratio(self) -> float:
        return self.public_queries / self.total_queries if self.total_queries else 0.0

    @property
    def public_resolver_ratio(self) -> float:
        return (
            self.public_resolvers / self.total_resolvers if self.total_resolvers else 0.0
        )


@lru_cache(maxsize=4)
def build_public_dns_trie(prefixes: Tuple[str, ...]) -> PrefixTrie:
    """Index the advertised Public DNS egress ranges for membership tests
    (built once per prefix list)."""
    trie: PrefixTrie = PrefixTrie()
    for text in prefixes:
        trie.insert(Prefix.parse(text), True)
    return trie
