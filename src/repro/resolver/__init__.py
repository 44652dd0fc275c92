"""Recursive-resolver simulation: cache, behaviour profiles, and engine."""

from .cache import CacheStats, ResolverCache
from .engine import ResolverBehavior, ResolverStats, SimResolver, seed_fleet
from .network import (
    AuthorityNetwork,
    CyclicPair,
    LeafAnswer,
    SyntheticLeafAuthority,
)

__all__ = [
    "AuthorityNetwork",
    "CacheStats",
    "CyclicPair",
    "LeafAnswer",
    "ResolverBehavior",
    "ResolverCache",
    "ResolverStats",
    "SimResolver",
    "SyntheticLeafAuthority",
    "seed_fleet",
]
