"""End-to-end dataset simulation driver."""

from .driver import (
    AuthorityWorld,
    DatasetRun,
    SimEnvironment,
    borrowed_environment,
    build_authority_world,
    build_environment,
    member_query_counts,
    run_dataset,
    run_member_range,
    simulate_shard,
)
from .worlds import forget_worlds

__all__ = [
    "AuthorityWorld",
    "DatasetRun",
    "SimEnvironment",
    "borrowed_environment",
    "build_authority_world",
    "build_environment",
    "forget_worlds",
    "member_query_counts",
    "run_dataset",
    "run_member_range",
    "simulate_shard",
]
