"""End-to-end dataset simulation driver."""

from .driver import (
    AuthorityWorld,
    DatasetRun,
    SimEnvironment,
    build_authority_world,
    build_environment,
    build_vantage_zone,
    member_query_counts,
    run_dataset,
    run_member_range,
    simulate_shard,
)

__all__ = [
    "AuthorityWorld",
    "DatasetRun",
    "SimEnvironment",
    "build_authority_world",
    "build_environment",
    "build_vantage_zone",
    "member_query_counts",
    "run_dataset",
    "run_member_range",
    "simulate_shard",
]
