"""Authoritative server simulation with anycast, RRL, and capture taps."""

from .authoritative import (
    AuthoritativeServer,
    ResponsePlan,
    ServerSet,
    ServerStats,
    TCP_MAX_SIZE,
)
from .rrl import RateLimiter, RRLConfig

__all__ = [
    "AuthoritativeServer",
    "RateLimiter",
    "ResponsePlan",
    "RRLConfig",
    "ServerSet",
    "ServerStats",
    "TCP_MAX_SIZE",
]
