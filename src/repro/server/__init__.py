"""Authoritative server simulation with anycast and capture taps."""

from .authoritative import (
    AuthoritativeServer,
    ResponsePlan,
    ServerSet,
    ServerStats,
    TCP_MAX_SIZE,
)

__all__ = [
    "AuthoritativeServer",
    "ResponsePlan",
    "ServerSet",
    "ServerStats",
    "TCP_MAX_SIZE",
]
