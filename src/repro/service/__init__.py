"""Live service mode: real sockets in front of the simulated DNS world.

``repro serve`` binds asyncio UDP/TCP endpoints that speak actual DNS wire
format (answerable with ``dig``/``dnsperf``), answers each query from the
vantage's server chain — the same authoritative servers the simulation
uses, RRL, fault plans and plan cache all live; each query tries
each server once, in order, and an exhausted chain is silence over UDP
and SERVFAIL over TCP — and exposes the telemetry registry as a
Prometheus ``/metrics`` endpoint.
``repro loadgen`` replays workload-layer query streams against it.
"""

from .app import (
    LIVE_CAPTURE_WINDOW,
    DnsService,
    ServiceConfig,
)
from .dispatch import LIVE_TCP_RTT_MS, QueryDispatcher
from .endpoints import (
    TCP_MAX_QUERY,
    UdpEndpoint,
    classify_datagram,
    formerr_response,
    peer_address,
)
from .loadgen import (
    LoadGenConfig,
    LoadReport,
    build_query_stream,
    run_loadgen,
    run_loadgen_sync,
)

__all__ = [
    "LIVE_CAPTURE_WINDOW",
    "DnsService",
    "ServiceConfig",
    "LIVE_TCP_RTT_MS",
    "QueryDispatcher",
    "TCP_MAX_QUERY",
    "UdpEndpoint",
    "classify_datagram",
    "formerr_response",
    "peer_address",
    "LoadGenConfig",
    "LoadReport",
    "build_query_stream",
    "run_loadgen",
    "run_loadgen_sync",
]
