"""Live service mode: the simulated DNS world behind one UDP socket.

:class:`DnsService` answers DNS wire format — datagrams and TCP-framed
messages handed to it — for ``nl-w2020``'s authority world, from the
vantage's first server, with the response-plan cache and the capture tap
live.  It is what the benchmark's ``serve_wire`` workload drives; no
report, table or claim reads it.  :func:`build_query_stream` draws that
workload's queries from the workload layer.
"""

from .app import DnsService, ServiceConfig
from .dispatch import QueryDispatcher
from .endpoints import classify_datagram, formerr_response, peer_address
from .loadgen import LoadGenConfig, build_query_stream

__all__ = [
    "DnsService",
    "ServiceConfig",
    "QueryDispatcher",
    "classify_datagram",
    "formerr_response",
    "peer_address",
    "LoadGenConfig",
    "build_query_stream",
]
