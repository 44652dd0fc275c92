"""Socket endpoints for ``repro serve``: UDP, TCP, and the metrics HTTP.

The datagram-classification policy lives here as a pure function
(:func:`classify_datagram`) so the fuzz tests can drive it without opening
sockets.  Policy for untrusted input:

* fewer than 12 readable header bytes → **ignore** (nothing sane to echo);
* QR bit set → **ignore** (never answer a response — reflection/loop guard);
* decodes as a message → **query**, handed to the dispatcher;
* anything else (:class:`~repro.dnscore.WireDecodeError` from the codec)
  → **FORMERR**, echoing the client's message id, per RFC 1035 — the
  endpoint answers garbage, it never crashes on it.

TCP frames messages with the RFC 1035 section 4.2.2 two-octet length
prefix.  The metrics endpoint speaks just enough HTTP/1.0 for a Prometheus
scrape of ``/metrics`` (plus ``/healthz`` for liveness probes).
"""

from __future__ import annotations

import asyncio
import struct
from typing import Optional, Tuple, Union

from ..dnscore import Flags, Message, RCode, WireDecodeError
from ..dnscore.message import HEADER_LENGTH
from ..netsim import IPAddress
from ..telemetry import PROMETHEUS_CONTENT_TYPE

#: Largest TCP-framed message we accept from a client.
TCP_MAX_QUERY = 65535

#: Slow-loris guards on the TCP DNS endpoint: the most seconds a client may
#: idle between frames, and the most it may take to deliver a started frame
#: (half a length prefix counts as a started frame).
TCP_IDLE_TIMEOUT_S = 30.0
TCP_FRAME_TIMEOUT_S = 10.0

#: The most seconds a metrics client may take to send its whole request
#: head (request line and headers).
METRICS_HEAD_TIMEOUT_S = 5.0

#: Hard cap on a FORMERR reply (always fits any UDP path).
_FORMERR_MAX = 512


def classify_datagram(
    wire: bytes,
) -> Tuple[str, Union[Message, int, str]]:
    """Classify one untrusted datagram.

    Returns one of ``("query", Message)``, ``("formerr", msg_id)``, or
    ``("ignore", reason)``.  Total: every byte string lands in exactly one
    bucket, deterministically, and nothing raises.
    """
    if len(wire) < HEADER_LENGTH:
        return ("ignore", "short")
    (msg_id, flag_word) = struct.unpack_from("!HH", wire, 0)
    if flag_word & 0x8000:
        return ("ignore", "response")
    try:
        message = Message.from_wire(wire)
    except WireDecodeError:
        return ("formerr", msg_id)
    return ("query", message)


def formerr_response(msg_id: int) -> bytes:
    """Header-only FORMERR echoing the client's message id."""
    reply = Message(msg_id=msg_id, flags=Flags(qr=True, rcode=RCode.FORMERR))
    return reply.to_wire(max_size=_FORMERR_MAX)


def peer_address(addr) -> Optional[IPAddress]:
    """The :class:`~repro.netsim.IPAddress` of an asyncio peer tuple.

    Handles both the 2-tuple (IPv4) and 4-tuple (IPv6) shapes, stripping
    any ``%scope`` suffix.  Returns ``None`` for unparseable peers (e.g.
    exotic socket families) so callers can drop rather than crash.
    """
    host = addr[0].split("%", 1)[0]
    try:
        return IPAddress.parse(host)
    except ValueError:
        return None


class UdpEndpoint(asyncio.DatagramProtocol):
    """One bound UDP socket feeding the service's datagram handler."""

    def __init__(self, service):
        self._service = service
        self.transport: Optional[asyncio.DatagramTransport] = None

    def connection_made(self, transport) -> None:
        self.transport = transport

    def datagram_received(self, data: bytes, addr) -> None:
        # Dispatch runs synchronously on the event loop: per-query work is
        # sub-millisecond (plan cache) and inline handling keeps responses
        # in arrival order with nothing in flight to drain at shutdown.
        self._service.handle_datagram(self.transport, data, addr)

    def error_received(self, exc) -> None:  # pragma: no cover - OS-dependent
        self._service.note_udp_error(exc)


async def serve_tcp_connection(service, reader, writer, src) -> None:
    """Handle one TCP client: length-prefixed queries until EOF.

    Connections are long-lived (a client may pipeline many queries); a
    malformed frame poisons the stream, so after answering FORMERR the
    connection is closed.

    Two slow-loris guards bound how long one socket can be pinned: a
    client may idle at most :data:`TCP_IDLE_TIMEOUT_S` between frames, and
    a *started* frame (half a length prefix counts) must complete within
    :data:`TCP_FRAME_TIMEOUT_S`.  Either timeout closes the connection and
    counts ``service.tcp_idle_timeouts``.
    """
    try:
        while True:
            try:
                # Waiting for a frame to *start* is idle time; once the
                # first prefix byte lands the frame clock is running.
                first = await asyncio.wait_for(
                    reader.readexactly(1), TCP_IDLE_TIMEOUT_S
                )
            except asyncio.TimeoutError:
                service.metrics.counter(
                    "service.tcp_idle_timeouts", phase="idle"
                ).inc()
                return
            except (asyncio.IncompleteReadError, ConnectionResetError):
                return
            try:
                rest = await asyncio.wait_for(
                    reader.readexactly(1), TCP_FRAME_TIMEOUT_S
                )
            except asyncio.TimeoutError:
                service.metrics.counter(
                    "service.tcp_idle_timeouts", phase="frame"
                ).inc()
                return
            except (asyncio.IncompleteReadError, ConnectionResetError):
                return
            (length,) = struct.unpack("!H", first + rest)
            if length == 0:
                return
            try:
                frame = await asyncio.wait_for(
                    reader.readexactly(length), TCP_FRAME_TIMEOUT_S
                )
            except asyncio.TimeoutError:
                service.metrics.counter(
                    "service.tcp_idle_timeouts", phase="frame"
                ).inc()
                return
            except (asyncio.IncompleteReadError, ConnectionResetError):
                return
            wire = service.handle_stream_query(frame, src)
            if wire is None:
                # Unanswerable frame (e.g. a response packet): drop the
                # connection rather than stall the client.
                return
            writer.write(struct.pack("!H", len(wire)) + wire)
            await writer.drain()
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
            pass


async def _request_line(reader) -> bytes:
    """Read a request head; return its first line (the headers are read
    up to the blank line and dropped)."""
    request = line = await reader.readline()
    while line not in (b"\r\n", b"\n", b""):
        line = await reader.readline()
    return request


async def serve_metrics_connection(service, reader, writer) -> None:
    """Minimal HTTP/1.0 for Prometheus scrapes: GET /metrics, /healthz.

    The request head must arrive within :data:`METRICS_HEAD_TIMEOUT_S`, or
    the connection is closed unanswered; a line longer than the stream
    reader's limit is answered ``400``."""
    try:
        try:
            request = await asyncio.wait_for(
                _request_line(reader), METRICS_HEAD_TIMEOUT_S
            )
        except asyncio.TimeoutError:
            return
        except ValueError:  # a line past the reader's limit
            body, status, ctype = b"bad request\n", "400 Bad Request", "text/plain"
        else:
            parts = request.decode("ascii", "replace").split()
            path = parts[1] if len(parts) >= 2 else ""
            if path == "/metrics":
                body = service.render_metrics().encode()
                status, ctype = "200 OK", PROMETHEUS_CONTENT_TYPE
            elif path == "/healthz":
                status, body = service.render_healthz()
                ctype = "text/plain"
            else:
                body, status, ctype = b"not found\n", "404 Not Found", "text/plain"
        writer.write(
            (
                f"HTTP/1.0 {status}\r\n"
                f"Content-Type: {ctype}\r\n"
                f"Content-Length: {len(body)}\r\n"
                "Connection: close\r\n\r\n"
            ).encode()
            + body
        )
        await writer.drain()
    except ConnectionResetError:  # pragma: no cover
        pass
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
            pass
