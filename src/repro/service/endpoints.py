"""The live service's UDP endpoint and its datagram classification.

The classification policy lives here as a pure function
(:func:`classify_datagram`) so the fuzz tests can drive it without opening
sockets.  Policy for untrusted input:

* fewer than 12 readable header bytes → **ignore** (nothing sane to echo);
* QR bit set → **ignore** (never answer a response — reflection/loop guard);
* decodes as a message → **query**, handed to the dispatcher;
* anything else (:class:`~repro.dnscore.WireDecodeError` from the codec)
  → **FORMERR**, echoing the client's message id, per RFC 1035 — the
  endpoint answers garbage, it never crashes on it.
"""

from __future__ import annotations

import asyncio
import struct
from typing import Optional, Tuple, Union

from ..dnscore import Flags, Message, RCode, WireDecodeError
from ..dnscore.message import HEADER_LENGTH
from ..netsim import IPAddress

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
