"""One oracle for the live path: a fixed datagram stream through
``handle_datagram`` / ``handle_stream_query`` must reproduce one committed
digest table.

A *case* was a service configuration; one is left, ``nl``, since the
service serves ``nl-w2020`` alone.  It is driven by a stream of
:data:`DATAGRAMS` queries from the workload layer — a few truncated
(FORMERR-bound), a few sent through the TCP handler, a few 0x20-spelled, a
few for names no zone holds and for names outside the vantage zone — sent
from :data:`HOSTS` on random source ports, on a :class:`SimClock` that
steps :data:`STEP_S` per datagram.  Three columns reduce what it did: the
response octets, the ``service.*`` counters and the capture columns.
:data:`LIVE_ORACLE` holds one literal per (case, column); a mismatch names
both and prints the new digest.  Re-recording is editing that literal and
saying why in CHANGES.md.
"""

import asyncio
import hashlib
import random
import struct

import pytest

from repro.dnscore import EdnsRecord, Message, Name
from repro.netsim import SimClock
from repro.service import DnsService, LoadGenConfig, ServiceConfig
from repro.service.endpoints import peer_address
from repro.service.loadgen import build_query_stream
from repro.workload import dataset

from .helpers import canonical_digest, view_digest

SEED = 20201027
DATAGRAMS = 3000
STEP_S = 0.01

#: Positions (mod 50) of the datagrams the stream bends out of shape.
MALFORMED_AT = 7      #: truncated by three octets: FORMERR
TCP_AT = 29           #: sent through the TCP handler
FLIPPED_AT = (13, 41)  #: qname spelled with random 0x20 case

#: Positions (mod 50) of names the workload stream would not ask: one under
#: ``nl.`` that its zone does not hold, and names outside every vantage
#: zone (the vantage's first server answers them with its own rcode).
NAMED_AT = {
    3: "db.internal.invalid.", 23: "ads.blocked.nl.",
    33: "www.example.com.", 45: "mail.example.org.",
}

#: Sources: three v4 hosts and two v6 hosts.
HOSTS = (
    "198.51.100.7", "198.51.100.200", "203.0.113.9", "2001:db8::53",
    "2001:db8:ffff::1",
)

#: blake2b-128 per (case, column).  Re-recorded once when the live path
#: lost its forwarding edge: position 3's ``db.internal.invalid.``, which a
#: ``refused`` policy sink used to answer, now reaches the server chain
#: like any other name outside the vantage zone.  The counters re-recorded
#: once more when dispatch came to try each server once: the always-zero
#: ``service.breaker.*`` series went with the breakers, and under
#: ``flaky-server`` a storm-dropped exchange on ``nl-a`` now fails over to
#: ``nl-b`` instead of retransmitting to ``nl-a`` (its capture too).  The
#: ``root`` and ``flaky-server`` cases went when the service came to serve
#: ``nl-w2020`` alone, without a fault plan.
LIVE_ORACLE = {
    "nl": {
        "responses": "533c53ed2a37741d1182c440ee927ec2",
        "counters": "261d787cc5db5a06fdb2f49f17c5c1a1",
        "capture": "3ec882754654e86a23201e5d76c0fde7",
    },
}


class _Sink:
    """Stands in for the UDP transport: keeps the last datagram sent."""

    def __init__(self):
        self.sent = None

    def sendto(self, data, addr):
        self.sent = data


def _flip(name, rng):
    labels = tuple(
        bytes(b ^ 0x20 if chr(b).isalpha() and rng.random() < 0.5 else b for b in label)
        for label in name.labels
    )
    return Name(labels)


def stream():
    """``(wire, (host, port), tcp)`` per datagram, the same for every run."""
    rng = random.Random(SEED)
    edns = EdnsRecord(udp_payload_size=1232)
    queries = build_query_stream(LoadGenConfig(queries=DATAGRAMS, seed=SEED))
    out = []
    for index, (qname, qtype) in enumerate(queries):
        position = index % 50
        if position in NAMED_AT:
            qname = Name.from_text(NAMED_AT[position])
        if position in FLIPPED_AT:
            qname = _flip(qname, rng)
        wire = Message.make_query(qname, qtype, msg_id=index % 65536, edns=edns).to_wire()
        if position == MALFORMED_AT:
            wire = wire[:-3]
        peer = (rng.choice(HOSTS), rng.randrange(1024, 65536))
        out.append((wire, peer, position == TCP_AT))
    return out


def service_counters(service):
    return {
        key: value for key, value in service.snapshot().counters.items()
        if key.startswith("service.")
    }


def drive():
    """Run the stream once; its columns."""
    loop = asyncio.new_event_loop()
    clock = SimClock(now=dataset("nl-w2020").start)
    service = DnsService(ServiceConfig(), clock=clock)
    loop.run_until_complete(service.start())
    try:
        hashed = hashlib.blake2b(digest_size=16)
        sink = _Sink()
        for wire, peer, tcp in stream():
            clock.advance(STEP_S)
            if tcp:
                response = service.handle_stream_query(wire, peer_address(peer))
            else:
                sink.sent = None
                service.handle_datagram(sink, wire, peer)
                response = sink.sent
            if response is None:
                hashed.update(b"\xff\xff")
            else:
                hashed.update(struct.pack("!H", len(response)) + response)
        columns = {
            "responses": hashed.hexdigest(),
            "counters": canonical_digest(service_counters(service)),
            "capture": view_digest(service.world.capture.view()),
        }
    finally:
        loop.run_until_complete(service.stop())
        loop.close()
    return columns


@pytest.mark.parametrize("case", list(LIVE_ORACLE))
def test_case_reproduces_the_table(case):
    columns = drive()
    expected = LIVE_ORACLE[case]
    wrong = [
        f"{case} / {column}: got {value!r}, the table holds {expected[column]!r}"
        for column, value in columns.items() if value != expected[column]
    ]
    assert not wrong, "\n".join(wrong)

