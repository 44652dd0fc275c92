"""One oracle for the live path: a fixed datagram stream through
``handle_datagram`` / ``handle_stream_query`` must reproduce one committed
digest table.

A *case* (:data:`CASES`) is a service configuration.  Each case is driven
by the same kind of stream — :data:`DATAGRAMS` queries from the workload
layer, a few truncated (FORMERR-bound), a few sent through the TCP
handler, a few 0x20-spelled, a few for the policy-sink suffixes and for
names outside the vantage zone — sent
from :data:`HOSTS` on random source ports, on a :class:`SimClock` that
steps :data:`STEP_S` per datagram.  Three columns reduce what it did: the
response octets, the ``service.*`` counters and the capture columns.
:data:`LIVE_ORACLE` holds one literal per (case, column); a mismatch names
both and prints the new digest.  Re-recording is editing that literal and
saying why in CHANGES.md.
"""

import asyncio
import functools
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

from .helpers import HAND_BUILT, canonical_digest, view_digest

SEED = 20201027
DATAGRAMS = 3000
STEP_S = 0.01

#: Positions (mod 50) of the datagrams the stream bends out of shape.
MALFORMED_AT = 7      #: truncated by three octets: FORMERR
TCP_AT = 29           #: sent through the TCP handler
FLIPPED_AT = (13, 41)  #: qname spelled with random 0x20 case

#: Positions (mod 50) of names the workload stream would not ask: the
#: policy-sink suffixes, and names outside every vantage zone (the
#: fallback tier's, and the resolver frontend's, traffic).
NAMED_AT = {
    3: "db.internal.invalid.", 23: "ads.blocked.nl.",
    33: "www.example.com.", 45: "mail.example.org.",
}

#: Sources: two v4 hosts inside one :data:`HAND_BUILT` group's prefix, one
#: v4 host outside every group, two v6 hosts.
HOSTS = (
    "198.51.100.7", "198.51.100.200", "203.0.113.9", "2001:db8::53",
    "2001:db8:ffff::1",
)

CASES = {
    "nl": dict(dataset_id="nl-w2020"),
    "root": dict(dataset_id="root-2020"),
    "resolver": dict(dataset_id="nl-w2020", resolver_frontend=True),
    "flaky-server": dict(dataset_id="nl-w2020", chaos="flaky-server", chaos_seed=11),
    "hand-built": dict(dataset_id="nl-w2020", topology=HAND_BUILT),
}

#: blake2b-128 per (case, column), recorded at commit c804511, before the
#: live path was compiled into route tables.
LIVE_ORACLE = {
    "nl": {
        "responses": "7e9f3f268025ae0cf6b3d3f2e6125577",
        "counters": "7e6ef351055b34b0e6cc360664632568",
        "capture": "b829c4eee5e8403a66be0f7c0d0dca0f",
    },
    "root": {
        "responses": "82fda3559b8a4a99a1a094d4824a133c",
        "counters": "fe2d0f07dfac3e3dc16ecbf40365e1fe",
        "capture": "0540c6b48e0a680649ce962f2b0804aa",
    },
    "resolver": {
        "responses": "2c45e02729c325558695e060445d7147",
        "counters": "1540a955612cc8f6970d8fbc63220b1c",
        "capture": "56b1b276483e9dc07ef0c6714ed71ecc",
    },
    "flaky-server": {
        "responses": "7e9f3f268025ae0cf6b3d3f2e6125577",
        "counters": "0897ffeb547a692eafd16c06cfd84292",
        "capture": "9a8375eacaef3a07aad679e402ec5744",
    },
    "hand-built": {
        "responses": "d44876a854c66c4c94eb1edec32b0869",
        "counters": "77c1d7afaa2f8e19426be9ac2e9683f3",
        "capture": "332c40a04725fb3adbc50488129a8475",
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


def stream(dataset_id):
    """``(wire, (host, port), tcp)`` per datagram, the same for every run."""
    rng = random.Random(SEED)
    edns = EdnsRecord(udp_payload_size=1232)
    queries = build_query_stream(
        LoadGenConfig(dataset_id=dataset_id, queries=DATAGRAMS, seed=SEED)
    )
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


@functools.lru_cache(maxsize=None)
def drive(case):
    """Run ``case`` once; its columns and its ``service.*`` counters."""
    loop = asyncio.new_event_loop()
    clock = SimClock(now=dataset(CASES[case]["dataset_id"]).start)
    service = DnsService(
        ServiceConfig(
            udp_port=0, metrics_port=None, watchdog_interval_s=0, seed=SEED,
            **CASES[case],
        ),
        clock=clock,
    )
    loop.run_until_complete(service.start())
    try:
        hashed = hashlib.blake2b(digest_size=16)
        sink = _Sink()
        for wire, peer, tcp in stream(CASES[case]["dataset_id"]):
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
        counters = service_counters(service)
        columns = {
            "responses": hashed.hexdigest(),
            "counters": canonical_digest(counters),
            "capture": view_digest(service.world.capture.view()),
        }
    finally:
        loop.run_until_complete(service.stop())
        loop.close()
    return columns, counters


@pytest.mark.parametrize("case", list(CASES))
def test_case_reproduces_the_table(case):
    columns, _ = drive(case)
    expected = LIVE_ORACLE[case]
    wrong = [
        f"{case} / {column}: got {value!r}, the table holds {expected[column]!r}"
        for column, value in columns.items() if value != expected[column]
    ]
    assert not wrong, "\n".join(wrong)


def test_the_chaos_case_degrades():
    """The flaky-server case reaches the resilience rules, not only the
    fair-weather path."""
    _, counters = drive("flaky-server")
    engaged = {
        key: value for key, value in counters.items()
        if key.startswith((
            "service.retry.retransmits", "service.deadline.exhausted",
            "service.breaker.short_circuit",
        ))
    }
    assert sum(engaged.values()) > 0, counters


def test_the_hand_built_case_takes_every_route():
    _, counters = drive("hand-built")
    assert counters["service.policy_sink{sink=refused}"] > 0
    assert counters["service.policy_sink{sink=nxdomain}"] > 0
    assert counters["service.queries{transport=tcp}"] > 0
    assert counters["service.formerr"] > 0
