"""Fuzzing the untrusted-input path: random bytes from socket to server.

Satellite of the live service mode: the UDP endpoint must classify every
possible datagram deterministically (ignore / FORMERR / query), the wire
codec must raise nothing but :class:`~repro.dnscore.WireDecodeError`, and
queries that *do* decode must dispatch through the live world without an
uncaught exception — whatever bytes a hostile client sends.  A service
answering from its decode memo must treat a near miss of a memoised body
exactly as a cold decode does.
"""

import asyncio
import dataclasses
import struct

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.capture import Transport
from repro.dnscore import EdnsRecord, Message, Name, RRType, WireDecodeError
from repro.dnscore.message import HEADER_LENGTH
from repro.netsim import IPAddress, SimClock
from repro.service import (
    DnsService,
    QueryDispatcher,
    ServiceConfig,
    classify_datagram,
    default_topology,
)
from repro.sim import build_authority_world
from repro.telemetry import MetricsRegistry
from repro.workload import dataset

CLIENT = IPAddress.parse("203.0.113.7")

raw_datagrams = st.binary(min_size=0, max_size=300)


def _valid_query_wire() -> bytes:
    return Message.make_query(
        Name.from_text("www.example.nl"), RRType.A, msg_id=0x0102
    ).to_wire()


mutations = st.lists(
    st.tuples(st.integers(min_value=0, max_value=10_000),
              st.integers(min_value=0, max_value=255)),
    min_size=1,
    max_size=8,
)


@pytest.fixture(scope="module")
def fuzz_dispatcher():
    descriptor = dataset("nl-w2020")
    world = build_authority_world(descriptor, 20201027, MetricsRegistry())
    return QueryDispatcher(
        default_topology(descriptor.vantage),
        world.server_sets,
        SimClock(now=descriptor.start),
        network=world.network,
    )


#: Queries the warm service has decoded before the fuzzing starts.
MEMOISED = [
    Message.make_query(
        Name.from_text(text), rrtype, msg_id=index, edns=edns
    ).to_wire()
    for index, (text, rrtype, edns) in enumerate((
        ("www.example.nl", RRType.A, None),
        ("nl", RRType.NS, EdnsRecord(1232, True)),
        ("no-such-name-zzz.nl", RRType.AAAA, EdnsRecord(512)),
        ("db.internal.invalid", RRType.TXT, EdnsRecord(4096)),
        ("example.com", RRType.MX, None),
    ))
]


class _Sink:
    def __init__(self):
        self.sent = None

    def sendto(self, data, addr):
        self.sent = data


def _answer(service, wire, tcp):
    if tcp:
        return service.handle_stream_query(wire, CLIENT)
    sink = _Sink()
    service.handle_datagram(sink, wire, ("198.51.100.7", 53))
    return sink.sent


@pytest.fixture(scope="module")
def memo_twins():
    """Two live services on one clock, their memos warmed with
    :data:`MEMOISED`; the second is cleared before every datagram."""
    loop = asyncio.new_event_loop()
    clock = SimClock(now=dataset("nl-w2020").start)
    config = ServiceConfig(udp_port=0, metrics_port=None, watchdog_interval_s=0)
    twins = (DnsService(config, clock=clock), DnsService(config, clock=clock))
    for service in twins:
        loop.run_until_complete(service.start())
    for wire in MEMOISED:
        for service in twins:
            service.handle_datagram(_Sink(), wire, ("198.51.100.7", 53))
    assert all(wire[2:] in twins[0]._decoded for wire in MEMOISED)
    yield twins
    for service in twins:
        loop.run_until_complete(service.stop())
    loop.close()


@given(wire=raw_datagrams)
def test_from_wire_raises_only_wire_decode_error(wire):
    try:
        Message.from_wire(wire)
    except WireDecodeError:
        pass


@given(wire=raw_datagrams)
def test_classify_is_total_and_deterministic(wire):
    kind, payload = classify_datagram(wire)
    assert kind in ("query", "formerr", "ignore")
    if len(wire) < HEADER_LENGTH:
        assert (kind, payload) == ("ignore", "short")
    elif struct.unpack_from("!H", wire, 2)[0] & 0x8000:
        assert (kind, payload) == ("ignore", "response")
    if kind == "formerr":
        assert payload == struct.unpack_from("!H", wire, 0)[0]
    if kind == "query":
        assert payload.msg_id == struct.unpack_from("!H", wire, 0)[0]
    # Deterministic: same bytes, same verdict.
    again_kind, again_payload = classify_datagram(wire)
    assert again_kind == kind
    if kind != "query":
        assert again_payload == payload


@given(muts=mutations)
@settings(suppress_health_check=[HealthCheck.function_scoped_fixture],
          deadline=None)
def test_mutated_queries_never_crash_dispatch(fuzz_dispatcher, muts):
    wire = bytearray(_valid_query_wire())
    for offset, value in muts:
        wire[offset % len(wire)] = value
    kind, payload = classify_datagram(bytes(wire))
    assert kind in ("query", "formerr", "ignore")
    if kind == "query":
        response = fuzz_dispatcher.dispatch(CLIENT, Transport.UDP, payload)
        # Silence is legal; an answer must be a well-formed wire message.
        if response is not None:
            Message.from_wire(response.to_wire(max_size=65535))


@given(wire=raw_datagrams)
@settings(suppress_health_check=[HealthCheck.function_scoped_fixture],
          deadline=None)
def test_random_datagrams_never_crash_dispatch(fuzz_dispatcher, wire):
    kind, payload = classify_datagram(wire)
    if kind == "query":
        fuzz_dispatcher.dispatch(CLIENT, Transport.UDP, payload)


def test_forward_pointer_loop_rejected():
    # A name whose compression pointer points at (or past) itself must be
    # rejected as FORMERR, not spin or recurse: header + qd=1, then a
    # pointer to the question's own offset.
    wire = (
        b"\x00\x01\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00"
        + b"\xc0\x0c"  # pointer to itself (offset 12)
        + b"\x00\x01\x00\x01"
    )
    with pytest.raises(WireDecodeError):
        Message.from_wire(wire)
    assert classify_datagram(wire)[0] == "formerr"


@given(
    base=st.sampled_from(MEMOISED),
    msg_id=st.integers(0, 65535),
    muts=st.lists(
        st.tuples(st.integers(2, 10_000), st.integers(0, 255)), max_size=4
    ),
    cut=st.integers(0, 80),
    tcp=st.booleans(),
)
@settings(suppress_health_check=[HealthCheck.function_scoped_fixture],
          deadline=None, max_examples=300)
def test_memoised_bodies_flipped_or_cut_answer_as_cold(
    memo_twins, base, msg_id, muts, cut, tcp
):
    """Near misses of a memoised body: any id, octets after the id
    flipped, the tail cut off.  The warm service classifies and answers
    each exactly as its cold twin does, and the memo holds only queries."""
    warm, cold = memo_twins
    wire = bytearray(struct.pack("!H", msg_id) + base[2:])
    for offset, value in muts:
        wire[2 + offset % (len(wire) - 2)] = value
    wire = bytes(wire[: len(wire) - cut % len(wire)])
    kind, payload = classify_datagram(wire)
    got_kind, got_payload, _ = warm._decode(wire)
    assert got_kind == kind
    if kind == "query":
        assert dataclasses.replace(got_payload, msg_id=msg_id) == payload
    else:
        assert got_payload == payload
        assert wire[2:] not in warm._decoded
    cold._decoded.clear()
    assert _answer(warm, wire, tcp) == _answer(cold, wire, tcp)
    assert all(entry[0] == "query" for entry in warm._decoded.values())
