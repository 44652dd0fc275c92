"""Live service mode: dispatch, the one UDP socket, and the hot path.

The socket tests bind an ephemeral loopback port inside ``asyncio.run``
(the suite does not depend on an asyncio pytest plugin) and check that
what comes back over UDP is byte-valid DNS.  The hot-path tests drive
``handle_datagram`` / ``handle_stream_query`` directly.
"""

import asyncio
import gc
import random
import struct
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.service.app as service_app
from repro.capture import Transport
from repro.dnscore import (
    EdnsRecord,
    Flags,
    Message,
    Name,
    Opcode,
    Question,
    RCode,
    RRType,
)
from repro.netsim import IPAddress, SimClock
from repro.service import (
    DnsService,
    QueryDispatcher,
    ServiceConfig,
    classify_datagram,
    formerr_response,
)
from repro.sim import build_authority_world
from repro.telemetry import MetricsRegistry
from repro.workload import dataset

CLIENT = IPAddress.parse("127.0.0.1")


# ---------------------------------------------------------------------------
# dispatcher (no sockets)


@pytest.fixture(scope="module")
def live_world():
    descriptor = dataset("nl-w2020")
    metrics = MetricsRegistry()
    world = build_authority_world(descriptor, 20201027, metrics)
    return descriptor, world, metrics


@pytest.fixture()
def dispatcher(live_world):
    descriptor, world, _ = live_world
    clock = SimClock(now=descriptor.start)
    return QueryDispatcher(world.server_sets["nl"].by_id("nl-a"), clock)


def _query_for(world, qtype=RRType.A):
    zone = world.vantage_zone
    from repro.zones import domains_of

    qname = domains_of(zone)[0]
    return Message.make_query(qname, qtype, msg_id=4242)


class TestDispatcher:
    def test_answers_in_bailiwick_query(self, live_world, dispatcher):
        _, world, _ = live_world
        query = _query_for(world)
        response = dispatcher.dispatch(CLIENT, Transport.UDP, query)
        assert response is not None
        assert response.msg_id == 4242
        assert response.flags.qr
        assert response.rcode is RCode.NOERROR
        assert response.questions == query.questions
        # And it round-trips through the wire codec (byte-valid).
        decoded = Message.from_wire(response.to_wire(max_size=65535))
        assert decoded.msg_id == 4242

    def test_nxdomain_for_junk_name(self, dispatcher):
        query = Message.make_query(
            Name.from_text("no-such-name-zzz.nl"), RRType.A, msg_id=7
        )
        response = dispatcher.dispatch(CLIENT, Transport.UDP, query)
        assert response.rcode is RCode.NXDOMAIN

    def test_out_of_zone_name_gets_the_first_servers_rcode(
        self, live_world, dispatcher
    ):
        """A name outside the vantage zone is no special case: the
        vantage's first server answers it with its own rcode, and the
        capture tap records that one exchange."""
        _, world, _ = live_world
        capture = world.capture
        before = capture.rows_appended
        query = Message.make_query(
            Name.from_text("db.internal.invalid."), RRType.A, msg_id=9
        )
        response = dispatcher.dispatch(CLIENT, Transport.UDP, query)
        assert response.rcode is RCode.REFUSED
        assert capture.rows_appended == before + 1
        row = capture.view().record(len(capture) - 1)
        assert (row.server_id, row.qname, row.rcode) == (
            "nl-a", "db.internal.invalid.", RCode.REFUSED
        )
        assert dispatcher.server.server_id == "nl-a"

    def test_non_query_opcode_notimp(self, dispatcher):
        query = Message(
            msg_id=11,
            flags=Flags(opcode=Opcode.STATUS),
            questions=[Question(Name.from_text("example.nl"), RRType.A)],
        )
        response = dispatcher.dispatch(CLIENT, Transport.UDP, query)
        assert response.rcode is RCode.NOTIMP

    def test_question_less_query_formerr(self, dispatcher):
        query = Message(msg_id=13, flags=Flags())
        response = dispatcher.dispatch(CLIENT, Transport.UDP, query)
        assert response.rcode is RCode.FORMERR

# ---------------------------------------------------------------------------
# the one UDP socket, end to end


async def _with_service(fn):
    service = DnsService(ServiceConfig())
    await service.start()
    try:
        return await fn(service)
    finally:
        await service.stop()


class TestLiveService:
    def test_single_udp_exchange_bytes(self):
        async def scenario(service):
            loop = asyncio.get_running_loop()

            class OneShot(asyncio.DatagramProtocol):
                def __init__(self):
                    self.reply = loop.create_future()

                def connection_made(self, transport):
                    self.transport = transport

                def datagram_received(self, data, addr):
                    if not self.reply.done():
                        self.reply.set_result(data)

            transport, protocol = await loop.create_datagram_endpoint(
                OneShot, remote_addr=("127.0.0.1", service.udp_port)
            )
            try:
                query = Message.make_query(
                    Name.from_text("no-such-name-zzz.nl"), RRType.A, msg_id=99
                )
                transport.sendto(query.to_wire())
                wire = await asyncio.wait_for(protocol.reply, timeout=5.0)
            finally:
                transport.close()
            return wire

        wire = asyncio.run(_with_service(scenario))
        response = Message.from_wire(wire)
        assert response.msg_id == 99
        assert response.flags.qr
        assert response.rcode is RCode.NXDOMAIN

    def test_udp_garbage_gets_formerr(self):
        async def scenario(service):
            loop = asyncio.get_running_loop()

            class OneShot(asyncio.DatagramProtocol):
                def __init__(self):
                    self.reply = loop.create_future()

                def connection_made(self, transport):
                    self.transport = transport

                def datagram_received(self, data, addr):
                    if not self.reply.done():
                        self.reply.set_result(data)

            transport, protocol = await loop.create_datagram_endpoint(
                OneShot, remote_addr=("127.0.0.1", service.udp_port)
            )
            try:
                # Valid header claiming one question, then garbage.
                garbage = (
                    b"\x12\x34" b"\x00\x00" b"\x00\x01"
                    b"\x00\x00" b"\x00\x00" b"\x00\x00" b"\xff\xff\xff"
                )
                transport.sendto(garbage)
                wire = await asyncio.wait_for(protocol.reply, timeout=5.0)
            finally:
                transport.close()
            return wire

        wire = asyncio.run(_with_service(scenario))
        response = Message.from_wire(wire)
        assert response.msg_id == 0x1234
        assert response.rcode is RCode.FORMERR

    def test_udp_short_and_response_datagrams_ignored(self):
        async def scenario(service):
            loop = asyncio.get_running_loop()

            class Sink(asyncio.DatagramProtocol):
                def __init__(self):
                    self.replies = []

                def connection_made(self, transport):
                    self.transport = transport

                def datagram_received(self, data, addr):
                    self.replies.append(data)

            transport, protocol = await loop.create_datagram_endpoint(
                Sink, remote_addr=("127.0.0.1", service.udp_port)
            )
            try:
                transport.sendto(b"\x01\x02\x03")  # short
                # QR=1 response packet: must never be answered.
                reflected = Message(
                    msg_id=5, flags=Flags(qr=True)
                ).to_wire(max_size=512)
                transport.sendto(reflected)
                await asyncio.sleep(0.3)
            finally:
                transport.close()
            snapshot = service.snapshot()
            ignored = sum(
                value
                for key, value in snapshot.counters.items()
                if "service.ignored" in str(key)
            )
            return protocol.replies, ignored

        replies, ignored = asyncio.run(_with_service(scenario))
        assert replies == []
        assert ignored == 2

class TestRemovedSettingStubs:
    """The metrics listener and the endpoint watchdog are gone; their two
    settings accept only "off", the values the benchmark passes."""

    def test_the_benchmarks_call_builds(self):
        config = ServiceConfig(udp_port=0, metrics_port=None, watchdog_interval_s=0)
        assert (config.metrics_port, config.watchdog_interval_s) == (None, 0)

    @pytest.mark.parametrize("setting, removed", [
        ({"metrics_port": 9100}, "the metrics listener was removed"),
        ({"metrics_port": 0}, "the metrics listener was removed"),
        ({"watchdog_interval_s": 1.0}, "the endpoint watchdog was removed"),
    ])
    def test_anything_else_names_what_was_removed(self, setting, removed):
        with pytest.raises(ValueError, match=removed):
            ServiceConfig(**setting)


# ---------------------------------------------------------------------------
# classification helpers


class TestClassify:
    def test_classifies_valid_query(self):
        wire = Message.make_query(
            Name.from_text("example.nl"), RRType.A, msg_id=3
        ).to_wire()
        kind, payload = classify_datagram(wire)
        assert kind == "query"
        assert payload.msg_id == 3

    def test_short_ignored(self):
        assert classify_datagram(b"123")[0] == "ignore"

    def test_response_ignored(self):
        wire = Message(msg_id=8, flags=Flags(qr=True)).to_wire(max_size=512)
        assert classify_datagram(wire) == ("ignore", "response")

    def test_formerr_echoes_id(self):
        # Header claims one question but the question is truncated.
        garbage = b"\xab\xcd\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\xff"
        kind, msg_id = classify_datagram(garbage)
        assert kind == "formerr"
        assert msg_id == 0xABCD
        reply = Message.from_wire(formerr_response(msg_id))
        assert reply.msg_id == 0xABCD
        assert reply.rcode is RCode.FORMERR


# ---------------------------------------------------------------------------
# the live hot path: cached encodings, held counters, the capture window
#
# These drive ``handle_datagram`` / ``handle_stream_query`` directly (the
# sockets are bound but idle), so every byte and every capture row can be
# compared between two services.

_PEER = ("127.0.0.1", 5353)


class _Sink:
    """Stands in for the UDP transport: keeps the last datagram sent."""

    def __init__(self):
        self.sent = None

    def sendto(self, data, addr):
        self.sent = data


def _exchange(service, wire, tcp=False):
    """The octets ``service`` answers ``wire`` with (``None`` = nothing)."""
    if tcp:
        return service.handle_stream_query(wire, CLIENT)
    sink = _Sink()
    service.handle_datagram(sink, wire, _PEER)
    return sink.sent


def _offline_service(loop, clock=None, plan_cache=True):
    """A started service that is only ever driven in-process; without
    ``plan_cache`` every server of its world is a reference server."""
    service = DnsService(ServiceConfig(), clock=clock)
    loop.run_until_complete(service.start())
    if not plan_cache:
        for server in _servers(service):
            server._plans = None
    return service


def _servers(service):
    return [s for ss in service.world.server_sets.values() for s in ss]


def _plans(service):
    return [plan for server in _servers(service) for plan in server._plans.values()]


@pytest.fixture(scope="module")
def service_pair():
    """Two services on one injected clock: ``fast`` as shipped, and
    ``reference`` whose servers have no plan cache — every response built
    and encoded in full (the reference path)."""
    loop = asyncio.new_event_loop()
    clock = SimClock(now=dataset("nl-w2020").start)
    fast = _offline_service(loop, clock)
    reference = _offline_service(loop, clock, plan_cache=False)
    assert all(server._plans is not None for server in _servers(fast))
    assert all(server._plans is None for server in _servers(reference))
    yield fast, reference
    for service in (fast, reference):
        loop.run_until_complete(service.stop())
    loop.close()


def _flip_case(label: bytes, mask: int) -> bytes:
    return bytes(
        (b ^ 0x20) if (mask >> i) & 1 and chr(b).isalpha() else b
        for i, b in enumerate(label)
    )


def _query_wire(
    labels, qtype=1, qclass=1, msg_id=0, rd=False, edns=None, do=False,
    shape="plain", other=(b"nl",),
):
    """A hand-assembled query.  ``shape``: ``plain``; ``pointer`` — the
    qname ends in a compression pointer at a zero octet of the header
    instead of its root octet; ``none`` / ``two`` / ``two-pointer`` — no
    question, a second question for ``other``, a second question whose name
    is a pointer at the first."""
    name = b"".join(bytes([len(label)]) + label for label in labels)
    fixed = struct.pack("!HH", qtype, qclass)
    if shape == "pointer":
        questions = [name + b"\xc0\x06" + fixed]
    else:
        questions = [name + b"\x00" + fixed]
    if shape == "none":
        questions = []
    elif shape == "two":
        second = b"".join(bytes([len(label)]) + label for label in other)
        questions.append(second + b"\x00" + fixed)
    elif shape == "two-pointer":
        questions.append(b"\xc0\x0c" + fixed)
    opt = b"" if edns is None else EdnsRecord(edns, do).to_wire()
    header = struct.pack(
        "!HHHHHH", msg_id, 0x0100 if rd else 0, len(questions), 0, 0,
        0 if edns is None else 1,
    )
    return header + b"".join(questions) + opt


def _name_pool(service):
    from repro.zones import domains_of

    delegated = [name.labels for name in domains_of(service.world.vantage_zone)[:3]]
    return delegated + [
        (b"www",) + delegated[0],
        (b"ns1",) + delegated[1],
        (b"nl",),
        (b"no-such-name-zzz", b"nl"),
        (b"a", b"b", b"c", b"also-missing", b"nl"),
        (b"example", b"com"),
        (b"db", b"internal", b"invalid"),
        (),
    ]


_QTYPES = [1, 28, 2, 43, 6, 15, 16, 48, 65]

query_spec_st = st.fixed_dictionaries({
    "name": st.integers(0, 10),
    "case": st.one_of(st.just(0), st.integers(0, 2**16 - 1)),
    "qtype": st.sampled_from(_QTYPES),
    "qclass": st.sampled_from([1, 1, 1, 3]),
    "shape": st.sampled_from(
        ["plain"] * 5 + ["pointer", "pointer", "none", "two", "two-pointer"]
    ),
    "edns": st.sampled_from([None, 512, 1232, 4096]),
    "do": st.booleans(),
    "rd": st.booleans(),
    "tcp": st.sampled_from([False, False, False, True]),
    "ids": st.lists(st.integers(0, 65535), min_size=1, max_size=3),
})


def _spec_wires(pool, spec):
    labels = tuple(_flip_case(label, spec["case"]) for label in pool[spec["name"]])
    return [
        _query_wire(
            labels, spec["qtype"], spec["qclass"], msg_id, spec["rd"],
            spec["edns"], spec["do"], spec["shape"],
        )
        for msg_id in spec["ids"]
    ]


def _assert_same_exchange(fast, reference, wire, tcp=False):
    got, expected = _exchange(fast, wire, tcp), _exchange(reference, wire, tcp)
    assert got == expected, (wire.hex(), tcp)
    return got


class TestCachedEncoding:
    """A replayed plan is encoded once; afterwards the endpoint answers
    with those octets under the new id.  Whatever the traffic, the bytes on
    the wire and the rows in the capture are the reference path's."""

    def test_random_streams_match_the_uncached_service(self, service_pair):
        fast, reference = service_pair
        pool = _name_pool(fast)

        @settings(max_examples=250, derandomize=True, deadline=None)
        @given(specs=st.lists(query_spec_st, min_size=1, max_size=12))
        def stream(specs):
            marks = [len(service.world.capture) for service in service_pair]
            for spec in specs:
                for wire in _spec_wires(pool, spec):
                    _assert_same_exchange(fast, reference, wire, spec["tcp"])
            rows = [
                service.world.capture.view().to_rows()[mark:]
                for service, mark in zip(service_pair, marks)
            ]
            # By repr: a UDP row's tcp_rtt_ms is NaN, which equals nothing.
            assert repr(rows[0]) == repr(rows[1])

        before = sum(server.stats.plan_hits for server in _servers(fast))
        stream()
        # The streams did reach what they are here for: plans of every
        # qtype (the unnamed one included) replayed from cached octets.
        cached = [plan for plan in _plans(fast) if plan.wire is not None]
        assert len(cached) > 50
        assert {plan.qtype for plan in cached} >= set(_QTYPES)
        hits = sum(server.stats.plan_hits for server in _servers(fast)) - before
        assert hits > 2 * len(cached)
        assert sum(server.stats.plan_hits for server in _servers(reference)) == 0

    def test_question_spelling_guard(self, service_pair):
        """One plan, every way a query can reach it without spelling the
        question like the cached octets do."""
        fast, reference = service_pair
        labels = _name_pool(fast)[0][:-1] + (b"NL",)   # a spelling of its own
        common = dict(qtype=2, edns=1232, do=True)
        plain = lambda msg_id, **kw: _query_wire(labels, msg_id=msg_id, **common, **kw)

        _assert_same_exchange(fast, reference, plain(1))           # miss
        (plan,) = [p for p in _plans(fast) if p.qname_labels == labels]
        assert plan.wire is None                                   # never on a miss
        first = _assert_same_exchange(fast, reference, plain(2))   # replay: fill
        assert plan.wire == first
        assert plan.question_end == 12 + len(Name(labels).to_wire()) + 4
        third = _assert_same_exchange(fast, reference, plain(0xBEEF))
        assert third == b"\xbe\xef" + plan.wire[2:]
        for wire in (
            plain(3, qclass=3),
            plain(4, shape="pointer"),
            plain(5, shape="two"),
            plain(6, shape="two-pointer"),
            plain(7, qclass=3),
            plain(8),
        ):
            _assert_same_exchange(fast, reference, wire)
            assert plan.wire == first                              # first fill stays
        # The other transport is another plan with its own octets.
        for msg_id in (9, 10, 11):
            _assert_same_exchange(fast, reference, plain(msg_id), tcp=True)
        assert len([p for p in _plans(fast) if p.qname_labels == labels]) == 2

    def test_a_name_seen_once_pins_no_bytes(self, service_pair):
        fast, reference = service_pair
        labels = (b"seen-exactly-once", b"nl")
        _assert_same_exchange(fast, reference, _query_wire(labels, edns=1232))
        (plan,) = [p for p in _plans(fast) if p.qname_labels == labels]
        assert plan.wire is None and plan.question_end == 0

    def test_no_plan_no_cached_encoding(self, service_pair):
        """Question-less queries are answered locally, multi-question
        queries are never planned, and the reference service plans nothing:
        all encode in full."""
        fast, reference = service_pair
        before = len(_plans(fast))
        for msg_id in (1, 2, 3):
            _assert_same_exchange(
                fast, reference, _query_wire((b"nl",), msg_id=msg_id, shape="none")
            )
            _assert_same_exchange(
                fast, reference,
                _query_wire((b"multi", b"nl"), msg_id=msg_id, shape="two"),
            )
        assert len(_plans(fast)) == before

    def test_endpoint_truncation_is_inside_the_cached_octets(
        self, service_pair, monkeypatch
    ):
        """The cached octets are what ``to_wire(max_size=limit)`` gave.
        With the endpoint's limit forced below the server's, the first
        replay is truncated at the endpoint — TC, then without the OPT,
        then without the question — and that is what later replays send."""
        fast, reference = service_pair
        for limit, labels in (
            (60, (b"truncated-at-60", b"nl")),     # TC, question and OPT fit
            (40, (b"truncated-at-40", b"nl")),     # OPT dropped
            (20, (b"truncated-at-20", b"nl")),     # question dropped too
        ):
            monkeypatch.setattr(service_app, "effective_udp_limit", lambda edns: limit)
            answers = [
                _assert_same_exchange(
                    fast, reference, _query_wire(labels, msg_id=msg_id, edns=4096, do=True)
                )
                for msg_id in (1, 2, 3, 4)
            ]
            (plan,) = [p for p in _plans(fast) if p.qname_labels == labels]
            assert plan.wire == answers[1] and len(plan.wire) <= limit
            assert plan.wire[2] & 0x02                         # TC
            assert not plan.truncated                          # not the server's doing
            assert [a[2:] for a in answers] == [plan.wire[2:]] * 4

    def test_unnamed_qtype_is_answered_from_the_zone(self, service_pair):
        """HTTPS (65) and friends used to die in the codec and come back
        FORMERR; they get what the zone says about a type it has no data
        for, with the qtype echoed and captured as the integer."""
        fast, reference = service_pair
        pool = _name_pool(fast)
        expectations = (
            (pool[0], RCode.NOERROR, False),                  # under a cut: referral
            ((b"nl",), RCode.NOERROR, True),                  # apex: NODATA
            ((b"no-such-name-zzz", b"nl"), RCode.NXDOMAIN, True),
        )
        for qtype in (65, 64, 99):
            for labels, rcode, authoritative in expectations:
                wire = _query_wire(labels, qtype=qtype, msg_id=qtype, edns=1232)
                assert classify_datagram(wire)[0] == "query"
                for tcp in (False, True):
                    answer = Message.from_wire(
                        _assert_same_exchange(fast, reference, wire, tcp)
                    )
                    assert answer.rcode is rcode
                    assert answer.flags.aa is authoritative
                    assert not answer.answers
                    assert bool(answer.authorities)
                    assert answer.question.qtype == qtype
                    assert answer.question.qtype.to_text() == f"TYPE{qtype}"
                    row = fast.world.capture.view().to_rows()[-1]
                    assert row[7] == qtype and type(row[7]) is int
                    assert row[8] == int(rcode)


# ---------------------------------------------------------------------------
# the decode memo: each distinct query body is decoded once
#
# The reference for a memoised service is its twin on the same clock whose
# memo is cleared before every datagram: every datagram decoded afresh.


def _with_id(wire, msg_id):
    return struct.pack("!H", msg_id) + wire[2:]


def _kept(wire):
    """Would the memo keep this query's body?"""
    body = wire[2:]
    return len(body) <= service_app.QUERY_BODY_LIMIT and b"\xc0" not in body


def _padded_query(labels, size):
    """A one-question query whose body (the octets after the id) is
    ``size`` octets, filled out with an EDNS padding option."""
    head = _query_wire(labels)
    fill = size - (len(head) - 2) - 15
    opt = b"\x00" + struct.pack("!HHIHHH", 41, 1232, 0, 4 + fill, 12, fill)
    return head[:10] + b"\x00\x01" + head[12:] + opt + bytes(fill)


def _cold_exchange(service, wire, tcp=False):
    service._decoded.clear()
    return _exchange(service, wire, tcp)


def _assert_memo_is_invisible(warm, cold, wire, tcp=False):
    """``warm`` answers ``wire`` as a cold decode does, under its id."""
    got, expected = _exchange(warm, wire, tcp), _cold_exchange(cold, wire, tcp)
    assert got == expected, (wire.hex(), tcp)
    assert got is None or got[:2] == wire[:2]
    return got


class _Twins:
    """A warm service and its cold twin, started on one injected clock."""

    def __init__(self):
        self.loop = asyncio.new_event_loop()
        clock = SimClock(now=dataset("nl-w2020").start)
        self.warm = _offline_service(self.loop, clock)
        self.cold = _offline_service(self.loop, clock)

    def __enter__(self):
        return self.warm, self.cold

    def __exit__(self, *exc):
        for service in (self.warm, self.cold):
            self.loop.run_until_complete(service.stop())
        self.loop.close()


@pytest.fixture(scope="module")
def memo_twins():
    with _Twins() as twins:
        yield twins


def _repeat(warm, cold, wire, ids, tcp=False):
    """``wire``'s body under each of ``ids`` in turn: the first fills the
    memo, every later one is answered from it."""
    answers = []
    for msg_id in ids:
        answers.append(_assert_memo_is_invisible(warm, cold, _with_id(wire, msg_id), tcp))
        assert wire[2:] in warm._decoded
    return answers


class TestDecodeMemo:
    def test_repeats_under_fresh_ids_match_a_cold_decode(self, memo_twins):
        """Every datagram twice, the second time under another id: the
        bytes on the wire and the capture rows are the cold twin's, and the
        repeat of a kept body is never decoded."""
        warm, cold = memo_twins
        pool = _name_pool(warm)
        sent = []
        kept = 0

        @settings(max_examples=150, derandomize=True, deadline=None)
        @given(specs=st.lists(
            st.tuples(query_spec_st, st.integers(1, 65535)), min_size=1, max_size=10,
        ))
        def stream(specs):
            nonlocal kept
            marks = [len(service.world.capture) for service in (warm, cold)]
            for spec, shift in specs:
                for wire in _spec_wires(pool, spec):
                    again = _with_id(wire, (wire[0] << 8 | wire[1]) ^ shift)
                    for each in (wire, again):
                        _assert_memo_is_invisible(warm, cold, each, spec["tcp"])
                        sent.append(each)
                    kept += _kept(wire)
            rows = [
                service.world.capture.view().to_rows()[mark:]
                for service, mark in zip((warm, cold), marks)
            ]
            # By repr: a UDP row's tcp_rtt_ms is NaN, which equals nothing.
            assert repr(rows[0]) == repr(rows[1])

        with mock.patch.object(
            service_app, "classify_datagram", wraps=classify_datagram
        ) as decode:
            stream()
        # The cold twin decoded every datagram; the warm one at most the
        # first of each pair whose body it keeps (fewer where an earlier
        # example sent the body), and a pointer-spelled body every time.
        assert decode.call_count - len(sent) <= len(sent) - kept
        assert len(sent) > 500 and kept > len(sent) // 4
        assert not any(w[2:] in warm._decoded for w in sent if not _kept(w))
        # Nothing downstream wrote to a shared query: each memoised one is
        # still what its octets decode to.
        for key, (_, query, _) in warm._decoded.items():
            assert Message.from_wire(struct.pack("!H", query.msg_id) + key) == query

    def test_every_answer_carries_the_datagrams_id(self, memo_twins):
        """Each answer path, reached on a memo hit: a plan's miss, first
        fill and replays, UDP and TCP; a multi-question query, a refused
        opcode, a question-less query and a name outside the vantage zone
        (the first server's REFUSED)."""
        warm, cold = memo_twins
        labels = (b"memo-stamped", b"nl")
        status = bytearray(_query_wire(labels, edns=1232))
        status[2] |= 0x10                                       # opcode STATUS
        cases = {
            "plan": _query_wire(labels, qtype=28, edns=1232, do=True),
            "two": _query_wire(labels, shape="two"),
            "notimp": bytes(status),
            "no-question": _query_wire((b"nl",), shape="none"),
            "refused": _query_wire((b"db", b"internal", b"invalid")),
        }
        ids = (1, 2, 0xBEEF, 0xFFFF)
        for name, wire in cases.items():
            for tcp in (False, True):
                answers = _repeat(warm, cold, wire, ids, tcp)
                assert [a[:2] for a in answers] == [struct.pack("!H", i) for i in ids]
                assert len({a[2:] for a in answers}) == 1, name
                if name == "plan" and not tcp:
                    # Kept at its first fill (the second datagram, the first
                    # answered from the memo) under that datagram's id.
                    assert [
                        p.wire for p in _plans(warm) if p.qname_labels == labels
                    ] == [answers[1]]
        rcode = lambda wire: Message.from_wire(_exchange(warm, wire)).rcode
        assert rcode(cases["notimp"]) is RCode.NOTIMP
        assert rcode(cases["no-question"]) is RCode.FORMERR
        assert rcode(cases["refused"]) is RCode.REFUSED

    def test_the_memo_clears_whole_at_its_limit(self, memo_twins, monkeypatch):
        limit = 4
        monkeypatch.setattr(service_app, "QUERY_MEMO_LIMIT", limit)
        warm, cold = memo_twins
        warm._decoded.clear()
        sizes = []
        for index in range(2 * limit + 1):
            wire = _query_wire((b"memo-bound-%d" % index, b"nl"), msg_id=index)
            _assert_memo_is_invisible(warm, cold, wire)
            sizes.append(len(warm._decoded))
        assert sizes == [1, 2, 3, 4, 1, 2, 3, 4, 1]

    def test_only_queries_are_kept(self, memo_twins):
        """A short, a response, an undecodable datagram, a query longer
        than ``QUERY_BODY_LIMIT`` and one spelling a name with a compression
        pointer (into the header or the message id) are decoded afresh
        every time."""
        warm, cold = memo_twins
        warm._decoded.clear()
        labels = (b"memo-kept", b"nl")
        query = _query_wire(labels, msg_id=0)
        # The qname is a pointer at offset 0: under id 0 it reads the root
        # name, under id 0x0300 a three-octet label spelled from the header.
        into_id = struct.pack("!HHHHHH", 0, 0, 1, 0, 0, 0) + b"\xc0\x00\x00\x01\x00\x01"
        for wire in (
            query[:11],                                          # short
            query[:2] + bytes([query[2] | 0x80]) + query[3:],    # QR set
            query[:-3],                                          # FORMERR
            _padded_query(labels, service_app.QUERY_BODY_LIMIT + 1),
            _query_wire(labels, shape="pointer"),
            _query_wire(labels, shape="two-pointer"),
            into_id,
        ):
            answers = [
                _assert_memo_is_invisible(warm, cold, _with_id(wire, msg_id), tcp)
                for msg_id in (0, 0x0300, 0x0300)
                for tcp in (False, True)
            ]
            assert warm._decoded == {}
        qnames = [Message.from_wire(a).question.qname.labels for a in answers[:4:2]]
        assert qnames == [(), (b"\x00\x00\x00",)]
        _repeat(warm, cold, _padded_query(labels, service_app.QUERY_BODY_LIMIT), (1, 2))

    def test_hostile_bodies_stay_small(self, memo_twins, monkeypatch):
        """Distinct long bodies, over UDP and TCP, are answered as a cold
        decode answers them and never kept.  The worst bodies short enough
        to keep (many questions, many short labels, many EDNS options)
        hold a few kB each, and the memo holds no more than
        ``QUERY_MEMO_LIMIT`` of them."""
        warm, cold = memo_twins
        warm._decoded.clear()
        cap = service_app.QUERY_BODY_LIMIT
        for size in (cap + 1, 600, 4096, 65000):
            for index in range(3):
                for tcp in (False, True):
                    wire = _padded_query((b"hostile-%d" % index, b"nl"), size)
                    _assert_memo_is_invisible(warm, cold, wire, tcp)
        assert warm._decoded == {}

        def header(questions, additionals=0):
            return struct.pack("!HHHHHH", 0, 0, questions, 0, 0, additionals)

        def tag(index):
            return b"\x03%03d\x00\x00\x01\x00\x01" % index

        root = b"\x00\x00\x01\x00\x01"
        labels = b"\x02ab" * ((cap - 10 - 4 - 1 - 4) // 3)
        fill = (cap - 10 - 9 - 11) // 4
        opt = b"\x00" + struct.pack("!HHIH", 41, 1232, 0, 4 * fill)
        shapes = (
            lambda i: header(1 + (cap - 19) // 5) + tag(i) + root * ((cap - 19) // 5),
            lambda i: header(1) + b"\x03%03d" % i + labels + root,
            lambda i: header(1, 1) + tag(i) + opt + b"\x00\x0a\x00\x00" * fill,
        )
        limit = 200
        monkeypatch.setattr(service_app, "QUERY_MEMO_LIMIT", limit)
        for shape in shapes:
            assert len(shape(0)) - 2 > cap - 5 and _kept(shape(0))
            warm._decoded.clear()
            gc.collect()
            tracemalloc.start()
            for index in range(limit):
                assert warm._decode(shape(index))[0] == "query"
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.stop()
            assert len(warm._decoded) == limit
            assert held / limit < 8192
            warm._decode(shape(limit))
            assert len(warm._decoded) == 1


class TestHeldCounters:
    """Fetching the per-datagram counters once must not change what
    ``snapshot()`` lists: a series appears with the first event that
    touches it, never before."""

    #: What a service that has seen no traffic lists under ``service.``.
    IDLE = {}

    #: ``service.*`` counters after :meth:`_burst`, recorded from the commit
    #: before the counters were held (``counter()`` looked up per datagram)
    #: on this same burst, less the policy-sink series that went with the
    #: sinks (the server now refuses ``db.internal.invalid.`` itself).
    EXPECTED = {
        **IDLE,
        "service.answered{transport=udp}": 6,
        "service.formerr": 1,
        "service.ignored{cause=response}": 1,
        "service.ignored{cause=short}": 1,
        "service.queries{transport=tcp}": 1,
        "service.queries{transport=udp}": 6,
        "service.refused{cause=opcode}": 1,
        "service.tcp_frames": 1,
        "service.tcp_response_bytes": 26,
        "service.udp_datagrams": 9,
        "service.udp_response_bytes": 567,
    }

    @staticmethod
    def _burst(service):
        pool = _name_pool(service)
        udp = [
            _query_wire(pool[0], msg_id=1, edns=1232),
            _query_wire(pool[0], msg_id=2, edns=1232),
            _query_wire(pool[0], msg_id=3, edns=1232),
            _query_wire(pool[1], msg_id=4, qtype=28),
            _query_wire((b"no-such-name-zzz", b"nl"), msg_id=5, edns=512, do=True),
            _query_wire((b"db", b"internal", b"invalid"), msg_id=6),
            _query_wire(pool[2], msg_id=7)[:-3],                      # FORMERR
            b"\x00\x01\x02",                                          # short
            _query_wire(pool[2], msg_id=8)[:2] + b"\x80" + _query_wire(pool[2])[3:],
        ]
        for wire in udp:
            _exchange(service, wire)
        # Over TCP only a STATUS query: counted, never "answered".
        status = bytearray(_query_wire(pool[0], msg_id=9))
        status[2] |= 0x10
        _exchange(service, bytes(status), tcp=True)

    @staticmethod
    def _service_series(service):
        counters = service.snapshot().counters
        return {k: v for k, v in counters.items() if k.startswith("service.")}

    def test_series_are_the_parents(self):
        loop = asyncio.new_event_loop()
        service = _offline_service(loop, SimClock(now=dataset("nl-w2020").start))
        try:
            assert self._service_series(service) == self.IDLE
            self._burst(service)
            assert self._service_series(service) == self.EXPECTED
            # Held counters are the registry's own objects: a second burst
            # doubles every series and adds none.
            self._burst(service)
            assert self._service_series(service) == {
                key: 2 * value for key, value in self.EXPECTED.items()
            }
        finally:
            loop.run_until_complete(service.stop())
            loop.close()


class TestLiveCaptureWindow:
    def test_resident_rows_stay_within_the_window(self, monkeypatch):
        window = 32
        monkeypatch.setattr(service_app, "LIVE_CAPTURE_WINDOW", window)
        loop = asyncio.new_event_loop()
        service = _offline_service(loop)
        try:
            pool = _name_pool(service)
            capture = service.world.capture
            answered = 0
            high_water = 0
            for index in range(3 * window + 5):
                wire = _query_wire(pool[index % 3], msg_id=index, edns=1232)
                tcp = index % 7 == 0
                assert _exchange(service, wire, tcp) is not None
                answered += 1
                high_water = max(high_water, len(capture))
                assert len(capture) <= window
            assert high_water > window // 2          # rows do stay for a while
            assert capture.rows_appended == answered
            assert len(capture) == answered % window
            snapshot = service.snapshot()
            assert snapshot.total("service.answered") == answered
        finally:
            loop.run_until_complete(service.stop())
            loop.close()


# ---------------------------------------------------------------------------
# the live path: source memos, one clock read per query


class CountingClock:
    """A :class:`SimClock` that counts its reads."""

    def __init__(self, now):
        self.inner = SimClock(now=now)
        self.reads = 0

    def read(self):
        self.reads += 1
        return self.inner.read()


class TestSourceMemo:
    def _wire(self, service, msg_id=1):
        return _query_wire(_name_pool(service)[0], msg_id=msg_id, edns=1232)

    def test_one_host_on_random_ports_is_one_entry(self):
        loop = asyncio.new_event_loop()
        service = _offline_service(loop, SimClock(now=dataset("nl-w2020").start))
        try:
            rng = random.Random(7)
            sink = _Sink()
            for msg_id in range(1000):
                sink.sent = None
                service.handle_datagram(
                    sink, self._wire(service, msg_id), ("198.51.100.7", rng.randrange(1024, 65536))
                )
                assert sink.sent is not None
            assert service._peers == {"198.51.100.7": IPAddress.parse("198.51.100.7")}
        finally:
            loop.run_until_complete(service.stop())
            loop.close()

    def test_the_memo_clears_at_its_limit(self, monkeypatch):
        limit = 4
        monkeypatch.setattr(service_app, "SOURCE_MEMO_LIMIT", limit)
        loop = asyncio.new_event_loop()
        service = _offline_service(loop, SimClock(now=dataset("nl-w2020").start))
        try:
            sizes = []
            for host in range(1, 2 * limit + 2):
                service.handle_datagram(_Sink(), self._wire(service), (f"10.0.0.{host}", 53))
                sizes.append(len(service._peers))
            assert sizes == [1, 2, 3, 4, 1, 2, 3, 4, 1]
        finally:
            loop.run_until_complete(service.stop())
            loop.close()

    def test_unparseable_peer_is_counted_not_memoised(self):
        loop = asyncio.new_event_loop()
        service = _offline_service(loop, SimClock(now=dataset("nl-w2020").start))
        try:
            sink = _Sink()
            for _ in range(2):
                service.handle_datagram(sink, self._wire(service), ("not-an-address", 53))
            assert sink.sent is None
            assert service._peers == {}
            counters = service.snapshot().counters
            assert counters["service.ignored{cause=unparseable_peer}"] == 2
        finally:
            loop.run_until_complete(service.stop())
            loop.close()


class TestOneClockRead:
    def test_fair_weather_reads_the_clock_once(self):
        """Every answered datagram, UDP or TCP, costs one read — the
        dispatch's."""
        loop = asyncio.new_event_loop()
        clock = CountingClock(dataset("nl-w2020").start)
        service = _offline_service(loop, clock)
        try:
            pool = _name_pool(service)
            for index in range(60):
                wire = _query_wire(pool[index % 6], msg_id=index, edns=1232)
                clock.reads = 0
                assert _exchange(service, wire, tcp=index % 5 == 0) is not None
                assert clock.reads == 1, index
        finally:
            loop.run_until_complete(service.stop())
            loop.close()
