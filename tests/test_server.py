"""Unit tests for the authoritative server: responses, truncation,
anycast catchments, and capture taps."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.capture import CaptureStore, Transport
from repro.dnscore import (
    EdnsRecord,
    Message,
    Name,
    NSRdata,
    RCode,
    ResourceRecord,
    RRType,
    TXTRdata,
)
from repro.netsim import GAZETTEER, IPAddress, LatencyModel
from repro.resolver.engine import add_route
from repro.server import AuthoritativeServer, ServerSet
from repro.server import authoritative
from repro.dnscore.edns import effective_udp_limit
from repro.server.authoritative import _anchored_size, plan_profile
from repro.zones import LookupOutcome, LookupResult, Zone

from .helpers import view_digest
from .test_oracle import ORACLE, pin, run_case


SRC = IPAddress.parse("192.0.2.53")


@pytest.fixture
def zone():
    zone = Zone(Name.from_text("nl"), signed=True)
    zone.add_delegation(
        Name.from_text("example.nl"),
        [Name.from_text("ns1.hoster.net")],
        secure=True,
    )
    return zone


@pytest.fixture
def server(zone):
    return AuthoritativeServer(
        "nl-a", zone, [GAZETTEER["AMS"], GAZETTEER["IAD"]], capture=CaptureStore()
    )


def query(qname, qtype=RRType.A, edns=None):
    return Message.make_query(Name.from_text(qname), qtype, msg_id=7, edns=edns)


class TestResponses:
    def test_referral_for_delegated_name(self, server):
        response = server.handle_query(1.0, SRC, Transport.UDP, query("www.example.nl"))
        assert response.rcode is RCode.NOERROR
        assert not response.flags.aa
        assert any(r.rrtype is RRType.NS for r in response.authorities)

    def test_nxdomain_for_unknown(self, server):
        response = server.handle_query(1.0, SRC, Transport.UDP, query("missing.nl"))
        assert response.rcode is RCode.NXDOMAIN
        assert response.flags.aa

    def test_refused_out_of_bailiwick(self, server):
        response = server.handle_query(1.0, SRC, Transport.UDP, query("example.com"))
        assert response.rcode is RCode.REFUSED

    def test_soa_answer_is_authoritative(self, server):
        response = server.handle_query(1.0, SRC, Transport.UDP, query("nl", RRType.SOA))
        assert response.flags.aa
        assert response.answers

    def test_edns_echoed(self, server):
        response = server.handle_query(
            1.0, SRC, Transport.UDP,
            query("nl", RRType.SOA, edns=EdnsRecord(udp_payload_size=1232)),
        )
        assert response.edns is not None

    def test_stats_accumulate(self, server):
        server.handle_query(1.0, SRC, Transport.UDP, query("missing.nl"))
        server.handle_query(2.0, SRC, Transport.UDP, query("nl", RRType.SOA))
        assert server.stats.queries == 2
        assert server.stats.by_rcode[int(RCode.NXDOMAIN)] == 1
        assert server.stats.by_rcode[int(RCode.NOERROR)] == 1


class TestTruncation:
    @pytest.mark.parametrize("dnssec_ok", [False, True])
    @pytest.mark.parametrize("qtype", [RRType.SOA, RRType.DNSKEY])
    def test_udp_limit_is_effective_udp_limit(self, server, qtype, dnssec_ok):
        """The miss path reads the UDP limit inline: without OPT, below 512,
        at it, and around the response's own size above it, a UDP answer is
        truncated exactly when it overflows ``effective_udp_limit``."""
        qname = Name.from_text("nl")

        def ask(transport, edns):
            return server.answer(
                1.0, SRC, transport, qname, qtype, edns,
                plan_profile(edns, transport), None if transport is Transport.UDP else 10.0,
            )

        # The response's OPT is the server's own, so its size over TCP is
        # the same whatever buffer the query advertised.
        plain = ask(Transport.TCP, None).wire_size
        size = ask(Transport.TCP, EdnsRecord(4096, dnssec_ok)).wire_size
        # Three answers fit 512 (a buffer below it must not truncate them);
        # the signed DNSKEY answer does not (its own size is the limit).
        assert (size > 512) == (qtype is RRType.DNSKEY and dnssec_ok)
        for bufsize in (None, 0, 100, 511, 512, 513, size - 1, size, size + 1, 4096):
            edns = None if bufsize is None else EdnsRecord(bufsize, dnssec_ok)
            untruncated = plain if edns is None else size
            assert ask(Transport.UDP, edns).truncated == (
                untruncated > effective_udp_limit(edns)
            ), bufsize

    def test_small_bufsize_with_do_truncates_signed_answer(self, server):
        # DNSKEY answers with RRSIGs exceed 512 octets.
        q = query("nl", RRType.DNSKEY, edns=EdnsRecord(udp_payload_size=512, dnssec_ok=True))
        response = server.handle_query(1.0, SRC, Transport.UDP, q)
        assert response.flags.tc
        assert not response.answers

    def test_tcp_never_truncates(self, server):
        q = query("nl", RRType.DNSKEY, edns=EdnsRecord(udp_payload_size=512, dnssec_ok=True))
        response = server.handle_query(1.0, SRC, Transport.TCP, q, tcp_rtt_ms=10.0)
        assert not response.flags.tc
        assert response.answers

    def test_big_bufsize_avoids_truncation(self, server):
        q = query("nl", RRType.DNSKEY, edns=EdnsRecord(udp_payload_size=4096, dnssec_ok=True))
        response = server.handle_query(1.0, SRC, Transport.UDP, q)
        assert not response.flags.tc

    def test_truncation_recorded_in_capture(self, server):
        q = query("nl", RRType.DNSKEY, edns=EdnsRecord(udp_payload_size=512, dnssec_ok=True))
        server.handle_query(1.0, SRC, Transport.UDP, q)
        record = server.capture.view().record(0)
        assert record.truncated
        assert record.edns_bufsize == 512


def flip_case(name, mask):
    """``name`` with the ASCII letters picked by ``mask``'s bits case-flipped."""
    labels, bit = [], 0
    for label in name.labels:
        flipped = bytearray(label)
        for i, octet in enumerate(label):
            if chr(octet).isalpha() and (mask >> bit) & 1:
                flipped[i] = octet ^ 0x20
            bit += 1
        labels.append(bytes(flipped))
    return Name(labels)


def exchange(server, query, timestamp=1.0):
    """What a resolver does: UDP, then TCP when the answer came back TC."""
    responses = [server.handle_query(timestamp, SRC, Transport.UDP, query)]
    if responses[0].flags.tc:
        responses.append(
            server.handle_query(timestamp, SRC, Transport.TCP, query, tcp_rtt_ms=10.0)
        )
    return responses


def compressible_names(result):
    """The section names the encoder may compress: record owners, NS
    targets and SOA names (RRSIG signers and NSEC next names never are)."""
    names = []
    for record in result.answers + result.authorities + result.additionals:
        names.append(record.name)
        rdata = record.rdata
        if record.rrtype is RRType.NS:
            names.append(rdata.target)
        elif record.rrtype is RRType.SOA:
            names += [rdata.mname, rdata.rname]
    return names


class TestSizeShortcut:
    """A lookup's size by arithmetic is the encoder's size, or is not
    offered at all, for every outcome.  The reference is a reference
    server (``_plans = None``): it memoises nothing and encodes every
    response in full."""

    EDNS = (
        None,
        EdnsRecord(udp_payload_size=512),
        EdnsRecord(udp_payload_size=1232, dnssec_ok=True),
        EdnsRecord(udp_payload_size=4096, dnssec_ok=True),
    )

    @pytest.fixture
    def servers(self, session_zones):
        zone = session_zones["nz"]
        fast = AuthoritativeServer("nz-a", zone, [GAZETTEER["AKL"]], CaptureStore())
        reference = AuthoritativeServer("nz-a", zone, [GAZETTEER["AKL"]], CaptureStore())
        reference._plans = None
        return fast, reference

    def test_arithmetic_size_is_the_encoders_size(self, servers):
        fast, reference = servers
        zone = fast.zone
        cuts = sorted(zone.delegation_names, key=Name.canonical_key)
        # The zone has what the property needs: third-level cuts, and both
        # glueless (hoster) and in-bailiwick (ns1.<cut>, with glue) NS sets.
        assert {cut.label_count for cut in cuts} == {2, 3}
        vanity = [c for c in cuts if (c.prepend(b"ns1"), RRType.A) in zone._rrsets]
        assert vanity and len(vanity) < len(cuts)
        # Names no cut covers: the apex, the registry empty non-terminals
        # (co.nz, ...), unregistered names, and the SOA's own names.
        origin = zone.origin
        registries = sorted({c.parent() for c in cuts if c.label_count == 3}, key=Name.canonical_key)
        uncut = [origin, *registries] + [
            origin.prepend(label)
            for label in (b"zz-unregistered", b"a", b"ns1", b"hostmaster", b"co-op")
        ]
        assert all(zone.covering_delegation(name) is None for name in uncut)
        branches = Counter()

        @settings(max_examples=600, deadline=None, derandomize=True)
        @given(
            base=st.sampled_from(cuts + uncut),
            prefix=st.lists(
                st.sampled_from([
                    b"www", b"ns1", b"NS2", b"ns3", b"a-much-longer-label",
                    b"Dot.And\\Slash", b"L" * 63,
                ]),
                max_size=3,
            ),
            mask=st.integers(0, 2**40 - 1),
            edns=st.sampled_from(self.EDNS),
            qtype=st.sampled_from(
                [RRType.A, RRType.AAAA, RRType.NS, RRType.DS, RRType.SOA, RRType.DNSKEY]
            ),
        )
        def check(base, prefix, mask, edns, qtype):
            qname = flip_case(base.prepend(*prefix), mask)
            query = Message.make_query(qname, qtype, msg_id=7, edns=edns)

            dnssec_ok = edns is not None and edns.dnssec_ok
            result = fast.zone.lookup(qname, qtype, dnssec_ok)
            response = Message(
                questions=query.questions,
                answers=result.answers,
                authorities=result.authorities,
                additionals=result.additionals,
                edns=None if edns is None else EdnsRecord(4096, dnssec_ok),
            )
            outcome = result.outcome.name
            size = _anchored_size(result, qname, response.edns)
            if size is None:
                branches[outcome, "fallback"] += 1
            else:
                branches[outcome, "shortcut"] += 1
                assert size == len(response.to_wire())
            if size is None:
                # Declined only when the question offers a section name a
                # compression target the calibration did not have.
                depth = result.anchor.label_count
                below = qname.canonical_key()[depth]
                assert below in {
                    name.canonical_key()[depth]
                    for name in compressible_names(result)
                    if name.label_count > depth and name.is_subdomain_of(result.anchor)
                }
                if result.outcome is LookupOutcome.DELEGATION:
                    assert result.additionals and below in (b"ns1", b"ns2")

            # The whole path: same bytes out, same row captured.
            got, expected = exchange(fast, query), exchange(reference, query)
            assert [r.to_wire() for r in got] == [r.to_wire() for r in expected]

        check()
        for outcome in ("DELEGATION", "ANSWER", "NODATA", "NXDOMAIN"):
            assert branches[outcome, "shortcut"], (outcome, branches)
        assert branches["DELEGATION", "fallback"] and branches["NXDOMAIN", "fallback"]
        assert fast.stats.plan_misses and reference.stats.plan_misses == 0
        a, b = fast.capture.view(), reference.capture.view()
        for column in ("qname", "qtype", "rcode", "transport", "response_size", "truncated"):
            assert np.array_equal(getattr(a, column), getattr(b, column)), column

    def test_truncated_referral_and_its_tcp_retry(self, servers):
        """A shortcut-sized referral that overflows the UDP limit: the TC
        response and the TCP retry are sized as the reference sizes them."""
        fast, reference = servers
        zone = fast.zone
        cut = next(
            c for c in sorted(zone.delegation_names, key=Name.canonical_key)
            if (c.prepend(b"ns1"), RRType.A) in zone._rrsets and (c, RRType.DS) in zone._rrsets
        )
        query = Message.make_query(
            cut.prepend(b"www"), RRType.A, msg_id=3,
            edns=EdnsRecord(udp_payload_size=512, dnssec_ok=True),
        )
        result = zone.lookup(query.question.qname, RRType.A, True)
        assert _anchored_size(result, query.question.qname, query.edns) > 512
        for server in (fast, reference):
            udp, tcp = exchange(server, query)
            assert udp.flags.tc and not udp.authorities
            assert not tcp.flags.tc and tcp.authorities
        a, b = fast.capture.view(), reference.capture.view()
        assert a.response_size.tolist() == b.response_size.tolist()
        assert a.truncated.tolist() == b.truncated.tolist() == [True, False]
        assert a.response_size[1] > 512 > a.response_size[0]

    def test_reference_server_never_uses_a_memoised_size(self, servers, monkeypatch):
        fast, reference = servers
        cut = sorted(fast.zone.delegation_names, key=Name.canonical_key)[0]
        query = Message.make_query(cut.prepend(b"www"), RRType.A, msg_id=1)
        fast.handle_query(1.0, SRC, Transport.UDP, query)
        result = fast.zone.lookup(query.question.qname, RRType.A, False)
        assert result.sizing is not None
        # Poison the calibration: a server that consulted it would be off.
        result.sizing = (result.sizing[0] + 1000, result.sizing[1])
        try:
            response = reference.handle_query(1.0, SRC, Transport.UDP, query)
            assert reference.capture.view().response_size[-1] == len(response.to_wire())
        finally:
            result.sizing = None

    def test_near_the_pointer_limit_only_the_encoder_decides(self):
        """Names written at or past offset 0x4000 are not compression
        targets, so a body that long may encode differently once a longer
        question shifts it; the shortcut declines such a body outright."""
        cut = Name.from_text("big.nl")
        filler = [
            ResourceRecord(cut, RRType.TXT, 60, TXTRdata((b"x" * 250,)))
            for _ in range(62)
        ]
        tail = [ResourceRecord(cut, RRType.NS, 60, NSRdata(cut.prepend(b"ns1", b"deep")))] * 2
        short = LookupResult(LookupOutcome.DELEGATION, authorities=filler[:10] + tail, anchor=cut)
        long = LookupResult(LookupOutcome.DELEGATION, authorities=filler + tail, anchor=cut)
        qname = cut.prepend(b"w" * 60, b"w" * 60)
        for result, offered in ((short, True), (long, False)):
            message = Message(
                questions=[Message.make_query(qname, RRType.A).question],
                authorities=result.authorities,
            )
            size = _anchored_size(result, qname, None)
            assert (size is not None) == offered
            if offered:
                assert size == message.wire_size()
        # What the guard is for: at the anchor the second NS target is a
        # pointer to the first; 120 octets further on the first lands past
        # the limit, the second is spelled out, and the body grows.
        at_anchor = Message(
            questions=[Message.make_query(cut, RRType.A).question],
            authorities=long.authorities,
        )
        shifted_by = len(qname.to_wire()) - len(cut.to_wire())
        assert message.wire_size() > at_anchor.wire_size() + shifted_by


class TestSimulatorSendPath:
    """The simulated resolver asks its servers with the question tuple:
    no query message is built for a send, and a response message only
    where the arithmetic cannot size a plan miss."""

    def test_no_message_but_the_encoder_fallbacks(self, monkeypatch):
        counts = Counter()

        def counted(name, function):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                result = function(*args, **kwargs)
                if name == "size" and result is None:
                    counts["unsized"] += 1
                return result
            return wrapper

        monkeypatch.setattr(
            Message, "make_query", counted("make_query", Message.make_query)
        )
        monkeypatch.setattr(Message, "__init__", counted("message", Message.__init__))
        monkeypatch.setattr(
            authoritative, "_anchored_size", counted("size", authoritative._anchored_size)
        )
        monkeypatch.setattr(
            authoritative, "_calibrate", counted("calibrate", authoritative._calibrate)
        )
        run = run_case("nl-w2020")
        assert counts["make_query"] == 0
        assert counts["size"] > 0 and run.telemetry.total("runtime.plan_cache.hits") > 0
        # One probe per calibrated zone result, one encode per unsized miss.
        assert counts["message"] <= counts["calibrate"] + counts["unsized"]

    def test_reference_path_still_matches_the_oracle(self, monkeypatch):
        pin(monkeypatch, plan_cache=False)
        run = run_case("nl-w2020")
        assert run.telemetry.total("runtime.plan_cache.misses") == 0
        assert view_digest(run.capture.view()) == ORACLE["nl-w2020"]["capture"]


class TestCaptureTap:
    def test_fields_recorded(self, server):
        q = query("www.example.nl", edns=EdnsRecord(udp_payload_size=1232, dnssec_ok=True))
        server.handle_query(123.5, SRC, Transport.UDP, q)
        record = server.capture.view().record(0)
        assert record.timestamp == 123.5
        assert record.server_id == "nl-a"
        assert record.qname == "www.example.nl."
        assert record.qtype == int(RRType.A)
        assert record.do_bit
        assert record.response_size > 0

    def test_tcp_rtt_recorded(self, server):
        server.handle_query(1.0, SRC, Transport.TCP, query("nl", RRType.SOA), tcp_rtt_ms=17.5)
        assert server.capture.view().record(0).tcp_rtt_ms == 17.5

    def test_rtt_without_tcp_rejected(self, server):
        with pytest.raises(ValueError):
            server.handle_query(1.0, SRC, Transport.UDP, query("nl"), tcp_rtt_ms=5.0)
        with pytest.raises(ValueError):
            server.handle_query(1.0, SRC, Transport.TCP, query("nl"))

    def test_uncaptured_server_records_nothing(self, zone):
        silent = AuthoritativeServer("nl-x", zone, [GAZETTEER["AMS"]], capture=None)
        silent.handle_query(1.0, SRC, Transport.UDP, query("nl", RRType.SOA))
        assert silent.stats.queries == 1


class TestServerSet:
    def test_catchment_is_nearest_site(self, zone):
        server = AuthoritativeServer("nl-a", zone, [GAZETTEER["AMS"], GAZETTEER["SJC"]])
        assert server.catchment_site(GAZETTEER["LHR"]).code == "AMS"
        assert server.catchment_site(GAZETTEER["LAX"]).code == "SJC"

    def test_fastest_server(self, zone):
        latency = LatencyModel()
        europe = AuthoritativeServer("nl-a", zone, [GAZETTEER["AMS"]])
        oceania = AuthoritativeServer("nl-b", zone, [GAZETTEER["AKL"]])
        server_set = ServerSet([europe, oceania], latency)

        def fastest(site):
            key = (site, "rtt", 0.5, 15.0, 0.0, True, True)
            route = server_set.routes.get(key) or add_route(server_set, GAZETTEER[site], key)
            return route.hops[route.fastest][0]

        assert fastest("FRA") is europe
        assert fastest("SYD") is oceania
        # Kept per route; the answer is the unmemoised one.
        for site in ("FRA", "SYD", "LAX", "NRT"):
            rtts = [server_set.rtt_ms(s, GAZETTEER[site]) for s in server_set.servers]
            expected = server_set.servers[rtts.index(min(rtts))]
            assert fastest(site) is expected
            assert fastest(site) is expected

    def test_mixed_zones_rejected(self, zone):
        other = Zone(Name.from_text("nz"))
        with pytest.raises(ValueError):
            ServerSet(
                [
                    AuthoritativeServer("a", zone, [GAZETTEER["AMS"]]),
                    AuthoritativeServer("b", other, [GAZETTEER["AKL"]]),
                ],
                LatencyModel(),
            )
