"""Unit tests for the capture schema, columnar store, and persistence."""

import csv

import pytest

from repro.capture import (
    CaptureStore,
    QueryRecord,
    Transport,
    join_address,
    split_address,
    write_csv,
)
from repro.netsim import IPAddress

from .helpers import assert_views_equal, row_of, sources, view_of


def make_record(**overrides) -> QueryRecord:
    base = dict(
        timestamp=1000.0,
        server_id="nl-a",
        src=IPAddress.parse("192.0.2.1"),
        transport=Transport.UDP,
        qname="example.nl.",
        qtype=1,
        rcode=0,
        edns_bufsize=1232,
        do_bit=True,
        response_size=120,
        truncated=False,
        tcp_rtt_ms=None,
    )
    base.update(overrides)
    return QueryRecord(**base)


class TestSchema:
    def test_udp_with_rtt_rejected(self):
        with pytest.raises(ValueError):
            make_record(tcp_rtt_ms=12.0)

    def test_tcp_requires_rtt_allowed(self):
        record = make_record(transport=Transport.TCP, tcp_rtt_ms=25.0)
        assert record.tcp_rtt_ms == 25.0

    def test_bufsize_range_checked(self):
        with pytest.raises(ValueError):
            make_record(edns_bufsize=70000)

    def test_family_property(self):
        assert make_record().family == 4
        assert make_record(src=IPAddress.parse("2001:db8::1")).family == 6


class TestAddressSplitting:
    def test_v4_round_trip(self):
        addr = IPAddress.parse("203.0.113.9")
        assert join_address(*split_address(addr)) == addr

    def test_v6_round_trip(self):
        addr = IPAddress.parse("2001:db8:1234:5678:9abc:def0:1:2")
        assert join_address(*split_address(addr)) == addr

    def test_v6_high_bits_preserved(self):
        addr = IPAddress(6, (2**127) + 5)
        family, hi, lo = split_address(addr)
        assert hi >> 63 == 1
        assert join_address(family, hi, lo) == addr


class TestStore:
    def test_empty_view(self):
        view = CaptureStore().view()
        assert len(view) == 0
        assert sources(view) == set()

    def test_append_and_record_round_trip(self):
        original = make_record(transport=Transport.TCP, tcp_rtt_ms=42.5)
        assert view_of([original]).record(0) == original

    def test_view_sees_every_append(self):
        store = CaptureStore()
        store.append_row(row_of(make_record()))
        first = store.view()
        assert_views_equal(store.view(), first)
        store.append_row(row_of(make_record()))
        assert len(first) == 1                  # a view is a snapshot
        assert len(store.view()) == 2

    def test_select_mask(self):
        view = view_of([make_record(qtype=1), make_record(qtype=2), make_record(qtype=1)])
        selected = view.select(view.qtype == 1)
        assert len(selected) == 2
        assert (selected.qtype == 1).all()

    def test_unique_addresses(self):
        a = IPAddress.parse("192.0.2.1")
        b = IPAddress.parse("2001:db8::1")
        unique = sources(view_of(make_record(src=src) for src in (a, b, a, a)))
        assert set(join_address(*row).to_text() for row in unique) == {
            "192.0.2.1", "2001:db8::1",
        }

    def test_same_value_different_family_distinct(self):
        view = view_of([
            make_record(src=IPAddress(4, 42)), make_record(src=IPAddress(6, 42)),
        ])
        assert len(sources(view)) == 2

    def test_iter_records_with_mask(self):
        view = view_of([make_record(qtype=1), make_record(qtype=2)])
        records = list(view.select(view.qtype == 2).iter_records())
        assert len(records) == 1
        assert records[0].qtype == 2

    def test_release_drops_rows_and_keeps_counting(self):
        store = CaptureStore()
        store.append_row(row_of(make_record(qtype=1)))
        store.append_row(row_of(make_record(qtype=2)))
        held = store.view()
        store.release()
        assert len(store) == 0 and len(store.view()) == 0
        assert store.rows_appended == 2          # rows ever observed
        assert len(held) == 2 and held.to_rows()[1][7] == 2   # released, not emptied
        store.append_row(row_of(make_record(qtype=3)))
        assert len(store) == 1 and store.rows_appended == 3
        assert list(store.view().qtype) == [3]
        # take() cuts rows off the same way: frozen, dropped, still counted.
        assert list(store.take(1).qtype) == [3]
        assert len(store) == 0 and store.rows_appended == 3


class TestPersistence:
    @pytest.fixture
    def store(self):
        store = CaptureStore()
        store.append_row(row_of(make_record()))
        store.append_row(row_of(
            make_record(
                transport=Transport.TCP,
                tcp_rtt_ms=33.25,
                src=IPAddress.parse("2001:db8::42"),
                rcode=3,
                truncated=True,
            )
        ))
        return store

    def test_csv_round_trip(self, store, tmp_path):
        path = tmp_path / "capture.csv"
        assert write_csv(store, path) == 2
        with open(path, newline="") as handle:
            rows = list(csv.DictReader(handle))
        view = store.view()
        assert len(rows) == len(view) == 2
        for row, record in zip(rows, view.iter_records()):
            assert float(row["timestamp"]) == record.timestamp
            assert row["server_id"] == record.server_id
            assert row["src"] == record.src.to_text()
            assert row["transport"] == record.transport.name
            assert row["qname"] == record.qname
            assert int(row["qtype"]) == record.qtype
            assert int(row["rcode"]) == record.rcode
            assert int(row["edns_bufsize"]) == record.edns_bufsize
            assert bool(int(row["do_bit"])) == record.do_bit
            assert int(row["response_size"]) == record.response_size
            assert bool(int(row["truncated"])) == record.truncated
            rtt = row["tcp_rtt_ms"]
            assert (float(rtt) if rtt else None) == record.tcp_rtt_ms
