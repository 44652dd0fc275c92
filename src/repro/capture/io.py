"""Capture persistence: CSV round-tripping.

Datasets can be simulated once and re-analysed many times; these helpers
write a capture's canonical view to a human-inspectable CSV file and load
one back into a :class:`~repro.capture.store.CaptureStore`
(:mod:`repro.capture.io_binary` is the exact, compact format).
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Union

from ..netsim import IPAddress
from .schema import QueryRecord, Transport
from .store import CaptureStore

_FIELDS = [
    "timestamp",
    "server_id",
    "src",
    "transport",
    "qname",
    "qtype",
    "rcode",
    "edns_bufsize",
    "do_bit",
    "response_size",
    "truncated",
    "tcp_rtt_ms",
]


def _record_to_row(record: QueryRecord) -> dict:
    return {
        "timestamp": record.timestamp,
        "server_id": record.server_id,
        "src": record.src.to_text(),
        "transport": record.transport.name,
        "qname": record.qname,
        "qtype": record.qtype,
        "rcode": record.rcode,
        "edns_bufsize": record.edns_bufsize,
        "do_bit": int(record.do_bit),
        "response_size": record.response_size,
        "truncated": int(record.truncated),
        "tcp_rtt_ms": "" if record.tcp_rtt_ms is None else record.tcp_rtt_ms,
    }


def _row_to_record(row: dict) -> QueryRecord:
    rtt = row["tcp_rtt_ms"]
    if rtt in ("", None):
        rtt = None
    else:
        rtt = float(rtt)
    return QueryRecord(
        timestamp=float(row["timestamp"]),
        server_id=row["server_id"],
        src=IPAddress.parse(row["src"]),
        transport=Transport[row["transport"]],
        qname=row["qname"],
        qtype=int(row["qtype"]),
        rcode=int(row["rcode"]),
        edns_bufsize=int(row["edns_bufsize"]),
        do_bit=bool(int(row["do_bit"])),
        response_size=int(row["response_size"]),
        truncated=bool(int(row["truncated"])),
        tcp_rtt_ms=rtt,
    )


def write_csv(capture, path: Union[str, Path]) -> int:
    """Write all rows of a capture (anything with ``view()``: a run's
    :class:`~repro.capture.SpooledCapture`, a store) to CSV, in the
    view's order; returns the row count."""
    view = capture.view()
    with open(path, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=_FIELDS)
        writer.writeheader()
        count = 0
        for record in view.iter_records():
            writer.writerow(_record_to_row(record))
            count += 1
    return count


def read_csv(path: Union[str, Path]) -> CaptureStore:
    """Load a capture store previously written by :func:`write_csv`."""
    store = CaptureStore()
    with open(path, newline="") as handle:
        for row in csv.DictReader(handle):
            store.append(_row_to_record(row))
    return store
