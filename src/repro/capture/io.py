"""Capture export: CSV.

:func:`write_csv` writes a capture's canonical view to a
human-inspectable CSV file (``repro dataset --out``).  It is export-only;
:mod:`repro.capture.io_binary` is the exact, compact format that loads
back.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Union

from .schema import QueryRecord

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
