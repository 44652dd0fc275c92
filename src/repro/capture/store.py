"""The capture's append buffer and its columnar form.

:class:`CaptureStore` is where the authoritative servers append
:class:`QueryRecord` rows while a simulation runs; :class:`CaptureView` is
what those rows become — numpy columns — the one time they are frozen
(:meth:`CaptureStore.rows_to_view`).  Past that point a capture is
columnar chunks (:mod:`repro.capture.spool`), as ENTRADA's pcap rows are
Parquet files: the analysis layer works on whole columns (boolean masks,
group-bys) rather than on row objects, which keeps million-row datasets
tractable in pure Python + numpy.

Usage pattern::

    store = CaptureStore()
    store.append(record)          # during simulation
    ...
    view = store.view()           # freeze to columns
    mask = view.qtype == RRType.NS
    counts = view.count_by(view.server_id, mask)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..netsim import IPAddress
from .schema import QueryRecord, Transport

_U64_MASK = (1 << 64) - 1


def split_address(address: IPAddress) -> Tuple[int, int, int]:
    """Pack an address into (family, hi64, lo64) for columnar storage."""
    return address.family, (address.value >> 64) & _U64_MASK, address.value & _U64_MASK


def join_address(family: int, hi: int, lo: int) -> IPAddress:
    """Inverse of :func:`split_address`."""
    return IPAddress(int(family), (int(hi) << 64) | int(lo))


@dataclass
class CaptureView:
    """Immutable columnar view over captured rows.

    All columns are equal-length numpy arrays (``qname``/``server_id`` are
    object arrays of interned strings).  Analysis code composes boolean
    masks over these columns; `count_by`/`unique_addresses` provide the two
    aggregations everything else is built from.
    """

    timestamp: np.ndarray
    server_id: np.ndarray
    family: np.ndarray
    src_hi: np.ndarray
    src_lo: np.ndarray
    transport: np.ndarray
    qname: np.ndarray
    qtype: np.ndarray
    rcode: np.ndarray
    edns_bufsize: np.ndarray
    do_bit: np.ndarray
    response_size: np.ndarray
    truncated: np.ndarray
    tcp_rtt_ms: np.ndarray

    def __len__(self) -> int:
        return len(self.timestamp)

    # -- row access ----------------------------------------------------------

    def record(self, index: int) -> QueryRecord:
        """Materialise one row back into a :class:`QueryRecord`."""
        rtt = float(self.tcp_rtt_ms[index])
        return QueryRecord(
            timestamp=float(self.timestamp[index]),
            server_id=str(self.server_id[index]),
            src=join_address(
                self.family[index], self.src_hi[index], self.src_lo[index]
            ),
            transport=Transport(int(self.transport[index])),
            qname=str(self.qname[index]),
            qtype=int(self.qtype[index]),
            rcode=int(self.rcode[index]),
            edns_bufsize=int(self.edns_bufsize[index]),
            do_bit=bool(self.do_bit[index]),
            response_size=int(self.response_size[index]),
            truncated=bool(self.truncated[index]),
            tcp_rtt_ms=None if np.isnan(rtt) else rtt,
        )

    def iter_records(self, mask: Optional[np.ndarray] = None) -> Iterator[QueryRecord]:
        indices = np.nonzero(mask)[0] if mask is not None else range(len(self))
        for index in indices:
            yield self.record(int(index))

    def to_rows(self) -> List[Tuple]:
        """Expand the view back into :meth:`CaptureStore._row_of`-layout
        tuples of native Python scalars (``tolist`` per column — the only
        bulk column→row conversion in the codebase; no product path
        needs one, the codec fuzz uses it as its reference).
        Exact inverse of :meth:`CaptureStore.rows_to_view` up to scalar
        types: float64/int/bool round-trip bit-for-bit, object columns
        hand back the original interned strings."""
        return list(zip(*(
            getattr(self, name).tolist() for name in self.__dataclass_fields__
        ))) if len(self) else []

    # -- selection ------------------------------------------------------------

    def select(self, mask: np.ndarray) -> "CaptureView":
        """A new view containing only rows where ``mask`` is True."""
        return CaptureView(
            **{
                name: getattr(self, name)[mask]
                for name in self.__dataclass_fields__
            }
        )

    # -- aggregation ------------------------------------------------------------

    def count_by(
        self, key: np.ndarray, mask: Optional[np.ndarray] = None
    ) -> Dict[object, int]:
        """Count rows per distinct key value (optionally under a mask)."""
        if mask is not None:
            key = key[mask]
        values, counts = np.unique(key, return_counts=True)
        return {v if not isinstance(v, np.generic) else v.item(): int(c)
                for v, c in zip(values, counts)}

    def address_keys(self, mask: Optional[np.ndarray] = None) -> np.ndarray:
        """Composite (family, hi, lo) keys as a structured array, for
        distinct-resolver counting."""
        family = self.family if mask is None else self.family[mask]
        hi = self.src_hi if mask is None else self.src_hi[mask]
        lo = self.src_lo if mask is None else self.src_lo[mask]
        out = np.empty(len(family), dtype=[("f", "u1"), ("h", "u8"), ("l", "u8")])
        out["f"], out["h"], out["l"] = family, hi, lo
        return out

    def unique_addresses(self, mask: Optional[np.ndarray] = None) -> List[IPAddress]:
        """Distinct source addresses (the paper's 'resolvers' unit)."""
        unique = np.unique(self.address_keys(mask))
        return [join_address(row["f"], row["h"], row["l"]) for row in unique]

    def unique_address_count(self, mask: Optional[np.ndarray] = None) -> int:
        return len(np.unique(self.address_keys(mask)))


#: Upper-inclusive response-size bucket edges (bytes): the DNS-relevant
#: landmarks — minimal responses, the 512-byte classic limit, common EDNS0
#: buffer sizes, and the TCP ceiling.
RESPONSE_SIZE_BUCKETS = (128.0, 256.0, 512.0, 1232.0, 1400.0, 4096.0, 65535.0)


class CaptureStore:
    """Append buffer that freezes into a :class:`CaptureView`."""

    def __init__(self):
        self._rows: List[Tuple] = []
        self._frozen: Optional[CaptureView] = None
        #: Monotonic count of rows ever appended.  This is *not* always
        #: ``len(self)``: a live service drops its rows with :meth:`release`
        #: and keeps counting, so the telemetry meaning is "rows ever
        #: observed", not "rows currently resident".
        self.rows_appended = 0

    def __len__(self) -> int:
        return len(self._rows)

    def publish_metrics(self, metrics, window_seconds: Optional[float] = None) -> None:
        """Aggregate capture-side telemetry into a
        :class:`~repro.telemetry.MetricsRegistry`.

        ``window_seconds`` is the wall time the appends happened over
        (the driver passes its resolve-phase total) and yields an
        append-throughput gauge.  Response sizes are bucketed in bulk via
        numpy — no per-row Python loop.
        """
        metrics.counter("capture.rows_appended").inc(self.rows_appended)
        if window_seconds is not None and window_seconds > 0:
            metrics.gauge("capture.append_rows_per_s").set(
                self.rows_appended / window_seconds
            )
        hist = metrics.histogram(
            "capture.response_size_bytes", buckets=RESPONSE_SIZE_BUCKETS
        )
        # Only the response-size column is needed; freezing the whole
        # 14-column view here would do ~14x the work (workers publish once
        # per shard and immediately discard).
        if self._frozen is not None:
            sizes = self._frozen.response_size
        else:
            sizes = np.fromiter(
                (row[11] for row in self._rows), dtype=np.uint32, count=len(self._rows)
            )
        if len(sizes):
            indices = np.searchsorted(
                np.asarray(hist.bounds), sizes.astype(np.float64), side="left"
            )
            counts = np.bincount(indices, minlength=len(hist.bounds) + 1)
            hist.add_bulk(
                counts.tolist(),
                int(len(sizes)),
                float(sizes.sum()),
                float(sizes.min()),
                float(sizes.max()),
            )

    def publish_timeseries(self, recorder, chunk_rows: int = 65536) -> None:
        """Fold the capture's standard rate series into a
        :class:`~repro.telemetry.timeseries.FlightRecorder` — rows per
        server, responses per rcode, TCP rows — one bounded chunk view at
        a time (the same O(chunk) discipline as the streaming analyses)."""
        for view in self.iter_views(chunk_rows):
            recorder.observe_view(view)

    @staticmethod
    def _row_of(record: QueryRecord) -> Tuple:
        family, hi, lo = split_address(record.src)
        return (
            record.timestamp,
            record.server_id,
            family,
            hi,
            lo,
            int(record.transport),
            record.qname,
            record.qtype,
            record.rcode,
            record.edns_bufsize,
            record.do_bit,
            record.response_size,
            record.truncated,
            np.nan if record.tcp_rtt_ms is None else record.tcp_rtt_ms,
        )

    def append(self, record: QueryRecord) -> None:
        """Add one observation (invalidates any previous view)."""
        self._rows.append(self._row_of(record))
        self.rows_appended += 1
        self._frozen = None

    def append_row(self, row: Tuple) -> None:
        """Add one pre-packed row tuple, skipping :class:`QueryRecord`
        construction entirely — the response-plan cache's hit path.  The
        tuple must follow the :meth:`_row_of` layout exactly."""
        self._rows.append(row)
        self.rows_appended += 1
        self._frozen = None

    def extend(self, records: Iterable[QueryRecord]) -> None:
        """Bulk append: one view invalidation and one ``rows_appended``
        update for the whole batch."""
        rows = [self._row_of(record) for record in records]
        if not rows:
            return
        self._rows.extend(rows)
        self.rows_appended += len(rows)
        self._frozen = None

    def clear(self) -> None:
        """Reset to the freshly-constructed state.

        The old row list is released, not cleared in place: views frozen
        from it (a shard's chunks on their way to the assembler) stay
        valid while the store — still shared by reference with its
        authoritative servers — starts over on a fresh list.
        """
        self._rows = []
        self.rows_appended = 0
        self._frozen = None

    def release(self) -> None:
        """Drop the resident rows and keep counting.

        Unlike :meth:`clear` this is not a new session: ``rows_appended``
        — rows ever observed — stands.  A long-running producer whose rows
        nothing consumes (the live service) calls it to stay bounded.
        """
        self._rows = []
        self._frozen = None

    @staticmethod
    def rows_to_view(rows: Sequence[Tuple]) -> CaptureView:
        """Freeze a slice of row tuples into columnar form.

        This is the one place row tuples become column arrays; both
        :meth:`view` and :meth:`iter_views` go through it, so every code
        path agrees on column dtypes.
        """
        columns = list(zip(*rows)) if rows else [[] for _ in range(14)]
        return CaptureView(
            timestamp=np.asarray(columns[0], dtype=np.float64),
            server_id=np.asarray(columns[1], dtype=object),
            family=np.asarray(columns[2], dtype=np.uint8),
            src_hi=np.asarray(columns[3], dtype=np.uint64),
            src_lo=np.asarray(columns[4], dtype=np.uint64),
            transport=np.asarray(columns[5], dtype=np.uint8),
            qname=np.asarray(columns[6], dtype=object),
            qtype=np.asarray(columns[7], dtype=np.uint16),
            rcode=np.asarray(columns[8], dtype=np.uint8),
            edns_bufsize=np.asarray(columns[9], dtype=np.uint16),
            do_bit=np.asarray(columns[10], dtype=bool),
            response_size=np.asarray(columns[11], dtype=np.uint32),
            truncated=np.asarray(columns[12], dtype=bool),
            tcp_rtt_ms=np.asarray(columns[13], dtype=np.float64),
        )

    def view(self) -> CaptureView:
        """Freeze appended rows into columnar form (cached until next append)."""
        if self._frozen is None:
            self._frozen = self.rows_to_view(self._rows)
        return self._frozen

    def iter_views(self, chunk_rows: int = 65536) -> Iterator[CaptureView]:
        """Yield bounded columnar views over the rows, ``chunk_rows`` at a
        time — the single-pass entry point of the streaming analysis layer
        (O(chunk) transient column memory instead of a full freeze)."""
        if chunk_rows < 1:
            raise ValueError("chunk_rows must be >= 1")
        for start in range(0, len(self._rows), chunk_rows):
            yield self.rows_to_view(self._rows[start : start + chunk_rows])
