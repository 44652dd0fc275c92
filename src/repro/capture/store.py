"""The capture's append buffer and its columnar form.

:class:`CaptureStore` is where the authoritative servers append row
tuples while a simulation runs; :class:`CaptureView` is what those rows
become — numpy columns — the one time they are frozen
(:meth:`CaptureStore.rows_to_view`).  A dataset run cuts a chunk of
:data:`DEFAULT_CHUNK_ROWS` rows off the buffer each time one fills
(:meth:`CaptureStore.take`), so past the buffer a capture is columnar
chunks (:mod:`repro.capture.spool`), as ENTRADA's pcap rows are Parquet
files: the analysis layer works on whole columns (boolean masks,
group-bys) rather than on row objects, which keeps million-row datasets
tractable in pure Python + numpy.

Usage pattern::

    store = CaptureStore()
    store.append_row(row)         # a server, during simulation
    ...
    chunk = store.take(len(store))  # freeze to columns, drop the rows
    mask = chunk.qtype == RRType.NS
    ns_per_server = Counter(chunk.server_id[mask].tolist())
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Sequence, Tuple

import numpy as np

from ..netsim import IPAddress
from .schema import QueryRecord, Transport

#: Rows per columnar chunk, frozen or spooled.  Large enough that zlib and
#: numpy amortise their per-chunk overheads, small enough that a chunk's
#: columns stay a few MB.
DEFAULT_CHUNK_ROWS = 65536

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
    masks over these columns and counts under them.
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

    def iter_records(self) -> Iterator[QueryRecord]:
        for index in range(len(self)):
            yield self.record(index)

    def to_rows(self) -> List[Tuple]:
        """Expand the view back into row tuples of native Python scalars,
        the layout :meth:`CaptureStore.append_row` takes (``tolist`` per
        column — the only bulk column→row conversion in the codebase; no
        product path needs one, the codec fuzz uses it as its reference).
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


#: Upper-inclusive response-size bucket edges (bytes): the DNS-relevant
#: landmarks — minimal responses, the 512-byte classic limit, common EDNS0
#: buffer sizes, and the TCP ceiling.
RESPONSE_SIZE_BUCKETS = (128.0, 256.0, 512.0, 1232.0, 1400.0, 4096.0, 65535.0)


def add_response_sizes(histogram, sizes: np.ndarray) -> None:
    """Bucket a chunk's response-size column into ``histogram`` (one with
    :data:`RESPONSE_SIZE_BUCKETS`) in bulk via numpy — no per-row Python
    loop."""
    if len(sizes):
        indices = np.searchsorted(
            np.asarray(histogram.bounds), sizes.astype(np.float64), side="left"
        )
        counts = np.bincount(indices, minlength=len(histogram.bounds) + 1)
        histogram.add_bulk(
            counts.tolist(),
            int(len(sizes)),
            float(sizes.sum()),
            float(sizes.min()),
            float(sizes.max()),
        )


class CaptureStore:
    """The row buffer the capturing servers append to."""

    def __init__(self):
        self._rows: List[Tuple] = []
        #: Monotonic count of rows ever appended.  This is *not* always
        #: ``len(self)``: a run cuts its chunks off with :meth:`take`, a
        #: live service drops its rows with :meth:`release`, and both keep
        #: counting, so the meaning is "rows ever observed", not "rows
        #: currently resident".
        self.rows_appended = 0

    def __len__(self) -> int:
        return len(self._rows)

    def append_row(self, row: Tuple) -> None:
        """Add one observation as a row tuple: :class:`CaptureView`'s
        columns, in field order, as native Python scalars (the source
        address split by :func:`split_address`, ``tcp_rtt_ms`` NaN over
        UDP)."""
        self._rows.append(row)
        self.rows_appended += 1

    def take(self, rows: int) -> CaptureView:
        """Freeze the first ``rows`` buffered rows into a view and drop
        them from the buffer; ``rows_appended`` stands."""
        head = self._rows[:rows]
        del self._rows[:rows]
        return self.rows_to_view(head)

    def release(self) -> None:
        """Drop the resident rows and keep counting.

        A long-running producer whose rows nothing consumes (the live
        service) calls it to stay bounded.
        """
        self._rows = []

    @staticmethod
    def rows_to_view(rows: Sequence[Tuple]) -> CaptureView:
        """Freeze a slice of row tuples into columnar form.

        This is the one place row tuples become column arrays; both
        :meth:`view` and :meth:`take` go through it, so every code path
        agrees on column dtypes.
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
        """The buffered rows in columnar form (frozen anew on every call:
        for the live service and an example's hand-built world; a run's
        capture is its chunks)."""
        return self.rows_to_view(self._rows)
