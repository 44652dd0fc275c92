"""One count table behind every figure and table.

The paper computes each figure and table as a GROUP BY over the capture
(ENTRADA → Impala), reducing 55.7B queries to per-category aggregates
without the row set ever being resident.  Here that is one structure: a
:class:`CountTable` holds row counts, and integer sums such as response
bytes, keyed by declared columns of a chunk and its attribution
(:data:`COLUMNS`).  A capture that *is* resident is the one-chunk case
(:meth:`~repro.analysis.analytics.DatasetAnalytics.over`); every
simulated run folds its chunks as it freezes them.

Every metric is a :class:`StreamingAggregator` over one table, declared
by three things:

a key spec
    The columns it groups by (:attr:`~StreamingAggregator.key`), the rows
    it keeps (:meth:`~StreamingAggregator.where`) and the measures it
    sums.  ``feed`` is the table's, the same for every metric: a chunk
    folds with one ``np.unique`` over its key columns packed into one
    integer, and feeding a capture chunk by chunk equals feeding it whole
    (``tests/test_streaming_algebra.py``).
a renderer
    ``exact_state()``: the table as the plain-data state the oracle and
    the benchmark digest.
``finalize()``
    The metric's result.  Every division happens here on the folded
    totals, so the result does not depend on how the rows were chunked.

:class:`AggregateSet` bundles every metric for one dataset run and is
what rides on every :class:`~repro.sim.DatasetRun.aggregates`.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import compress
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..capture import CaptureView, Transport, join_address
from ..clouds import GOOGLE_PUBLIC_DNS_PREFIXES, PROVIDERS
from ..dnscore import RCode, RRType
from .attribution import AttributionResult, factorize

#: Rows a table may hold beyond twice its compacted ones before its parts
#: are cut down to one.
PENDING_KEYS = 65536


def _bufsize(view, attribution, rows):
    """The advertised UDP size, a query without EDNS0 at the classic
    512-octet limit it implies."""
    sizes = view.edns_bufsize[rows]
    return np.where(sizes == 0, sizes.dtype.type(512), sizes)


def _ns_depth(view, attribution, rows):
    """Dots in the qname: one per label of an absolute name."""
    return np.char.count(view.qname[rows].astype(str), ".").astype(np.uint8)


def _category(view, attribution, rows):
    """The row's composition taxonomy category (an index into CATEGORIES)."""
    from .composition import classify_queries

    return classify_queries(view)[rows].view(np.uint8)


def _rtt(view, attribution, rows):
    """A TCP query's handshake RTT; NaN for every other row."""
    rtt = view.tcp_rtt_ms[rows]
    return np.where(view.transport[rows] == int(Transport.TCP), rtt, np.nan)


#: The declared key columns: name → column(view, attribution, rows).  A
#: string column comes as its distinct strings and each row's index.
COLUMNS: Dict[str, Callable] = {
    "label": lambda view, attribution, rows: attribution.codes("providers", rows),
    "country": lambda view, attribution, rows: attribution.codes("countries", rows),
    "server": lambda view, attribution, rows: factorize(view.server_id[rows]),
    "asn": lambda view, attribution, rows: attribution.asns[rows],
    "family": lambda view, attribution, rows: view.family[rows],
    "hi": lambda view, attribution, rows: view.src_hi[rows],
    "lo": lambda view, attribution, rows: view.src_lo[rows],
    "transport": lambda view, attribution, rows: view.transport[rows],
    "qtype": lambda view, attribution, rows: view.qtype[rows],
    "rcode": lambda view, attribution, rows: view.rcode[rows],
    "tc": lambda view, attribution, rows: view.truncated[rows],
    "bufsize": _bufsize,
    "ns_depth": _ns_depth,
    "category": _category,
    "day": lambda view, attribution, rows: (
        view.timestamp[rows] // 86400.0
    ).astype(np.int64),
    "rtt": _rtt,
}

#: The source address: three key columns.
SOURCE = ("family", "hi", "lo")

#: The summed measures: name → column(view, rows).
MEASURES: Dict[str, Callable] = {
    "bytes": lambda view, rows: view.response_size[rows],
}


def _width(dtype: np.dtype) -> Optional[int]:
    """Bits a key column packs into as it is; None for one that is ranked
    first (signed, 64-bit or float)."""
    if dtype == np.bool_:
        return 1
    if dtype.kind == "u" and dtype.itemsize <= 4:
        return 8 * dtype.itemsize
    return None


def _group(columns: Sequence[np.ndarray]) -> Tuple[np.ndarray, np.ndarray]:
    """Equal rows of some key columns: the index of each distinct key's
    first row, and each row's distinct key.

    The columns pack into one int64, a narrow column by shifting it in,
    a wide one by its rank among its own distinct values, and the packed
    key is re-ranked whenever the next column would overflow it; one
    ``np.unique`` over the packed keys then groups the rows."""
    packed, bits = np.zeros(len(columns[0]), dtype=np.int64), 0
    for column in columns:
        width = _width(column.dtype)
        if width is None:
            distinct, column = np.unique(column, return_inverse=True)
            width = (len(distinct) - 1).bit_length()
        if bits + width > 62:
            distinct, packed = np.unique(packed, return_inverse=True)
            bits = (len(distinct) - 1).bit_length()
        packed = (packed << width) | column.astype(np.int64)
        bits += width
    _, first, inverse = np.unique(packed, return_index=True, return_inverse=True)
    return first, inverse


def _reduce(part: Dict[str, np.ndarray], key: Sequence[str]) -> Dict[str, np.ndarray]:
    """One row per distinct key of ``part``, every other column summed."""
    first, inverse = _group([part[name] for name in key])
    reduced = {name: part[name][first] for name in key}
    for name in part.keys() - set(key):
        sums = np.zeros(len(first), dtype=np.int64)
        np.add.at(sums, inverse, part[name].astype(np.int64, copy=False))
        reduced[name] = sums
    return reduced


class CountTable:
    """Row counts (``n``), and integer sums of measures, keyed by columns.

    A fold reduces each chunk to its distinct keys and keeps that as a
    pending part; the parts are cut down to one when they pile up (past
    twice the compacted rows plus :data:`PENDING_KEYS`) and when read, so
    a fold never re-sorts everything it has seen for each chunk.  A
    string column is held as codes into the table's own vocabulary, into
    which each chunk's strings are re-coded.
    """

    def __init__(self, key: Sequence[str], measures: Sequence[str] = ()):
        self.key = tuple(key)
        self.measures = tuple(measures)
        #: String column → its strings, each mapped to its code.
        self.vocab: Dict[str, Dict[str, int]] = {}
        self._parts: List[Dict[str, np.ndarray]] = []
        self._held = 0

    def fold(self, columns: Dict[str, object], measures: Dict[str, np.ndarray]) -> None:
        """Add one chunk's rows: its key columns, a string column as its
        (strings, codes) pair, and its measure columns."""
        part = {
            name: self._recode(name, column[0])[column[1]]
            if isinstance(column, tuple) else column
            for name, column in columns.items()
        }
        rows = len(part[self.key[0]])
        if rows:
            part["n"] = np.ones(rows, dtype=np.int64)
            part.update(measures)
            self._add(_reduce(part, self.key))

    def _recode(self, name: str, strings: Sequence[str]) -> np.ndarray:
        """The codes of ``strings`` in this table's vocabulary of ``name``."""
        vocab = self.vocab.setdefault(name, {})
        for string in strings:
            if string not in vocab:
                vocab[string] = len(vocab)
        codes = [vocab[string] for string in strings]
        return np.array(codes, dtype=np.min_scalar_type(len(vocab)))

    def _add(self, part: Dict[str, np.ndarray]) -> None:
        self._parts.append(part)
        self._held += len(part["n"])
        if self._held > 2 * len(self._parts[0]["n"]) + PENDING_KEYS:
            self._compact()

    def _compact(self) -> None:
        if len(self._parts) > 1:
            part = {
                name: np.concatenate([part[name] for part in self._parts])
                for name in self._parts[0]
            }
            self._parts = [_reduce(part, self.key)]
            self._held = len(self._parts[0]["n"])

    def rows(self) -> Dict[str, np.ndarray]:
        """The table, one row per distinct key: each key column (a string
        one as an object array of its strings), ``n`` and each measure."""
        self._compact()
        if not self._parts:
            return {name: np.zeros(0, dtype=object if name in self.key else np.int64)
                    for name in self.key + ("n",) + self.measures}
        rows = dict(self._parts[0])
        for name, vocab in self.vocab.items():
            rows[name] = np.array(list(vocab), dtype=object)[rows[name]]
        return rows

    def sums(self, *columns: str, value: str = "n") -> Dict:
        """``value`` summed per distinct value of ``columns`` (a tuple of
        them for more than one): a GROUP BY over the table."""
        rows = self.rows()
        if len(columns) == 1:
            keys = rows[columns[0]].tolist()
        else:
            keys = zip(*(rows[name].tolist() for name in columns))
        sums: Counter = Counter()
        for key, count in zip(keys, rows[value].tolist()):
            sums[key] += count
        return sums


def _addresses(rows, mask=None) -> List[Tuple[int, int, int]]:
    """The sorted (family, hi64, lo64) source keys of the table rows under
    ``mask``."""
    columns = (rows[name] for name in SOURCE)
    if mask is not None:
        columns = (column[mask] for column in columns)
    return sorted(set(zip(*(column.tolist() for column in columns))))


class StreamingAggregator:
    """One metric: a key spec over one :class:`CountTable`, folded the
    same way for every metric; subclasses render it."""

    #: Registry key; subclasses override.
    name = "base"
    #: Key columns (:data:`COLUMNS`) and summed measures (:data:`MEASURES`).
    key: Tuple[str, ...] = ()
    measures: Tuple[str, ...] = ()

    def __init__(self, providers: Sequence[str]):
        self.providers = tuple(providers)
        self.table = CountTable(self.key, self.measures)

    def where(self, view: CaptureView, attribution: AttributionResult):
        """The rows the metric counts: a mask, or all of them."""
        return slice(None)

    def feed(self, view: CaptureView, attribution: AttributionResult) -> None:
        rows = self.where(view, attribution)
        self.table.fold(
            {name: COLUMNS[name](view, attribution, rows) for name in self.key},
            {name: MEASURES[name](view, rows) for name in self.measures},
        )

    def exact_state(self):
        """The table rendered as canonical plain data, exact and
        partition-invariant: two folds agree iff their states do."""
        raise NotImplementedError

    def finalize(self):
        raise NotImplementedError

    def _per_provider(self, sums: Dict, value=lambda key: 1) -> Dict[str, int]:
        """Per configured provider, the ``sums`` of its label (keyed by
        ``(label, …)`` tuples), each weighted by ``value(key)``."""
        out = dict.fromkeys(self.providers, 0)
        for key, count in sums.items():
            if key[0] in out:
                out[key[0]] += count * value(key)
        return out

    def _histograms(self, sums: Dict) -> Dict[str, Dict[int, int]]:
        """Per configured provider, the ``sums`` of its label (keyed by
        ``(label, value, …)`` tuples) per value."""
        out = {p: {} for p in self.providers}
        for (label, value, *_), count in sums.items():
            if label in out:
                out[label][value] = out[label].get(value, 0) + count
        return out


class ProviderShareAggregator(StreamingAggregator):
    """Figure 1: per-provider query counts over the capture total."""

    name = "provider_shares"
    key = ("label",)

    def exact_state(self):
        sums = self.table.sums("label")
        return {
            "total": sum(sums.values()),
            "counts": {p: sums.get(p, 0) for p in self.providers},
        }

    def finalize(self) -> Dict[str, float]:
        state = self.exact_state()
        total = state["total"]
        return {p: float(n) / total if total else 0.0 for p, n in state["counts"].items()}


class RRTypeMixAggregator(StreamingAggregator):
    """Figures 2/3: per-provider query counts by qtype value."""

    name = "rrtype_mix"
    key = ("label", "qtype")

    def exact_state(self):
        by_qtype = self._histograms(self.table.sums(*self.key))
        totals = {p: sum(counts.values()) for p, counts in by_qtype.items()}
        return {"totals": totals, "by_qtype": by_qtype}

    def finalize(self) -> Dict[str, Dict[int, int]]:
        by_qtype = self.exact_state()["by_qtype"]
        return {p: dict(sorted(counts.items())) for p, counts in by_qtype.items()}


def _junk(key) -> bool:
    return key[-1] != int(RCode.NOERROR)


class JunkAggregator(StreamingAggregator):
    """Figure 4: non-NOERROR counts, per provider and overall."""

    name = "junk"
    key = ("label", "rcode")

    def exact_state(self):
        sums = self.table.sums(*self.key)
        return {
            "total": sum(sums.values()),
            "junk_total": sum(n for key, n in sums.items() if _junk(key)),
            "provider_totals": self._per_provider(sums),
            "provider_junk": self._per_provider(sums, _junk),
        }

    def finalize(self) -> Dict[str, float]:
        state = self.exact_state()
        totals, junk = state["provider_totals"], state["provider_junk"]
        return {p: float(junk[p]) / totals[p] if totals[p] else 0.0 for p in totals}


class TransportAggregator(StreamingAggregator):
    """Table 5: per-provider family and transport counts."""

    name = "transport"
    key = ("label", "family", "transport")

    def exact_state(self):
        sums = self.table.sums(*self.key)
        return {
            "totals": self._per_provider(sums),
            "v6": self._per_provider(sums, lambda key: key[1] == 6),
            "tcp": self._per_provider(sums, lambda key: key[2] == int(Transport.TCP)),
        }

    def finalize(self) -> Dict[str, Tuple[int, int, int]]:
        state = self.exact_state()
        return {p: (n, state["v6"][p], state["tcp"][p]) for p, n in state["totals"].items()}


@lru_cache(maxsize=1 << 16)
def _is_public(prefixes: Tuple[str, ...], key: Tuple[int, int, int]) -> bool:
    """Whether a source lies in the advertised prefixes: a pure function of
    the address, so a bounded memo serves every table."""
    from .google_split import build_public_dns_trie

    return build_public_dns_trie(prefixes).lookup_value(join_address(*key)) is not None


class GoogleSplitAggregator(StreamingAggregator):
    """Tables 4/7: Public-DNS vs rest split of Google's traffic, by
    Google's advertised Public DNS egress prefixes
    (:data:`~repro.clouds.GOOGLE_PUBLIC_DNS_PREFIXES`), which a source's
    membership in is decided when the table is read."""

    name = "google_split"
    key = SOURCE
    provider = "Google"
    public_prefixes = GOOGLE_PUBLIC_DNS_PREFIXES

    def where(self, view, attribution):
        return attribution.provider_mask(self.provider)

    def exact_state(self):
        rows = self.table.rows()
        addresses = list(zip(*(rows[name].tolist() for name in SOURCE)))
        public = [_is_public(self.public_prefixes, key) for key in addresses]
        counts = rows["n"].tolist()
        return {
            "total_queries": sum(counts),
            "public_queries": sum(compress(counts, public)),
            "addresses": sorted(addresses),
            "public_addresses": sorted(compress(addresses, public)),
        }

    def finalize(self):
        from .google_split import GoogleSplit

        state = self.exact_state()
        total, public = len(state["addresses"]), len(state["public_addresses"])
        return GoogleSplit(
            total_queries=state["total_queries"],
            public_queries=state["public_queries"],
            rest_queries=state["total_queries"] - state["public_queries"],
            total_resolvers=total,
            public_resolvers=public,
            rest_resolvers=total - public,
        )


class EDNSAggregator(StreamingAggregator):
    """Figure 6: advertised-bufsize histogram and truncation, per provider.

    Sizes are histogrammed over each provider's **UDP** queries (the
    population Figure 6 plots), a query without EDNS0 counted at the
    classic 512-octet limit it implies.
    """

    name = "edns"
    key = ("label", "bufsize", "tc")

    def where(self, view, attribution):
        return view.transport == int(Transport.UDP)

    def exact_state(self):
        sums = self.table.sums(*self.key)
        return {
            "udp_totals": self._per_provider(sums),
            "truncated": self._per_provider(sums, lambda key: key[2]),
            "sizes": self._histograms(sums),
        }

    def finalize(self):
        """Per provider, its :class:`~repro.analysis.edns.BufsizeCDF`: the
        sorted distinct sizes and their query-weighted cumulative share."""
        from .edns import BufsizeCDF

        cdfs = {}
        for provider, bucket in self.exact_state()["sizes"].items():
            values = np.array(sorted(bucket), dtype=np.int64)
            counts = np.array([bucket[v] for v in values.tolist()], dtype=np.intp)
            cumulative = np.cumsum(counts) / counts.sum() if bucket else np.array([])
            cdfs[provider] = BufsizeCDF(provider, values, cumulative)
        return cdfs


class SummaryAggregator(StreamingAggregator):
    """Table 3: totals, valid counts, distinct resolvers, distinct ASes."""

    name = "summary"
    key = SOURCE + ("asn", "rcode")

    def exact_state(self):
        rows = self.table.rows()
        counts = rows["n"]
        return {
            "total": int(counts.sum()),
            "valid": int(counts[rows["rcode"] == int(RCode.NOERROR)].sum()),
            "addresses": _addresses(rows),
            "asns": sorted(set(rows["asn"].tolist()) - {0}),
        }

    def finalize(self):
        from .metrics import DatasetSummary

        state = self.exact_state()
        return DatasetSummary(
            queries_total=state["total"],
            queries_valid=state["valid"],
            resolvers=len(state["addresses"]),
            ases=len(state["asns"]),
        )


class InventoryAggregator(StreamingAggregator):
    """Table 6: distinct source addresses per provider and family."""

    name = "inventory"
    key = ("label",) + SOURCE

    def exact_state(self):
        rows = self.table.rows()
        return {
            f"v{family}": {
                p: _addresses(rows, (rows["label"] == p) & (rows["family"] == family))
                for p in self.providers
            }
            for family in (4, 6)
        }

    def finalize(self):
        from .metrics import InventoryRow

        rows = self.table.rows()
        inventory = {}
        for provider in self.providers:
            families = rows["family"][rows["label"] == provider]
            v4, v6 = int((families == 4).sum()), int((families == 6).sum())
            inventory[provider] = InventoryRow(provider, v4 + v6, v4, v6)
        return inventory


class QMinAggregator(StreamingAggregator):
    """Figure 3's minimised-name check: label-depth histogram of each
    provider's NS-query qnames (depth = dot count of the absolute name)."""

    name = "qmin"
    key = ("label", "ns_depth")

    def where(self, view, attribution):
        return view.qtype == int(RRType.NS)

    def exact_state(self):
        return {"ns_depths": self._histograms(self.table.sums(*self.key))}

    def finalize(self) -> Dict[str, Dict[int, int]]:
        depths = self.exact_state()["ns_depths"]
        return {p: dict(sorted(counts.items())) for p, counts in depths.items()}


def _sovereignty_factory(providers):
    from .sovereignty import SovereigntyAggregator

    return SovereigntyAggregator(providers)


def _composition_factory(providers):
    from .composition import CompositionAggregator

    return CompositionAggregator(providers)


#: Registered aggregator factories: name → factory(providers).
#: The parity/property tests iterate this registry, so new aggregators get
#: algebra coverage for free by registering here.  The sovereignty and
#: composition factories import lazily — those modules subclass
#: :class:`StreamingAggregator`, so importing them here at module top
#: would be circular.
AGGREGATOR_FACTORIES: Dict[str, Callable] = {
    ProviderShareAggregator.name: ProviderShareAggregator,
    RRTypeMixAggregator.name: RRTypeMixAggregator,
    JunkAggregator.name: JunkAggregator,
    TransportAggregator.name: TransportAggregator,
    GoogleSplitAggregator.name: GoogleSplitAggregator,
    EDNSAggregator.name: EDNSAggregator,
    SummaryAggregator.name: SummaryAggregator,
    InventoryAggregator.name: InventoryAggregator,
    QMinAggregator.name: QMinAggregator,
    "sovereignty": _sovereignty_factory,
    "composition": _composition_factory,
}


class AggregateSet:
    """The full aggregator bundle for one dataset run.

    A run feeds it every chunk of its capture as it freezes them.
    ``concentration`` (the per-AS counts), ``facebook_sites`` (Figures
    5/8) and ``rssac`` (the RSSAC002 report) are folded beside the
    registry, not in it, so the registry's
    exact states — digested by the oracle and the benchmark goldens —
    stay the figure, table and re-cut aggregators'.
    """

    def __init__(self, providers: Optional[Sequence[str]] = None):
        self.providers = tuple(PROVIDERS if providers is None else providers)
        self.rows_fed = 0
        self.aggregators: Dict[str, StreamingAggregator] = {
            name: factory(self.providers)
            for name, factory in AGGREGATOR_FACTORIES.items()
        }
        from .concentration import ConcentrationAggregator
        from .facebook import FacebookSiteAggregator
        from .rssac import RSSACAggregator

        self.concentration = ConcentrationAggregator(self.providers)
        self.facebook_sites = FacebookSiteAggregator(self.providers)
        self.rssac = RSSACAggregator(self.providers)

    def __getitem__(self, name: str) -> StreamingAggregator:
        return self.aggregators[name]

    def _beside(self) -> Tuple[StreamingAggregator, ...]:
        """The aggregators folded beside the registry."""
        return (self.concentration, self.facebook_sites, self.rssac)

    def feed(self, view: CaptureView, attribution: AttributionResult) -> None:
        self.rows_fed += len(view)
        for aggregator in self.aggregators.values():
            aggregator.feed(view, attribution)
        for aggregator in self._beside():
            aggregator.feed(view, attribution)

    def publish_metrics(self, metrics) -> None:
        """Let every aggregator that exposes telemetry roll its counters
        into the registry (``analysis.*``), once, from the folded state."""
        for aggregator in self.aggregators.values():
            publish = getattr(aggregator, "publish_metrics", None)
            if publish is not None:
                publish(metrics)
