"""Mergeable single-pass aggregators over capture chunks.

These are the reducers behind every figure and table: small
**aggregator** objects that fold chunk views into compact state and
merge across shards — the shape of the paper's ENTRADA pipeline, where
55.7B queries reduce to per-category aggregates without the row set ever
being resident.  A capture that *is* resident is the one-chunk case
(:meth:`~repro.analysis.analytics.DatasetAnalytics.over`); every
simulated run folds its chunks in the shards that froze them.

Every aggregator implements the :class:`StreamingAggregator` protocol:

``feed(view, attribution)``
    Fold one bounded chunk (plus its per-row attribution labels, which are
    a deterministic function of the chunk) into the state.
``merge(other)``
    Absorb another instance's state (same type, same configuration).
    Merging is associative and order-insensitive, and feeding a partition
    of a capture chunk-by-chunk is equivalent to feeding it whole — the
    algebra the property tests in ``tests/test_streaming_algebra.py`` pin
    down.
``finalize()``
    The metric's result.  State is integer counts and sets, and every
    division happens here on the merged totals, so the result does not
    depend on how the rows were chunked (``tests/test_streaming_parity.py``
    pins the bytes).

States are plain picklable containers (ints, dicts, Counters, sets of int
tuples), so pool workers ship them back to the parent beside their
chunks.  :class:`AggregateSet` bundles the full registry for one dataset
run and is what rides on every :class:`~repro.sim.DatasetRun.aggregates`.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, Dict, Iterable, Optional, Sequence, Set, Tuple

import numpy as np

from ..capture import CaptureView, Transport, join_address
from ..dnscore import RCode, RRType
from .attribution import AttributionResult

#: Address key as stored in aggregator states: (family, hi64, lo64).
AddressKey = Tuple[int, int, int]


def _address_key_set(
    view: CaptureView, mask: Optional[np.ndarray] = None
) -> Set[AddressKey]:
    """Distinct (family, hi, lo) keys under a mask, as plain int tuples."""
    columns = (view.family, view.src_hi, view.src_lo)
    if mask is not None:
        columns = tuple(column[mask] for column in columns)
    return set(zip(*(column.tolist() for column in columns)))


def _require_same_config(a, b) -> None:
    if type(a) is not type(b) or a.config() != b.config():
        raise ValueError(
            f"cannot merge {type(b).__name__}{b.config()} into "
            f"{type(a).__name__}{a.config()}"
        )


class StreamingAggregator:
    """Base class: configuration equality + the feed/merge/finalize shape."""

    #: Registry key; subclasses override.
    name = "base"

    def config(self) -> tuple:
        """Hashable configuration; merges require equal configs."""
        return ()

    def feed(self, view: CaptureView, attribution: AttributionResult) -> None:
        raise NotImplementedError

    def merge(self, other: "StreamingAggregator") -> None:
        raise NotImplementedError

    def finalize(self):
        raise NotImplementedError

    def state(self):
        """Canonical plain-data snapshot of the folded state (test hook:
        two aggregators agree iff their states compare equal)."""
        raise NotImplementedError

    def exact_state(self):
        """The partition-invariant part of :meth:`state`.

        Most aggregators are fully exact and inherit ``exact_state ==
        state``.  Aggregators carrying genuinely approximate state (the
        composition heavy-hitter summary) override this to expose only
        the fields whose merge algebra is lossless — the part the
        registry-wide property tests compare bit-for-bit; the
        approximate remainder is held to explicit error bounds instead.
        """
        return self.state()


class ProviderShareAggregator(StreamingAggregator):
    """Figure 1: per-provider query counts over the capture total."""

    name = "provider_shares"

    def __init__(self, providers: Sequence[str]):
        self.providers = tuple(providers)
        self.total = 0
        self.counts: Dict[str, int] = {p: 0 for p in self.providers}

    def config(self) -> tuple:
        return (self.providers,)

    def feed(self, view: CaptureView, attribution: AttributionResult) -> None:
        self.total += len(view)
        for provider in self.providers:
            self.counts[provider] += int(
                (attribution.providers == provider).sum()
            )

    def merge(self, other: "ProviderShareAggregator") -> None:
        _require_same_config(self, other)
        self.total += other.total
        for provider in self.providers:
            self.counts[provider] += other.counts[provider]

    def state(self):
        return {"total": self.total, "counts": dict(self.counts)}

    def finalize(self) -> Dict[str, float]:
        if self.total == 0:
            return {p: 0.0 for p in self.providers}
        return {
            p: float(self.counts[p]) / self.total for p in self.providers
        }


class RRTypeMixAggregator(StreamingAggregator):
    """Figures 2/3: per-provider query counts by qtype value."""

    name = "rrtype_mix"

    def __init__(self, providers: Sequence[str]):
        self.providers = tuple(providers)
        self.totals: Dict[str, int] = {p: 0 for p in self.providers}
        self.by_qtype: Dict[str, Counter] = {p: Counter() for p in self.providers}

    def config(self) -> tuple:
        return (self.providers,)

    def feed(self, view: CaptureView, attribution: AttributionResult) -> None:
        for provider in self.providers:
            qtypes = view.qtype[attribution.provider_mask(provider)]
            if not len(qtypes):
                continue
            self.totals[provider] += len(qtypes)
            values, counts = np.unique(qtypes, return_counts=True)
            bucket = self.by_qtype[provider]
            for value, count in zip(values, counts):
                bucket[int(value)] += int(count)

    def merge(self, other: "RRTypeMixAggregator") -> None:
        _require_same_config(self, other)
        for provider in self.providers:
            self.totals[provider] += other.totals[provider]
            self.by_qtype[provider].update(other.by_qtype[provider])

    def state(self):
        return {
            "totals": dict(self.totals),
            "by_qtype": {p: dict(c) for p, c in self.by_qtype.items()},
        }

    def count(self, provider: str, rrtype: int) -> int:
        return self.by_qtype[provider].get(int(rrtype), 0)

    def finalize(self) -> Dict[str, Dict[int, int]]:
        return {p: dict(sorted(self.by_qtype[p].items())) for p in self.providers}


class JunkAggregator(StreamingAggregator):
    """Figure 4: non-NOERROR counts, per provider and overall."""

    name = "junk"

    def __init__(self, providers: Sequence[str]):
        self.providers = tuple(providers)
        self.total = 0
        self.junk_total = 0
        self.provider_totals: Dict[str, int] = {p: 0 for p in self.providers}
        self.provider_junk: Dict[str, int] = {p: 0 for p in self.providers}

    def config(self) -> tuple:
        return (self.providers,)

    def feed(self, view: CaptureView, attribution: AttributionResult) -> None:
        junk_mask = view.rcode != int(RCode.NOERROR)
        self.total += len(view)
        self.junk_total += int(junk_mask.sum())
        for provider in self.providers:
            mask = attribution.provider_mask(provider)
            self.provider_totals[provider] += int(mask.sum())
            self.provider_junk[provider] += int((junk_mask & mask).sum())

    def merge(self, other: "JunkAggregator") -> None:
        _require_same_config(self, other)
        self.total += other.total
        self.junk_total += other.junk_total
        for provider in self.providers:
            self.provider_totals[provider] += other.provider_totals[provider]
            self.provider_junk[provider] += other.provider_junk[provider]

    def state(self):
        return {
            "total": self.total,
            "junk_total": self.junk_total,
            "provider_totals": dict(self.provider_totals),
            "provider_junk": dict(self.provider_junk),
        }

    def finalize(self) -> Dict[str, float]:
        return {
            p: (
                float(self.provider_junk[p]) / self.provider_totals[p]
                if self.provider_totals[p]
                else 0.0
            )
            for p in self.providers
        }

    def overall(self) -> float:
        """Vantage-wide junk ratio."""
        if self.total == 0:
            return 0.0
        return self.junk_total / self.total


class TransportAggregator(StreamingAggregator):
    """Table 5: per-provider family and transport counts."""

    name = "transport"

    def __init__(self, providers: Sequence[str]):
        self.providers = tuple(providers)
        self.totals: Dict[str, int] = {p: 0 for p in self.providers}
        self.v6: Dict[str, int] = {p: 0 for p in self.providers}
        self.tcp: Dict[str, int] = {p: 0 for p in self.providers}

    def config(self) -> tuple:
        return (self.providers,)

    def feed(self, view: CaptureView, attribution: AttributionResult) -> None:
        for provider in self.providers:
            mask = attribution.provider_mask(provider)
            total = int(mask.sum())
            if not total:
                continue
            self.totals[provider] += total
            self.v6[provider] += int((view.family[mask] == 6).sum())
            self.tcp[provider] += int(
                (view.transport[mask] == int(Transport.TCP)).sum()
            )

    def merge(self, other: "TransportAggregator") -> None:
        _require_same_config(self, other)
        for provider in self.providers:
            self.totals[provider] += other.totals[provider]
            self.v6[provider] += other.v6[provider]
            self.tcp[provider] += other.tcp[provider]

    def state(self):
        return {
            "totals": dict(self.totals),
            "v6": dict(self.v6),
            "tcp": dict(self.tcp),
        }

    def finalize(self) -> Dict[str, Tuple[int, int, int]]:
        return {
            p: (self.totals[p], self.v6[p], self.tcp[p]) for p in self.providers
        }


class GoogleSplitAggregator(StreamingAggregator):
    """Tables 4/7: Public-DNS vs rest split of one provider's traffic.

    Membership of an address in the advertised egress prefixes is a pure
    function of the configured prefix list, so the per-address cache and
    the trie are rebuilt on demand and excluded from pickled state.
    """

    name = "google_split"

    def __init__(self, public_prefixes: Sequence[str], provider: str = "Google"):
        self.provider = provider
        self.public_prefixes = tuple(public_prefixes)
        self.total_queries = 0
        self.public_queries = 0
        self.addresses: Set[AddressKey] = set()
        self.public_addresses: Set[AddressKey] = set()
        self._trie = None
        self._member_cache: Dict[AddressKey, bool] = {}

    def config(self) -> tuple:
        return (self.provider, self.public_prefixes)

    def __getstate__(self):
        state = self.__dict__.copy()
        state["_trie"] = None
        state["_member_cache"] = {}
        return state

    def _is_public(self, key: AddressKey) -> bool:
        hit = self._member_cache.get(key)
        if hit is None:
            if self._trie is None:
                from .google_split import build_public_dns_trie

                self._trie = build_public_dns_trie(self.public_prefixes)
            hit = self._trie.lookup_value(join_address(*key)) is not None
            self._member_cache[key] = hit
        return hit

    def feed(self, view: CaptureView, attribution: AttributionResult) -> None:
        mask = attribution.provider_mask(self.provider)
        if not mask.any():
            return
        keys = view.address_keys(mask)
        unique, counts = np.unique(keys, return_counts=True)
        for row, count in zip(unique, counts):
            key = (int(row["f"]), int(row["h"]), int(row["l"]))
            self.addresses.add(key)
            self.total_queries += int(count)
            if self._is_public(key):
                self.public_addresses.add(key)
                self.public_queries += int(count)

    def merge(self, other: "GoogleSplitAggregator") -> None:
        _require_same_config(self, other)
        self.total_queries += other.total_queries
        self.public_queries += other.public_queries
        self.addresses |= other.addresses
        self.public_addresses |= other.public_addresses

    def state(self):
        return {
            "total_queries": self.total_queries,
            "public_queries": self.public_queries,
            "addresses": sorted(self.addresses),
            "public_addresses": sorted(self.public_addresses),
        }

    def finalize(self):
        from .google_split import GoogleSplit

        return GoogleSplit(
            total_queries=self.total_queries,
            public_queries=self.public_queries,
            rest_queries=self.total_queries - self.public_queries,
            total_resolvers=len(self.addresses),
            public_resolvers=len(self.public_addresses),
            rest_resolvers=len(self.addresses - self.public_addresses),
        )


class EDNSAggregator(StreamingAggregator):
    """Figure 6: advertised-bufsize histogram and truncation, per provider.

    Sizes are histogrammed over each provider's **UDP** queries (the
    population Figure 6 plots), a query without EDNS0 counted at the
    classic 512-octet limit it implies.
    """

    name = "edns"

    def __init__(self, providers: Sequence[str]):
        self.providers = tuple(providers)
        self.udp_totals: Dict[str, int] = {p: 0 for p in self.providers}
        self.truncated: Dict[str, int] = {p: 0 for p in self.providers}
        self.sizes: Dict[str, Counter] = {p: Counter() for p in self.providers}

    def config(self) -> tuple:
        return (self.providers,)

    def feed(self, view: CaptureView, attribution: AttributionResult) -> None:
        udp_mask = view.transport == int(Transport.UDP)
        for provider in self.providers:
            mask = attribution.provider_mask(provider) & udp_mask
            total = int(mask.sum())
            if not total:
                continue
            self.udp_totals[provider] += total
            self.truncated[provider] += int(view.truncated[mask].sum())
            sizes = view.edns_bufsize[mask].astype(np.int64)
            sizes = np.where(sizes == 0, 512, sizes)
            values, counts = np.unique(sizes, return_counts=True)
            bucket = self.sizes[provider]
            for value, count in zip(values, counts):
                bucket[int(value)] += int(count)

    def merge(self, other: "EDNSAggregator") -> None:
        _require_same_config(self, other)
        for provider in self.providers:
            self.udp_totals[provider] += other.udp_totals[provider]
            self.truncated[provider] += other.truncated[provider]
            self.sizes[provider].update(other.sizes[provider])

    def state(self):
        return {
            "udp_totals": dict(self.udp_totals),
            "truncated": dict(self.truncated),
            "sizes": {p: dict(c) for p, c in self.sizes.items()},
        }

    def finalize_provider(self, provider: str):
        """One provider's :class:`~repro.analysis.edns.BufsizeCDF`: the
        sorted distinct sizes and their query-weighted cumulative share."""
        from .edns import BufsizeCDF

        bucket = self.sizes[provider]
        if not bucket:
            return BufsizeCDF(provider, np.array([], dtype=np.int64), np.array([]))
        values = np.array(sorted(bucket), dtype=np.int64)
        counts = np.array([bucket[v] for v in sorted(bucket)], dtype=np.intp)
        return BufsizeCDF(provider, values, np.cumsum(counts) / counts.sum())

    def finalize(self):
        return {p: self.finalize_provider(p) for p in self.providers}

    def truncation_ratio(self, provider: str) -> float:
        total = self.udp_totals[provider]
        if total == 0:
            return 0.0
        return float(self.truncated[provider]) / total


class SummaryAggregator(StreamingAggregator):
    """Table 3: totals, valid counts, distinct resolvers, distinct ASes."""

    name = "summary"

    def __init__(self):
        self.total = 0
        self.valid = 0
        self.addresses: Set[AddressKey] = set()
        self.asns: Set[int] = set()

    def feed(self, view: CaptureView, attribution: AttributionResult) -> None:
        self.total += len(view)
        self.valid += int((view.rcode == int(RCode.NOERROR)).sum())
        if len(view):
            self.addresses |= _address_key_set(view)
            routed = attribution.asns[attribution.asns != 0]
            self.asns.update(int(a) for a in np.unique(routed))

    def merge(self, other: "SummaryAggregator") -> None:
        _require_same_config(self, other)
        self.total += other.total
        self.valid += other.valid
        self.addresses |= other.addresses
        self.asns |= other.asns

    def state(self):
        return {
            "total": self.total,
            "valid": self.valid,
            "addresses": sorted(self.addresses),
            "asns": sorted(self.asns),
        }

    def finalize(self):
        from .metrics import DatasetSummary

        return DatasetSummary(
            queries_total=self.total,
            queries_valid=self.valid,
            resolvers=len(self.addresses),
            ases=len(self.asns),
        )


class InventoryAggregator(StreamingAggregator):
    """Table 6: distinct source addresses per provider and family."""

    name = "inventory"

    def __init__(self, providers: Sequence[str]):
        self.providers = tuple(providers)
        self.v4: Dict[str, Set[AddressKey]] = {p: set() for p in self.providers}
        self.v6: Dict[str, Set[AddressKey]] = {p: set() for p in self.providers}

    def config(self) -> tuple:
        return (self.providers,)

    def feed(self, view: CaptureView, attribution: AttributionResult) -> None:
        for provider in self.providers:
            mask = attribution.provider_mask(provider)
            if not mask.any():
                continue
            self.v4[provider] |= _address_key_set(view, mask & (view.family == 4))
            self.v6[provider] |= _address_key_set(view, mask & (view.family == 6))

    def merge(self, other: "InventoryAggregator") -> None:
        _require_same_config(self, other)
        for provider in self.providers:
            self.v4[provider] |= other.v4[provider]
            self.v6[provider] |= other.v6[provider]

    def state(self):
        return {
            "v4": {p: sorted(s) for p, s in self.v4.items()},
            "v6": {p: sorted(s) for p, s in self.v6.items()},
        }

    def finalize(self):
        from .metrics import InventoryRow

        return {
            p: InventoryRow(
                p,
                len(self.v4[p]) + len(self.v6[p]),
                len(self.v4[p]),
                len(self.v6[p]),
            )
            for p in self.providers
        }


class QMinAggregator(StreamingAggregator):
    """Figure 3's minimised-name check: label-depth histogram of each
    provider's NS-query qnames (depth = dot count of the absolute name)."""

    name = "qmin"

    def __init__(self, providers: Sequence[str]):
        self.providers = tuple(providers)
        self.ns_depths: Dict[str, Counter] = {p: Counter() for p in self.providers}

    def config(self) -> tuple:
        return (self.providers,)

    def feed(self, view: CaptureView, attribution: AttributionResult) -> None:
        ns_mask = view.qtype == int(RRType.NS)
        if not ns_mask.any():
            return
        for provider in self.providers:
            qnames = view.qname[attribution.provider_mask(provider) & ns_mask]
            if not len(qnames):
                continue
            depths = self.ns_depths[provider]
            for name in qnames:
                depths[name.count(".")] += 1

    def merge(self, other: "QMinAggregator") -> None:
        _require_same_config(self, other)
        for provider in self.providers:
            self.ns_depths[provider].update(other.ns_depths[provider])

    def state(self):
        return {"ns_depths": {p: dict(c) for p, c in self.ns_depths.items()}}

    def finalize(self):
        return {p: dict(sorted(self.ns_depths[p].items())) for p in self.providers}

    def minimized_fraction(
        self, provider: str, zone_label_count: int, max_cut_depth: int = 1
    ) -> float:
        """Fraction of the provider's NS queries exactly ``1..max_cut_depth``
        labels below the zone: a minimised query is stripped to a
        registration cut.  Absolute names carry one dot per label."""
        depths = self.ns_depths[provider]
        total = sum(depths.values())
        if total == 0:
            return 0.0
        allowed = {zone_label_count + 1 + depth for depth in range(max_cut_depth)}
        hits = sum(count for dots, count in depths.items() if dots in allowed)
        return hits / total


def _sovereignty_factory(providers, prefixes):
    from .sovereignty import SovereigntyAggregator

    return SovereigntyAggregator(providers)


def _composition_factory(providers, prefixes):
    from .composition import CompositionAggregator

    return CompositionAggregator(providers)


#: Registered aggregator factories: name → factory(providers, public_prefixes).
#: The parity/property tests iterate this registry, so new aggregators get
#: algebra coverage for free by registering here.  The sovereignty and
#: composition factories import lazily — those modules subclass
#: :class:`StreamingAggregator`, so importing them here at module top
#: would be circular.
AGGREGATOR_FACTORIES: Dict[str, Callable] = {
    ProviderShareAggregator.name: lambda providers, prefixes: ProviderShareAggregator(providers),
    RRTypeMixAggregator.name: lambda providers, prefixes: RRTypeMixAggregator(providers),
    JunkAggregator.name: lambda providers, prefixes: JunkAggregator(providers),
    TransportAggregator.name: lambda providers, prefixes: TransportAggregator(providers),
    GoogleSplitAggregator.name: lambda providers, prefixes: GoogleSplitAggregator(prefixes),
    EDNSAggregator.name: lambda providers, prefixes: EDNSAggregator(providers),
    SummaryAggregator.name: lambda providers, prefixes: SummaryAggregator(),
    InventoryAggregator.name: lambda providers, prefixes: InventoryAggregator(providers),
    QMinAggregator.name: lambda providers, prefixes: QMinAggregator(providers),
    "sovereignty": _sovereignty_factory,
    "composition": _composition_factory,
}


class AggregateSet:
    """The full aggregator bundle for one dataset run.

    Shards feed their chunks into a fresh set, ship it back, and the
    parent merges the per-shard sets.  ``concentration`` (the per-AS
    counts) is folded beside the registry, not in it, so the registry's
    exact states — digested by the oracle and the benchmark goldens —
    stay the figure, table and re-cut aggregators'.
    """

    def __init__(
        self,
        providers: Optional[Sequence[str]] = None,
        public_prefixes: Optional[Sequence[str]] = None,
    ):
        if providers is None or public_prefixes is None:
            from ..clouds import GOOGLE_PUBLIC_DNS_PREFIXES, PROVIDERS

            providers = PROVIDERS if providers is None else providers
            if public_prefixes is None:
                public_prefixes = GOOGLE_PUBLIC_DNS_PREFIXES
        self.providers = tuple(providers)
        self.public_prefixes = tuple(public_prefixes)
        self.rows_fed = 0
        self.aggregators: Dict[str, StreamingAggregator] = {
            name: factory(self.providers, self.public_prefixes)
            for name, factory in AGGREGATOR_FACTORIES.items()
        }
        from .concentration import ConcentrationAggregator

        self.concentration = ConcentrationAggregator()

    def __getitem__(self, name: str) -> StreamingAggregator:
        return self.aggregators[name]

    def feed(self, view: CaptureView, attribution: AttributionResult) -> None:
        self.rows_fed += len(view)
        for aggregator in self.aggregators.values():
            aggregator.feed(view, attribution)
        self.concentration.feed(view, attribution)

    def merge(self, other: "AggregateSet") -> None:
        if (self.providers, self.public_prefixes) != (
            other.providers, other.public_prefixes
        ):
            raise ValueError("cannot merge differently-configured AggregateSets")
        self.rows_fed += other.rows_fed
        for name, aggregator in self.aggregators.items():
            aggregator.merge(other.aggregators[name])
        self.concentration.merge(other.concentration)

    def publish_metrics(self, metrics) -> None:
        """Let every aggregator that exposes telemetry roll its counters
        into the registry (``analysis.*``); exact-only aggregators have
        nothing to publish and are skipped."""
        for aggregator in self.aggregators.values():
            publish = getattr(aggregator, "publish_metrics", None)
            if publish is not None:
                publish(metrics)

    @classmethod
    def merge_all(cls, sets: Iterable["AggregateSet"]) -> "AggregateSet":
        sets = list(sets)
        if not sets:
            return cls()
        merged = sets[0]
        for other in sets[1:]:
            merged.merge(other)
        return merged
