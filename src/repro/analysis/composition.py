"""Query-composition taxonomy: what the junk actually *is*.

Figure 4 of the paper splits traffic only into NOERROR vs non-NOERROR.
Ginesin & Mirkovic ("Understanding DNS Query Composition at B-Root",
PAPERS.md) show that split hides a taxonomy: chromium-style random
probes, leaked local/RFC 6762-ish names, meta-qtype junk, and a heavy
tail of repeated query names.  This module supplies that finer cut:

* :func:`classify_queries` — a **vectorized, per-row pure** classifier
  (each row's category depends only on that row's columns), which is what
  makes the aggregator's partition == whole algebra hold exactly;
* :class:`CompositionAggregator` — exact per-category / per-provider
  counts plus the codebase's first genuinely *approximate* state: a
  space-saving summary and a count-min sketch over query names, for
  repeated-query heavy hitters at any scale.  The exact part participates
  in the registry algebra bit-for-bit (see :meth:`exact_state`); the
  sketch part carries explicit, test-asserted error bounds instead
  (``tests/test_sketches.py``).

Category precedence (first match wins):

``leaked_local``
    qname under an RFC 6762 / site-local suffix that should never reach
    the authoritative hierarchy (``.local.``, ``.lan.``, ``.home.``,
    ``.internal.``, ``.localdomain.``, ``.home.arpa.``).
``qtype_junk``
    meta/transfer qtypes (OPT, TKEY, TSIG, IXFR, AXFR, MAILB, MAILA,
    ANY, and reserved 0) that are protocol plumbing, not name lookups.
``chromium_probe``
    single-label NXDOMAIN — the browsers' random intranet-detection
    probes that famously dominate root junk.
``nxdomain_other`` / ``error_other``
    remaining NXDOMAIN and other non-NOERROR responses.
``noerror``
    everything else (the paper's "valid" traffic).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..capture import CaptureView
from ..dnscore import RCode
from .attribution import AttributionResult
from .sketches import CountMinSketch, SpaceSavingSketch
from .streaming import StreamingAggregator, _require_same_config

#: Taxonomy categories, in canonical report order.
CATEGORIES: Tuple[str, ...] = (
    "noerror",
    "chromium_probe",
    "leaked_local",
    "qtype_junk",
    "nxdomain_other",
    "error_other",
)

#: Absolute-name suffixes that mark leaked local/mDNS-scope names.
LOCAL_SUFFIXES: Tuple[str, ...] = (
    "local.",
    "localdomain.",
    "lan.",
    "home.",
    "internal.",
    "home.arpa.",
)

#: Meta/transfer qtype values (reserved 0, OPT, TKEY..ANY) that are
#: protocol plumbing rather than name lookups.
META_QTYPES: Tuple[int, ...] = (0, 41, 249, 250, 251, 252, 253, 254, 255)

#: Default sketch shapes: 64 tracked heavy hitters (error ≤ N/64 per
#: item) and a 1024×4 count-min table (ε ≈ 0.0027, δ ≈ 0.018).
DEFAULT_TOPK_CAPACITY = 64
DEFAULT_CM_WIDTH = 1024
DEFAULT_CM_DEPTH = 4
DEFAULT_CM_SEED = 0


def classify_queries(view: CaptureView) -> np.ndarray:
    """Per-row category indices into :data:`CATEGORIES`.

    A pure function of each row's (qname, qtype, rcode) — no cross-row
    state — so classifying a partition chunk-by-chunk is identical to
    classifying the whole view.
    """
    n = len(view)
    if not n:
        return np.zeros(0, dtype=np.int8)
    qnames = view.qname.astype(str)
    dots = np.char.count(qnames, ".")
    rcode = view.rcode
    nxdomain = rcode == int(RCode.NXDOMAIN)
    any_error = rcode != int(RCode.NOERROR)

    leaked = np.zeros(n, dtype=bool)
    for suffix in LOCAL_SUFFIXES:
        leaked |= np.char.endswith(qnames, "." + suffix) | (qnames == suffix)
    qtype_junk = np.isin(view.qtype, np.array(META_QTYPES, dtype=view.qtype.dtype))
    chromium = (dots == 1) & (qnames != ".") & nxdomain

    codes = np.select(
        [leaked, qtype_junk, chromium, nxdomain, any_error],
        [
            np.int8(CATEGORIES.index("leaked_local")),
            np.int8(CATEGORIES.index("qtype_junk")),
            np.int8(CATEGORIES.index("chromium_probe")),
            np.int8(CATEGORIES.index("nxdomain_other")),
            np.int8(CATEGORIES.index("error_other")),
        ],
        default=np.int8(CATEGORIES.index("noerror")),
    )
    return codes.astype(np.int8)


@dataclass
class HeavyHitter:
    """One tracked repeated-query name with its certified count bracket."""

    qname: str
    estimate: int       #: space-saving count (never below the true count)
    error: int          #: ceiling on estimate − true
    lower_bound: int    #: max(0, estimate − error) ≤ true count
    cm_estimate: int    #: count-min cross-check (overestimate ≤ εN w.h.p.)


@dataclass
class CompositionReport:
    """Finalized taxonomy cut plus sketch-backed heavy hitters."""

    total_queries: int
    category_counts: Dict[str, int] = field(default_factory=dict)
    category_shares: Dict[str, float] = field(default_factory=dict)
    #: provider label → {category → queries} (exact).
    provider_categories: Dict[str, Dict[str, int]] = field(default_factory=dict)
    #: Top repeated-query names, heaviest first (approximate, bounded).
    heavy_hitters: List[HeavyHitter] = field(default_factory=list)
    #: Count-min εN overestimate ceiling for the heavy-hitter column.
    cm_error_bound: float = 0.0
    cm_confidence: float = 0.0


class CompositionAggregator(StreamingAggregator):
    """Exact taxonomy counting + approximate heavy-hitter sketching.

    The exact part (category and per-provider counters) merges with the
    full partition == whole algebra; :meth:`exact_state` exposes exactly
    that part (plus the count-min table, whose merge is also exact) so
    the registry-wide property tests can assert bit-equality.  The
    space-saving summary is deliberately excluded there: its merge is
    sound (bounds always bracket the truth — asserted in
    ``tests/test_sketches.py``) but not information-preserving.
    """

    name = "composition"

    def __init__(
        self,
        providers: Sequence[str],
        topk_capacity: int = DEFAULT_TOPK_CAPACITY,
        cm_width: int = DEFAULT_CM_WIDTH,
        cm_depth: int = DEFAULT_CM_DEPTH,
        cm_seed: int = DEFAULT_CM_SEED,
    ):
        self.providers = tuple(providers)
        self.total = 0
        self.category_counts: Dict[str, int] = {c: 0 for c in CATEGORIES}
        self.provider_categories: Counter = Counter()   # (label, category) → n
        self.hot_names = SpaceSavingSketch(topk_capacity)
        self.name_counts = CountMinSketch(cm_width, cm_depth, cm_seed)

    def config(self) -> tuple:
        return (
            self.providers,
            self.hot_names.capacity,
            self.name_counts.config(),
        )

    def feed(self, view: CaptureView, attribution: AttributionResult) -> None:
        n = len(view)
        if not n:
            return
        self.total += n
        codes = classify_queries(view)
        values, counts = np.unique(codes, return_counts=True)
        for code, count in zip(values.tolist(), counts.tolist()):
            self.category_counts[CATEGORIES[int(code)]] += int(count)
        labels = attribution.providers
        for label in np.unique(labels.astype(str)):
            mask = labels == label
            label = str(label)
            sub_values, sub_counts = np.unique(codes[mask], return_counts=True)
            for code, count in zip(sub_values.tolist(), sub_counts.tolist()):
                self.provider_categories[(label, CATEGORIES[int(code)])] += int(
                    count
                )
        names, name_counts = np.unique(view.qname.astype(str), return_counts=True)
        names = names.tolist()
        self.hot_names.feed_many(names, name_counts.tolist())
        self.name_counts.feed_many(names, name_counts)

    def merge(self, other: "CompositionAggregator") -> None:
        _require_same_config(self, other)
        self.total += other.total
        for category in CATEGORIES:
            self.category_counts[category] += other.category_counts[category]
        self.provider_categories.update(other.provider_categories)
        self.hot_names.merge(other.hot_names)
        self.name_counts.merge(other.name_counts)

    def state(self):
        exact = self.exact_state()
        exact["hot_names"] = self.hot_names.state()
        return exact

    def exact_state(self):
        """The partition-invariant part of the state: taxonomy counters
        and the count-min table (both merge exactly)."""
        return {
            "total": self.total,
            "category_counts": dict(self.category_counts),
            "provider_categories": {
                f"{label}|{category}": count
                for (label, category), count in sorted(
                    self.provider_categories.items()
                )
            },
            "name_counts": self.name_counts.state(),
        }

    def finalize(self, top_k: int = 10) -> CompositionReport:
        shares = {
            c: (float(self.category_counts[c]) / self.total if self.total else 0.0)
            for c in CATEGORIES
        }
        provider_categories: Dict[str, Dict[str, int]] = {}
        for (label, category), count in sorted(self.provider_categories.items()):
            provider_categories.setdefault(label, {})[category] = count
        hitters = [
            HeavyHitter(
                qname=qname,
                estimate=count,
                error=error,
                lower_bound=max(0, count - error),
                cm_estimate=self.name_counts.estimate(qname),
            )
            for qname, count, error in self.hot_names.top(top_k)
        ]
        return CompositionReport(
            total_queries=self.total,
            category_counts=dict(self.category_counts),
            category_shares=shares,
            provider_categories=provider_categories,
            heavy_hitters=hitters,
            cm_error_bound=self.name_counts.error_bound(),
            cm_confidence=self.name_counts.confidence,
        )

    def publish_metrics(self, metrics) -> None:
        """Roll sketch telemetry into the registry (`analysis.sketch.*`)."""
        metrics.counter("analysis.composition.rows").inc(self.total)
        metrics.counter("analysis.sketch.space_saving.updates").inc(
            self.hot_names.updates
        )
        metrics.counter("analysis.sketch.space_saving.evictions").inc(
            self.hot_names.evictions
        )
        metrics.counter("analysis.sketch.space_saving.items").inc(
            len(self.hot_names)
        )
        metrics.counter("analysis.sketch.countmin.updates").inc(
            self.name_counts.updates
        )
