"""Dependency-free metrics registry.

The observability spine of the reproduction: counters, gauges, fixed-bucket
histograms and re-entrant phase timers, collected in a
:class:`MetricsRegistry` and frozen into immutable
:class:`TelemetrySnapshot` objects that serialise to JSON.

Design constraints, in order:

* **Hot-path cost must be negligible.**  The resolve loop runs O(10^5)
  client queries per dataset; per-event instrumentation is therefore plain
  attribute increments on pre-fetched metric objects (``counter.inc()`` is
  one dict-free method call), and the pipeline layers that are truly hot
  (``SimResolver``, ``AuthoritativeServer``) keep their existing local
  stats structs and are *aggregated* into the registry once per run.
* **No dependencies.**  Pure stdlib; numpy-side callers that already hold
  column arrays can pre-bucket and feed :meth:`Histogram.add_bulk`.
* **Single-threaded.**  The simulator is single-threaded; no locks.

Metric identity is ``name`` plus optional labels, rendered canonically as
``name{k=v,...}`` with keys sorted — the flat string form is what appears
in snapshots, JSON exports and summaries.
"""

from __future__ import annotations

import json
import logging
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

logger = logging.getLogger("repro.telemetry")


#: Characters with structural meaning inside a flat key's ``{...}`` block.
#: They are backslash-escaped in label keys/values so that arbitrary label
#: content (qnames, provider strings, file paths) round-trips through
#: :func:`metric_key`/:func:`split_key` losslessly.
_KEY_SPECIALS = ",={}\\"


def _escape_label(text: str) -> str:
    if not any(ch in _KEY_SPECIALS for ch in text):
        return text
    return "".join("\\" + ch if ch in _KEY_SPECIALS else ch for ch in text)


def metric_key(name: str, labels: Mapping[str, object]) -> str:
    """Canonical flat key: ``name`` or ``name{k=v,...}`` (keys sorted).

    Structural characters (``, = { } \\``) appearing in label keys or
    values are backslash-escaped, so any string label survives the
    :func:`split_key` round-trip.
    """
    if not labels:
        return name
    inner = ",".join(
        f"{_escape_label(key)}={_escape_label(str(labels[key]))}"
        for key in sorted(labels)
    )
    return f"{name}{{{inner}}}"


def split_key(key: str) -> Tuple[str, Dict[str, str]]:
    """Inverse of :func:`metric_key` (label values come back as strings).

    Honours the backslash escapes :func:`metric_key` writes; the first
    unescaped ``{`` opens the label block, so metric names themselves must
    not contain ``{`` (they are code-controlled dotted identifiers).
    """
    if not key.endswith("}") or "{" not in key:
        return key, {}
    name, _, inner = key[:-1].partition("{")
    labels: Dict[str, str] = {}
    current: List[str] = []
    label: Optional[str] = None
    i, end = 0, len(inner)
    while i < end:
        ch = inner[i]
        if ch == "\\" and i + 1 < end:
            current.append(inner[i + 1])
            i += 2
            continue
        if ch == "=" and label is None:
            label = "".join(current)
            current = []
        elif ch == ",":
            if label is not None or current:
                labels["".join(current) if label is None else label] = (
                    "" if label is None else "".join(current)
                )
            label = None
            current = []
        else:
            current.append(ch)
        i += 1
    if label is not None:
        labels[label] = "".join(current)
    elif current:
        labels["".join(current)] = ""
    return name, labels


class Counter:
    """Monotonic event count.  Hold the object and call :meth:`inc`."""

    __slots__ = ("key", "value")

    def __init__(self, key: str):
        self.key = key
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class Gauge:
    """Last-write-wins instantaneous value."""

    __slots__ = ("key", "value")

    def __init__(self, key: str):
        self.key = key
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


#: Default histogram boundaries: coarse powers-of-two, good enough for
#: byte sizes and millisecond latencies alike.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    1.0, 4.0, 16.0, 64.0, 256.0, 1024.0, 4096.0, 16384.0, 65536.0,
)


class Histogram:
    """Fixed-boundary histogram (upper-inclusive buckets plus overflow).

    ``bounds`` are the inclusive upper edges; an observation lands in the
    first bucket whose edge is >= the value, or in the final overflow
    bucket.  ``bucket_counts`` therefore has ``len(bounds) + 1`` entries.
    """

    __slots__ = ("key", "bounds", "bucket_counts", "count", "sum", "min", "max")

    def __init__(self, key: str, bounds: Sequence[float] = DEFAULT_BUCKETS):
        if list(bounds) != sorted(bounds) or len(bounds) != len(set(bounds)):
            raise ValueError("histogram bounds must be strictly increasing")
        self.key = key
        self.bounds: Tuple[float, ...] = tuple(float(b) for b in bounds)
        self.bucket_counts: List[int] = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def add_bulk(
        self,
        bucket_counts: Sequence[int],
        count: int,
        total: float,
        minimum: Optional[float],
        maximum: Optional[float],
    ) -> None:
        """Merge pre-bucketed data (e.g. from ``np.searchsorted`` over a
        capture column) without a per-value Python loop."""
        if len(bucket_counts) != len(self.bucket_counts):
            raise ValueError(
                f"expected {len(self.bucket_counts)} buckets, "
                f"got {len(bucket_counts)}"
            )
        for i, c in enumerate(bucket_counts):
            self.bucket_counts[i] += int(c)
        self.count += int(count)
        self.sum += float(total)
        if minimum is not None and (self.min is None or minimum < self.min):
            self.min = float(minimum)
        if maximum is not None and (self.max is None or maximum > self.max):
            self.max = float(maximum)

    def as_dict(self) -> Dict[str, object]:
        return {
            "bounds": list(self.bounds),
            "bucket_counts": list(self.bucket_counts),
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
        }


@dataclass
class PhaseStat:
    """Accumulated spans for one named phase."""

    count: int = 0
    total_s: float = 0.0
    max_s: float = 0.0

    def add(self, seconds: float) -> None:
        self.count += 1
        self.total_s += seconds
        if seconds > self.max_s:
            self.max_s = seconds

    def as_dict(self) -> Dict[str, object]:
        return {"count": self.count, "total_s": self.total_s, "max_s": self.max_s}


@dataclass
class TelemetrySnapshot:
    """Immutable, JSON-safe freeze of a registry.

    ``counters``/``gauges`` map flat metric keys to values; ``phases`` and
    ``histograms`` map names to their ``as_dict()`` forms.
    """

    counters: Dict[str, int] = field(default_factory=dict)
    gauges: Dict[str, float] = field(default_factory=dict)
    phases: Dict[str, Dict[str, object]] = field(default_factory=dict)
    histograms: Dict[str, Dict[str, object]] = field(default_factory=dict)

    # -- reading ---------------------------------------------------------------

    def counter(self, name: str, **labels) -> int:
        """One counter's value (0 when never incremented)."""
        return self.counters.get(metric_key(name, labels), 0)

    def total(self, name: str) -> int:
        """Sum of a counter family over all label combinations."""
        return sum(
            value for key, value in self.counters.items()
            if split_key(key)[0] == name
        )

    def phase_seconds(self, name: str) -> float:
        stat = self.phases.get(name)
        return float(stat["total_s"]) if stat else 0.0

    # -- arithmetic ------------------------------------------------------------

    def diff(self, earlier: "TelemetrySnapshot") -> "TelemetrySnapshot":
        """What happened between ``earlier`` and this snapshot: counter and
        phase-time deltas (zero deltas dropped), gauges at their new values."""
        counters = {
            key: value - earlier.counters.get(key, 0)
            for key, value in self.counters.items()
            if value != earlier.counters.get(key, 0)
        }
        phases: Dict[str, Dict[str, object]] = {}
        for name, stat in self.phases.items():
            before = earlier.phases.get(name, {"count": 0, "total_s": 0.0})
            delta_spans = int(stat["count"]) - int(before["count"])
            delta_s = float(stat["total_s"]) - float(before["total_s"])
            if delta_spans or delta_s > 1e-12:
                phases[name] = {
                    "count": delta_spans,
                    "total_s": delta_s,
                    "max_s": float(stat["max_s"]),
                }
        return TelemetrySnapshot(
            counters=counters, gauges=dict(self.gauges), phases=phases
        )

    # -- serialisation ----------------------------------------------------------

    def as_dict(self) -> Dict[str, object]:
        return {
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "phases": {k: dict(v) for k, v in self.phases.items()},
            "histograms": {k: dict(v) for k, v in self.histograms.items()},
        }

    def write_json(self, path: str) -> None:
        with open(path, "w") as handle:
            handle.write(json.dumps(self.as_dict(), indent=2, sort_keys=True))
            handle.write("\n")


class MetricsRegistry:
    """Factory and store for all metric instruments.

    ``counter``/``gauge``/``histogram`` are get-or-create: the same
    (name, labels) always returns the same object, so callers in loops
    fetch once and increment the returned object directly.
    """

    def __init__(self):
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._phases: Dict[str, PhaseStat] = {}

    # -- instruments ------------------------------------------------------------

    def counter(self, name: str, **labels) -> Counter:
        key = metric_key(name, labels)
        instrument = self._counters.get(key)
        if instrument is None:
            instrument = self._counters[key] = Counter(key)
        return instrument

    def gauge(self, name: str, **labels) -> Gauge:
        key = metric_key(name, labels)
        instrument = self._gauges.get(key)
        if instrument is None:
            instrument = self._gauges[key] = Gauge(key)
        return instrument

    def histogram(
        self, name: str, buckets: Sequence[float] = DEFAULT_BUCKETS, **labels
    ) -> Histogram:
        key = metric_key(name, labels)
        instrument = self._histograms.get(key)
        if instrument is None:
            instrument = self._histograms[key] = Histogram(key, buckets)
        elif tuple(float(b) for b in buckets) != instrument.bounds:
            raise ValueError(f"histogram {key!r} re-registered with new bounds")
        return instrument

    # -- phase timing ------------------------------------------------------------

    @contextmanager
    def time_phase(self, name: str):
        """Span timer; re-entering the same name accumulates spans."""
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            stat = self.observe_phase(name, elapsed)
            logger.debug("phase %s: span %.4fs (total %.4fs over %d spans)",
                         name, elapsed, stat.total_s, stat.count)

    def observe_phase(self, name: str, seconds: float) -> PhaseStat:
        """Record one externally-timed span (e.g. a worker-measured shard
        duration shipped across a process boundary)."""
        stat = self._phases.get(name)
        if stat is None:
            stat = self._phases[name] = PhaseStat()
        stat.add(seconds)
        return stat

    def phase_seconds(self, name: str) -> float:
        stat = self._phases.get(name)
        return stat.total_s if stat is not None else 0.0

    # -- lifecycle --------------------------------------------------------------

    def snapshot(self) -> TelemetrySnapshot:
        return TelemetrySnapshot(
            counters={k: c.value for k, c in self._counters.items()},
            gauges={k: g.value for k, g in self._gauges.items()},
            phases={k: p.as_dict() for k, p in self._phases.items()},
            histograms={k: h.as_dict() for k, h in self._histograms.items()},
        )

    def merge_snapshot(self, snap: TelemetrySnapshot) -> None:
        """Fold a snapshot into this registry (counters/phases/histograms
        add; gauges take the snapshot's value).  Used to roll per-dataset
        run telemetry up into a session-level registry.  A snapshot's keys
        are canonical already (a registry or its JSON dump wrote them), so
        counters and gauges are added under the key as given."""
        for key, value in snap.counters.items():
            counter = self._counters.get(key)
            if counter is None:
                counter = self._counters[key] = Counter(key)
            counter.inc(value)
        for key, value in snap.gauges.items():
            gauge = self._gauges.get(key)
            if gauge is None:
                gauge = self._gauges[key] = Gauge(key)
            gauge.set(value)
        for name, stat in snap.phases.items():
            mine = self._phases.get(name)
            if mine is None:
                mine = self._phases[name] = PhaseStat()
            mine.count += int(stat["count"])
            mine.total_s += float(stat["total_s"])
            mine.max_s = max(mine.max_s, float(stat["max_s"]))
        for key, data in snap.histograms.items():
            name, labels = split_key(key)
            hist = self.histogram(name, buckets=data["bounds"], **labels)
            hist.add_bulk(
                data["bucket_counts"], data["count"], data["sum"],
                data["min"], data["max"],
            )
