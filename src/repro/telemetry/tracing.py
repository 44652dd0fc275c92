"""Sampled per-query lifecycle tracing.

A :class:`QueryTracer` follows individual client queries through the whole
pipeline — workload emit, resolver cache decisions, authoritative
exchanges with retransmits and failover, RRL and fault verdicts,
response-plan cache outcomes, capture appends — and collects them into a
:class:`TraceBuffer` that exports Chrome-trace/Perfetto-compatible JSON
and a JSONL event log.

Determinism contract (the same one :mod:`repro.faults.injector` makes)
----------------------------------------------------------------------
Sampling decisions are **hash-based**, not RNG-stream-based: whether a
query is traced is a pure function of ``(run seed, global resolver index,
per-member query sequence number)`` scrambled through crc32 plus a
murmur3 finalizer (:func:`hash_uniform`).  Enabling tracing therefore

* consumes no shared randomness — captures stay bit-identical to an
  untraced run,
* picks the same queries regardless of shard boundaries or worker count
  (members are whole units within shards and the sequence number is
  per-member), and
* reproduces the same trace file across runs given the same
  ``(seed, sample)``.

Event categories
----------------
Events carry a category: ``"sim"`` events are functions of the simulated
world and are identical across worker counts and repeat runs; ``"runtime"``
events (response-plan cache hits/misses) describe *execution strategy*
and legitimately differ between a serial run and a pool run (each worker
warms its own caches).  Exports drop ``runtime`` events by default so the
written trace files are bit-deterministic; pass ``include_runtime=True``
to keep them (clearly not shard-stable).

Instrumentation sites check the module-global :data:`ACTIVE` trace — one
attribute load and an ``is not None`` test when tracing is off, so the
hot path cost of a disabled tracer is negligible.
"""

from __future__ import annotations

import json
import math
import struct
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..config import TraceConfig

__all__ = [
    "ACTIVE",
    "TraceConfig",
    "QueryTrace",
    "QueryTracer",
    "TraceBuffer",
    "hash_uniform",
    "mix32",
    "read_trace_file",
    "summarize_trace_file",
]

#: Events retained per trace before further events are counted but
#: dropped (a cyclic-dependency chase can fan one client query out into
#: hundreds of exchanges; the cap keeps trace payloads bounded).
MAX_EVENTS_PER_TRACE = 512

_HASH_DENOM = float(2**32)


def mix32(digest: int) -> int:
    """Murmur3 finalizer: avalanche every input bit of a 32-bit digest.

    CRC32 alone is linear — two inputs differing in a prefix yield digests
    differing by a constant XOR, which a fixed threshold can fail to
    distinguish — so hash-derived decisions (fault verdicts, trace
    sampling) scramble the digest through this finalizer first.
    """
    digest ^= digest >> 16
    digest = (digest * 0x85EBCA6B) & 0xFFFFFFFF
    digest ^= digest >> 13
    digest = (digest * 0xC2B2AE35) & 0xFFFFFFFF
    digest ^= digest >> 16
    return digest


def hash_uniform(seed_bytes: bytes, payload: bytes) -> float:
    """Deterministic uniform [0, 1) from ``crc32 → murmur3-finalize``."""
    return mix32(zlib.crc32(seed_bytes + payload)) / _HASH_DENOM


class QueryTrace:
    """One sampled client query's recorded lifecycle.

    Events are ``[ts, cat, name, dur_s, args]`` lists (JSON/pickle-safe):
    instants carry ``dur_s == 0.0``; spans carry their simulated duration.
    ``last_ts`` tracks the furthest simulated time any event reached, which
    becomes the trace's end timestamp.
    """

    __slots__ = (
        "trace_id", "resolver_index", "seq", "resolver_id", "provider",
        "qname", "qtype", "begin", "last_ts", "rcode", "events",
        "events_dropped",
    )

    def __init__(
        self,
        trace_id: str,
        resolver_index: int,
        seq: int,
        resolver_id: str,
        provider: str,
        qname: str,
        qtype: int,
        begin: float,
    ):
        self.trace_id = trace_id
        self.resolver_index = resolver_index
        self.seq = seq
        self.resolver_id = resolver_id
        self.provider = provider
        self.qname = qname
        self.qtype = qtype
        self.begin = begin
        self.last_ts = begin
        self.rcode: Optional[int] = None
        self.events: List[list] = []
        self.events_dropped = 0

    # -- recording (the instrumentation-site API) -------------------------------

    def event(self, ts: float, name: str, args: Optional[dict] = None,
              cat: str = "sim") -> None:
        """Record one instantaneous event at simulated time ``ts``."""
        if ts > self.last_ts:
            self.last_ts = ts
        if len(self.events) >= MAX_EVENTS_PER_TRACE:
            self.events_dropped += 1
            return
        self.events.append([ts, cat, name, 0.0, args])

    def span(self, start: float, end: float, name: str,
             args: Optional[dict] = None, cat: str = "sim") -> None:
        """Record one span covering ``[start, end]`` simulated seconds."""
        if end > self.last_ts:
            self.last_ts = end
        if len(self.events) >= MAX_EVENTS_PER_TRACE:
            self.events_dropped += 1
            return
        self.events.append([start, cat, name, end - start, args])

    # -- shipping ---------------------------------------------------------------

    def as_dict(self) -> dict:
        """Picklable/JSON-safe form (the cross-process payload)."""
        return {
            "id": self.trace_id,
            "resolver_index": self.resolver_index,
            "seq": self.seq,
            "resolver_id": self.resolver_id,
            "provider": self.provider,
            "qname": self.qname,
            "qtype": self.qtype,
            "rcode": self.rcode,
            "begin": self.begin,
            "end": self.last_ts,
            "events": self.events,
            "events_dropped": self.events_dropped,
        }


#: The trace currently being recorded, or ``None`` (the common case).
#: Instrumentation sites across the pipeline read this module global; the
#: driver's sampled-query loop is the only writer.  Single-threaded by the
#: same argument as :class:`~repro.telemetry.registry.MetricsRegistry`.
ACTIVE: Optional[QueryTrace] = None


class QueryTracer:
    """Per-shard trace collector: decides sampling, owns the buffers.

    One tracer is built per shard execution (or one for the whole serial
    run); completed traces accumulate as dicts in :attr:`traces` and the
    companion :class:`~repro.telemetry.timeseries.FlightRecorder` in
    :attr:`recorder` accumulates windowed rate frames.  Both are merged
    parent-side in shard order, exactly like capture rows.
    """

    def __init__(self, config: TraceConfig, seed: int, dataset_id: str,
                 base_ts: float = 0.0):
        from .timeseries import FlightRecorder

        # A crashed traced run can leave a dangling ACTIVE trace behind;
        # never let it bleed into this tracer's run.
        global ACTIVE
        ACTIVE = None
        self.config = config
        self.seed = int(seed)
        self.dataset_id = dataset_id
        self.base_ts = float(base_ts)
        self.traces: List[dict] = []
        self.recorder = FlightRecorder(window_s=config.window_s)
        # Domain-separated from the run seed so sampling never correlates
        # with resolver/workload RNG streams or fault verdicts.
        self._seed_bytes = struct.pack("<q", self.seed) + b"repro.trace"
        self._sample = config.sample
        # Integer threshold equivalent to ``hash_uniform(...) < sample``:
        # mix32 < sample * 2^32 iff mix32 < ceil(sample * 2^32) for integer
        # mix32, and ceil keeps the boundary decisions bit-identical to the
        # float comparison.  Saves a float division per client query.
        self._threshold = math.ceil(config.sample * _HASH_DENOM)

    def sampled(self, resolver_index: int, seq: int) -> bool:
        """Whether client query ``seq`` of fleet member ``resolver_index``
        is traced — a pure function of (seed, index, seq)."""
        if self._sample >= 1.0:
            return True
        digest = zlib.crc32(
            self._seed_bytes + struct.pack("<qq", resolver_index, seq)
        )
        return mix32(digest) < self._threshold

    def begin(self, resolver_index: int, seq: int, resolver_id: str,
              provider: str, ts: float, qname: str, qtype: int) -> QueryTrace:
        """Open a trace for one sampled query and make it :data:`ACTIVE`."""
        global ACTIVE
        trace = QueryTrace(
            trace_id=f"{resolver_index}:{seq}",
            resolver_index=resolver_index,
            seq=seq,
            resolver_id=resolver_id,
            provider=provider,
            qname=qname,
            qtype=qtype,
            begin=ts,
        )
        ACTIVE = trace
        return trace

    def finish(self, trace: QueryTrace, rcode: int) -> None:
        """Close the active trace and bank it into the buffer."""
        global ACTIVE
        ACTIVE = None
        trace.rcode = int(rcode)
        self.traces.append(trace.as_dict())


@dataclass
class TraceBuffer:
    """Mergeable collection of completed traces plus export writers.

    Shard buffers are extended in shard order — shards are contiguous
    fleet ranges and traces complete in member order within a shard, so
    the merged sequence is identical to a serial run's.
    """

    dataset_id: str = ""
    seed: int = 0
    sample: float = 0.0
    base_ts: float = 0.0
    traces: List[dict] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.traces)

    def extend(self, traces: Sequence[dict]) -> None:
        """Append one shard's trace dicts (call in shard-index order)."""
        self.traces.extend(traces)

    def merge(self, other: "TraceBuffer") -> None:
        """Fold another buffer in (the session-level roll-up path).

        Buffers from different datasets keep their own base timestamps by
        re-stamping each adopted trace with its origin dataset.  An empty,
        identity-less buffer adopts the first merged buffer's identity, so
        that buffer's traces arrive unstamped.
        """
        if not self.dataset_id:
            self.dataset_id = other.dataset_id
            self.base_ts = other.base_ts
            self.seed = other.seed
            self.sample = other.sample
        for trace in other.traces:
            if "dataset" not in trace and other.dataset_id != self.dataset_id:
                trace = dict(trace, dataset=other.dataset_id)
            self.traces.append(trace)

    # -- reading ----------------------------------------------------------------

    def durations(self) -> List[Tuple[str, float]]:
        """``(trace id, simulated duration)`` per trace, buffer order."""
        return [
            (t["id"], float(t["end"]) - float(t["begin"])) for t in self.traces
        ]

    def slowest(self, count: int = 10) -> List[dict]:
        """The ``count`` largest simulated-duration traces (ties broken by
        buffer order for determinism)."""
        indexed = sorted(
            enumerate(self.traces),
            key=lambda pair: (-(float(pair[1]["end"]) - float(pair[1]["begin"])), pair[0]),
        )
        return [trace for _, trace in indexed[:count]]

    def phase_totals(self, include_runtime: bool = False) -> Dict[str, Dict[str, float]]:
        """Per-event-name totals across all traces: count and summed
        simulated span seconds — the per-phase critical-path table."""
        totals: Dict[str, Dict[str, float]] = {}
        for trace in self.traces:
            for ts, cat, name, dur, _args in trace["events"]:
                if cat == "runtime" and not include_runtime:
                    continue
                stat = totals.get(name)
                if stat is None:
                    stat = totals[name] = {"count": 0, "total_s": 0.0}
                stat["count"] += 1
                stat["total_s"] += float(dur)
        return totals

    # -- export -----------------------------------------------------------------

    def to_chrome_trace(self, timeseries=None,
                        include_runtime: bool = False) -> dict:
        """Chrome-trace/Perfetto object-format payload.

        ``pid`` is a stable small integer per provider, ``tid`` the global
        fleet index of the resolver; metadata events name both.  Query
        lifecycles are ``X`` (complete) events under the ``query``
        category, recorded spans are ``X`` events under ``phase``, instant
        events are ``i``.  Timestamps are microseconds rebased to the
        dataset's capture-window start, so Perfetto renders sensible
        offsets instead of epoch values.

        ``runtime``-category events are dropped unless ``include_runtime``
        — see the module docstring — which keeps the exported file
        bit-identical across worker counts and repeat runs.
        """
        providers: List[str] = []
        for trace in self.traces:
            if trace["provider"] not in providers:
                providers.append(trace["provider"])
        providers.sort()
        pid_of = {provider: i + 1 for i, provider in enumerate(providers)}

        events: List[dict] = []
        for provider in providers:
            events.append({
                "ph": "M", "name": "process_name", "pid": pid_of[provider],
                "tid": 0, "args": {"name": provider},
            })
        named_threads = set()

        base = self.base_ts

        def us(ts: float) -> int:
            return int(round((ts - base) * 1e6))

        for trace in self.traces:
            pid = pid_of[trace["provider"]]
            tid = int(trace["resolver_index"])
            if (pid, tid) not in named_threads:
                named_threads.add((pid, tid))
                events.append({
                    "ph": "M", "name": "thread_name", "pid": pid, "tid": tid,
                    "args": {"name": trace["resolver_id"]},
                })
            begin, end = float(trace["begin"]), float(trace["end"])
            events.append({
                "ph": "X",
                "name": f"{trace['qname']} qtype={trace['qtype']}",
                "cat": "query",
                "ts": us(begin),
                "dur": max(int(round((end - begin) * 1e6)), 1),
                "pid": pid,
                "tid": tid,
                "args": {
                    "id": trace["id"],
                    "rcode": trace["rcode"],
                    "events_dropped": trace["events_dropped"],
                },
            })
            for ts, cat, name, dur, args in trace["events"]:
                if cat == "runtime" and not include_runtime:
                    continue
                entry = {
                    "name": name,
                    "cat": cat,
                    "ts": us(float(ts)),
                    "pid": pid,
                    "tid": tid,
                    "args": args or {},
                }
                if dur:
                    entry["ph"] = "X"
                    entry["dur"] = max(int(round(float(dur) * 1e6)), 1)
                else:
                    entry["ph"] = "i"
                    entry["s"] = "t"
                events.append(entry)

        payload = {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "metadata": {
                "dataset": self.dataset_id,
                "seed": self.seed,
                "sample": self.sample,
                "base_ts": self.base_ts,
                "traces": len(self.traces),
            },
        }
        if timeseries is not None:
            payload["timeseries"] = timeseries.as_dict()
        return payload

    def write_chrome(self, path: str, timeseries=None,
                     include_runtime: bool = False) -> None:
        with open(path, "w") as handle:
            json.dump(
                self.to_chrome_trace(timeseries, include_runtime),
                handle, indent=None, separators=(",", ":"), sort_keys=True,
            )
            handle.write("\n")

    def iter_jsonl(self, include_runtime: bool = False):
        """One JSON-safe dict per log line: a ``trace_begin`` record per
        trace (full metadata) followed by its events in recorded order."""
        for trace in self.traces:
            header = {k: v for k, v in trace.items() if k != "events"}
            header["record"] = "trace_begin"
            yield header
            for ts, cat, name, dur, args in trace["events"]:
                if cat == "runtime" and not include_runtime:
                    continue
                yield {
                    "record": "event", "trace": trace["id"], "ts": ts,
                    "cat": cat, "name": name, "dur_s": dur,
                    "args": args or {},
                }

    def write_jsonl(self, path: str, include_runtime: bool = False) -> None:
        with open(path, "w") as handle:
            for record in self.iter_jsonl(include_runtime):
                handle.write(json.dumps(record, sort_keys=True))
                handle.write("\n")

    def write(self, path: str, timeseries=None,
              include_runtime: bool = False) -> str:
        """Extension-dispatched export: ``.jsonl`` → event log, anything
        else → Chrome-trace JSON.  Returns the format written."""
        if str(path).endswith(".jsonl"):
            self.write_jsonl(path, include_runtime)
            return "jsonl"
        self.write_chrome(path, timeseries, include_runtime)
        return "chrome"


# -- reading exported trace files back (the ``repro trace`` command) ------------


def read_trace_file(path: str) -> dict:
    """Parse a trace file written by :meth:`TraceBuffer.write`.

    Handles both export formats (Chrome-trace JSON and the JSONL event
    log) and normalises them to::

        {"metadata": {...},
         "queries": [{"name", "dur_s", "rcode", "resolver", "id"}, ...],
         "phases":  {name: {"count", "total_s"}, ...}}

    Query order follows the file; phase totals cover every non-``query``
    event (instants contribute count only).
    """
    with open(path) as handle:
        first = handle.read(1)
        handle.seek(0)
        if first != "{":
            raise ValueError(f"{path}: not a JSON trace file")
        if str(path).endswith(".jsonl"):
            records = [json.loads(line) for line in handle if line.strip()]
            return _normalize_jsonl(records)
        payload = json.load(handle)
    if "traceEvents" not in payload:
        raise ValueError(f"{path}: missing traceEvents (not a Chrome trace)")
    return _normalize_chrome(payload)


def _normalize_chrome(payload: dict) -> dict:
    queries: List[dict] = []
    phases: Dict[str, Dict[str, float]] = {}
    threads: Dict[Tuple[int, int], str] = {}
    for event in payload["traceEvents"]:
        ph = event.get("ph")
        if ph == "M":
            if event.get("name") == "thread_name":
                threads[(event["pid"], event["tid"])] = event["args"]["name"]
            continue
        if ph == "X" and event.get("cat") == "query":
            queries.append({
                "name": event["name"],
                "dur_s": float(event.get("dur", 0)) / 1e6,
                "rcode": event.get("args", {}).get("rcode"),
                "resolver": threads.get(
                    (event.get("pid"), event.get("tid")),
                    str(event.get("tid")),
                ),
                "id": event.get("args", {}).get("id", ""),
            })
            continue
        stat = phases.setdefault(event["name"], {"count": 0, "total_s": 0.0})
        stat["count"] += 1
        stat["total_s"] += float(event.get("dur", 0)) / 1e6
    return {"metadata": payload.get("metadata", {}), "queries": queries,
            "phases": phases}


def _normalize_jsonl(records: List[dict]) -> dict:
    queries: List[dict] = []
    phases: Dict[str, Dict[str, float]] = {}
    for record in records:
        if record.get("record") == "trace_begin":
            queries.append({
                "name": f"{record['qname']} qtype={record['qtype']}",
                "dur_s": float(record["end"]) - float(record["begin"]),
                "rcode": record.get("rcode"),
                "resolver": record.get("resolver_id", ""),
                "id": record.get("id", ""),
            })
        elif record.get("record") == "event":
            stat = phases.setdefault(record["name"], {"count": 0, "total_s": 0.0})
            stat["count"] += 1
            stat["total_s"] += float(record.get("dur_s", 0.0))
    return {"metadata": {}, "queries": queries, "phases": phases}


def summarize_trace_file(path: str, top: int = 10) -> str:
    """Human-readable summary of an exported trace file: run metadata,
    the ``top`` slowest sampled queries, and the per-phase critical-path
    table (summed simulated seconds per event name)."""
    data = read_trace_file(path)
    meta = data["metadata"]
    lines: List[str] = []
    if meta:
        lines.append(
            f"trace: dataset={meta.get('dataset', '?')} "
            f"seed={meta.get('seed', '?')} sample={meta.get('sample', '?')} "
            f"traces={meta.get('traces', len(data['queries']))}"
        )
    else:
        lines.append(f"trace: {len(data['queries'])} sampled queries")
    lines.append("")
    lines.append(f"slowest {min(top, len(data['queries']))} sampled queries:")
    ranked = sorted(
        enumerate(data["queries"]),
        key=lambda pair: (-pair[1]["dur_s"], pair[0]),
    )
    for _, query in ranked[:top]:
        lines.append(
            f"  {query['dur_s'] * 1e3:9.2f} ms  {query['name']:<40} "
            f"rcode={query['rcode']} resolver={query['resolver']}"
        )
    lines.append("")
    lines.append("per-phase critical path (simulated time):")
    lines.append(f"  {'phase':<18} {'count':>8} {'total_s':>12} {'mean_ms':>10}")
    by_total = sorted(
        data["phases"].items(), key=lambda item: (-item[1]["total_s"], item[0])
    )
    for name, stat in by_total:
        mean_ms = (stat["total_s"] / stat["count"] * 1e3) if stat["count"] else 0.0
        lines.append(
            f"  {name:<18} {stat['count']:>8} {stat['total_s']:>12.3f} "
            f"{mean_ms:>10.3f}"
        )
    return "\n".join(lines)
