"""Sampled per-query lifecycle tracing.

A :class:`QueryTracer` follows individual client queries through the whole
pipeline — resolver cache decisions, authoritative exchanges with
retransmits and failover, RRL and fault verdicts, capture appends — and
collects them into a :class:`TraceBuffer`, which writes one
Chrome-trace/Perfetto-compatible JSON file that ``repro trace`` reads
back.

Only simulated events are recorded, ten of them: ``cache_hit``,
``cache_miss``, ``auth_exchange``, ``auth_timeout``, ``capture_append``,
``fault_drop``, ``fault_latency``, ``retry_exhausted``, ``rrl_limited``
and ``stale_served``.  Each is a function of the simulated world, so the
traces are the same whatever the worker count.

Determinism contract (the same one :mod:`repro.faults.injector` makes)
----------------------------------------------------------------------
Sampling decisions are **hash-based**, not RNG-stream-based: whether a
query is traced is a pure function of ``(run seed, global resolver index,
per-member query sequence number)`` scrambled through crc32 plus a
murmur3 finalizer (:func:`mix32`).  Enabling tracing therefore

* consumes no shared randomness — captures stay bit-identical to an
  untraced run,
* picks the same queries regardless of shard boundaries or worker count
  (members are whole units within shards and the sequence number is
  per-member), and
* reproduces the same trace file across runs given the same
  ``(seed, sample)``.

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

__all__ = [
    "ACTIVE",
    "QueryTrace",
    "QueryTracer",
    "TraceBuffer",
    "mix32",
    "read_trace_file",
    "summarize_trace_file",
]

#: Events retained per trace before further events are counted but
#: dropped (a cyclic-dependency chase can fan one client query out into
#: hundreds of exchanges; the cap keeps trace payloads bounded).
MAX_EVENTS_PER_TRACE = 512


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


class QueryTrace:
    """One sampled client query's recorded lifecycle.

    Events are ``[ts, name, dur_s, args]`` lists (JSON/pickle-safe):
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

    def event(self, ts: float, name: str, args: Optional[dict] = None) -> None:
        """Record one instantaneous event at simulated time ``ts``."""
        if ts > self.last_ts:
            self.last_ts = ts
        if len(self.events) >= MAX_EVENTS_PER_TRACE:
            self.events_dropped += 1
            return
        self.events.append([ts, name, 0.0, args])

    def span(self, start: float, end: float, name: str,
             args: Optional[dict] = None) -> None:
        """Record one span covering ``[start, end]`` simulated seconds."""
        if end > self.last_ts:
            self.last_ts = end
        if len(self.events) >= MAX_EVENTS_PER_TRACE:
            self.events_dropped += 1
            return
        self.events.append([start, name, end - start, args])

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
    """Per-shard trace collector: decides sampling, banks finished traces.

    One tracer is built per shard execution (or one for the whole serial
    run); completed traces accumulate as dicts in :attr:`traces`, which
    the parent extends in shard order, exactly like capture chunks.
    """

    def __init__(self, sample: float, seed: int):
        # A crashed traced run can leave a dangling ACTIVE trace behind;
        # never let it bleed into this tracer's run.
        global ACTIVE
        ACTIVE = None
        self.traces: List[dict] = []
        # Domain-separated from the run seed so sampling never correlates
        # with resolver/workload RNG streams or fault verdicts.
        self._seed_bytes = struct.pack("<q", int(seed)) + b"repro.trace"
        self._sample = sample
        # Integer form of ``mix32(...) / 2**32 < sample``: mix32 < sample *
        # 2^32 iff mix32 < ceil(sample * 2^32) for integer mix32, so the
        # boundary decisions are bit-identical to the float comparison.
        # Saves a float division per client query.
        self._threshold = math.ceil(sample * 2**32)

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
    """Mergeable collection of completed traces plus the file writer.

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

    # -- export -----------------------------------------------------------------

    def to_chrome_trace(self) -> dict:
        """Chrome-trace/Perfetto object-format payload.

        ``pid`` is a stable small integer per provider, ``tid`` the global
        fleet index of the resolver; metadata events name both.  Query
        lifecycles are ``X`` (complete) events under the ``query``
        category; recorded events sit under ``sim``, spans as ``X`` events
        and instants as ``i``.  Timestamps are microseconds rebased to the
        dataset's capture-window start, so Perfetto renders sensible
        offsets instead of epoch values.
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
            for ts, name, dur, args in trace["events"]:
                entry = {
                    "name": name,
                    "cat": "sim",
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

        return {
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

    def write(self, path: str) -> None:
        """Write :meth:`to_chrome_trace` to ``path`` as compact JSON."""
        with open(path, "w") as handle:
            json.dump(
                self.to_chrome_trace(), handle,
                indent=None, separators=(",", ":"), sort_keys=True,
            )
            handle.write("\n")


# -- reading exported trace files back (the ``repro trace`` command) ------------


def read_trace_file(path: str) -> dict:
    """Parse a trace file written by :meth:`TraceBuffer.write` into::

        {"metadata": {...},
         "queries": [{"name", "dur_s", "rcode", "resolver", "id"}, ...],
         "phases":  {name: {"count", "total_s"}, ...}}

    Query order follows the file; phase totals cover every non-``query``
    event (instants contribute count only).  Raises ``OSError`` for a
    file that cannot be read and ``ValueError`` for one that is not a
    Chrome-trace JSON object.
    """
    with open(path) as handle:
        payload = json.load(handle)
    if not isinstance(payload, dict) or "traceEvents" not in payload:
        raise ValueError("not a Chrome trace (no traceEvents object)")
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
