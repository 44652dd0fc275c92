"""Built-in asyncio load generator for a running ``repro serve``.

``repro loadgen`` replays workload-layer query streams — the exact
:class:`~repro.workload.WorkloadGenerator` name/type mix the simulation
feeds its resolver fleet, Zipf popularity and junk fraction included —
against a live instance over real UDP (and optionally TCP) sockets, then
reports throughput and latency percentiles.

The UDP client multiplexes up to :data:`UDP_IN_FLIGHT` queries over a
single socket, matching responses to senders by message id; TCP queries go
request-by-request over persistent length-prefixed connections.  Unanswered
queries (RRL drops, injected faults) time out individually, so the report's
``answered_fraction`` measures exactly what a stub resolver would observe.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..config import check_ports
from ..dnscore import Message, Name, RCode, RRType, WireDecodeError
from ..dnscore.edns import EdnsRecord
from ..sim.worlds import vantage_zone
from ..telemetry import MetricsRegistry
from ..workload import DiurnalPattern, WorkloadGenerator, dataset
from ..zones import DEFAULT_TLDS, domains_of

#: EDNS0 profile advertised by generated queries (the fleet's modal value).
_LOADGEN_BUFSIZE = 1232

#: Distinct workload client streams a burst interleaves.
STREAMS = 8
#: Persistent TCP connections the TCP share of a burst is spread over.
TCP_CONNECTIONS = 2
#: Most UDP queries in flight at once, and each query's answer deadline.
UDP_IN_FLIGHT = 32
QUERY_TIMEOUT_S = 2.0


@dataclass
class LoadGenConfig:
    """One load-generation burst."""

    host: str = "127.0.0.1"
    udp_port: int = 5300
    tcp_port: Optional[int] = None   #: None = same number as ``udp_port``
    dataset_id: str = "nl-w2020"     #: workload shape (zone, Zipf, junk mix)
    queries: int = 1000
    tcp_fraction: float = 0.0        #: share of queries sent over TCP
    junk_fraction: float = 0.05
    seed: int = 20201027

    def __post_init__(self):
        check_ports(udp_port=self.udp_port, tcp_port=self.tcp_port)
        if self.queries < 1:
            raise ValueError(f"queries must be >= 1, got {self.queries}")
        if not 0.0 <= self.tcp_fraction <= 1.0:
            raise ValueError(
                f"tcp_fraction must be in [0, 1], got {self.tcp_fraction}"
            )


@dataclass
class LoadReport:
    """What a burst observed, as the CLI and benchmarks consume it."""

    sent: int = 0
    answered: int = 0
    timeouts: int = 0
    late: int = 0                    #: answers that arrived after their deadline
    aborted: int = 0                 #: TCP queries never sent (connect failed)
    decode_errors: int = 0
    udp_sent: int = 0
    tcp_sent: int = 0
    duration_s: float = 0.0
    qps: float = 0.0
    p50_ms: float = 0.0
    p90_ms: float = 0.0
    p99_ms: float = 0.0
    max_ms: float = 0.0
    rcodes: Dict[str, int] = field(default_factory=dict)

    @property
    def answered_fraction(self) -> float:
        return self.answered / self.sent if self.sent else 0.0

    def as_dict(self) -> dict:
        """Every field (rcodes sorted), plus the answered fraction."""
        return {
            **asdict(self),
            "answered_fraction": self.answered_fraction,
            "rcodes": dict(sorted(self.rcodes.items())),
        }

    def summary(self) -> str:
        return (
            f"{self.sent} sent, {self.answered} answered "
            f"({100.0 * self.answered_fraction:.2f}%), "
            f"{self.qps:.0f} q/s, p50 {self.p50_ms:.2f}ms "
            f"p99 {self.p99_ms:.2f}ms"
        )


def build_query_stream(config: LoadGenConfig) -> List[Tuple[Name, RRType]]:
    """The (qname, qtype) burst: workload-layer streams, deterministic.

    Uses the dataset's real zone content and the workload generator's
    popularity/junk model, interleaving :data:`STREAMS` independent client
    streams round-robin so popular names repeat the way a resolver pool's
    traffic does.
    """
    descriptor = dataset(config.dataset_id)
    # The service's own (sealed) zone when both share a process; a load
    # generator keeps no telemetry for the lookup to be booked in.
    zone = vantage_zone(descriptor, MetricsRegistry())
    domains = domains_of(zone) if zone is not None else []
    generator = WorkloadGenerator(
        vantage=descriptor.vantage,
        domains=domains,
        tld_names=list(DEFAULT_TLDS),
        seed=config.seed,
    )
    pattern = DiurnalPattern(descriptor.start, descriptor.duration)
    per_stream = -(-config.queries // STREAMS)  # ceil
    columns = [
        [
            (q.qname, q.qtype)
            for q in generator.generate(
                resolver_index=i,
                count=per_stream,
                pattern=pattern,
                junk_fraction=config.junk_fraction,
            )
        ]
        for i in range(STREAMS)
    ]
    interleaved: List[Tuple[Name, RRType]] = []
    for rank in range(per_stream):
        for column in columns:
            if rank < len(column):
                interleaved.append(column[rank])
    return interleaved[: config.queries]


class _UdpClient(asyncio.DatagramProtocol):
    """One UDP socket multiplexing queries by message id.

    A timed-out query *retires* its message id into ``lost`` instead of
    freeing it: if the answer eventually straggles in it is counted as
    ``late`` (and the id becomes reusable) rather than being mis-matched
    to a newer query that happened to reuse the slot — which would credit
    the new query with the old query's answer and skew the latency report.
    """

    def __init__(self):
        self.pending: Dict[int, asyncio.Future] = {}
        self.lost: set = set()
        self.late = 0
        self.transport = None

    def connection_made(self, transport) -> None:
        self.transport = transport

    def datagram_received(self, data: bytes, addr) -> None:
        if len(data) < 2:
            return
        msg_id = (data[0] << 8) | data[1]
        if msg_id in self.lost:
            self.lost.discard(msg_id)
            self.late += 1
            return
        future = self.pending.pop(msg_id, None)
        if future is not None and not future.done():
            future.set_result(data)

    def error_received(self, exc) -> None:  # pragma: no cover - OS-dependent
        pass


async def run_loadgen(config: LoadGenConfig) -> LoadReport:
    """Fire one burst and gather the report (call from an event loop)."""
    queries = build_query_stream(config)
    report = LoadReport()
    latencies: List[float] = []

    tcp_count = int(round(len(queries) * config.tcp_fraction))
    tcp_queries = queries[:tcp_count]
    udp_queries = queries[tcp_count:]

    loop = asyncio.get_running_loop()
    started = time.perf_counter()

    tasks = []
    protocol: Optional[_UdpClient] = None
    if udp_queries:
        _, protocol = await loop.create_datagram_endpoint(
            _UdpClient, remote_addr=(config.host, config.udp_port)
        )
        tasks.append(
            asyncio.ensure_future(
                _drive_udp(protocol, udp_queries, report, latencies)
            )
        )
    if tcp_queries:
        tcp_port = config.tcp_port if config.tcp_port is not None else config.udp_port
        conns = min(TCP_CONNECTIONS, len(tcp_queries))
        for i in range(conns):
            slice_ = tcp_queries[i::conns]
            tasks.append(
                asyncio.ensure_future(
                    _drive_tcp(config.host, tcp_port, slice_, report, latencies)
                )
            )
    if tasks:
        await asyncio.gather(*tasks)
    if protocol is not None:
        report.late += protocol.late
        if protocol.transport is not None:
            protocol.transport.close()

    report.duration_s = time.perf_counter() - started
    report.qps = report.sent / report.duration_s if report.duration_s > 0 else 0.0
    if latencies:
        arr = np.asarray(latencies, dtype=np.float64)
        report.p50_ms = float(np.percentile(arr, 50))
        report.p90_ms = float(np.percentile(arr, 90))
        report.p99_ms = float(np.percentile(arr, 99))
        report.max_ms = float(arr.max())
    return report


def run_loadgen_sync(config: LoadGenConfig) -> LoadReport:
    """Blocking wrapper around :func:`run_loadgen` (owns an event loop)."""
    return asyncio.run(run_loadgen(config))


async def _drive_udp(
    protocol: _UdpClient,
    queries: Sequence[Tuple[Name, RRType]],
    report: LoadReport,
    latencies: List[float],
) -> None:
    semaphore = asyncio.Semaphore(UDP_IN_FLIGHT)
    loop = asyncio.get_running_loop()
    next_id = 0

    async def send_one(qname: Name, qtype: RRType) -> None:
        nonlocal next_id
        # Allocate a free message id: busy (pending) and retired (lost)
        # slots are both skipped — 65k ids vs bounded concurrency, so the
        # scan terminates immediately in practice.
        msg_id = next_id % 65536
        next_id += 1
        scanned = 0
        while (
            msg_id in protocol.pending or msg_id in protocol.lost
        ) and scanned < 65536:
            msg_id = next_id % 65536
            next_id += 1
            scanned += 1
        if msg_id in protocol.lost:
            # Pathological: the whole id space is retired.  Reclaim the
            # slot (its straggler, if any, will simply go uncounted).
            protocol.lost.discard(msg_id)
        query = Message.make_query(
            qname, qtype, msg_id=msg_id,
            edns=EdnsRecord(udp_payload_size=_LOADGEN_BUFSIZE),
        )
        future = loop.create_future()
        protocol.pending[msg_id] = future
        sent_at = time.perf_counter()
        report.sent += 1
        report.udp_sent += 1
        protocol.transport.sendto(query.to_wire())
        try:
            wire = await asyncio.wait_for(future, timeout=QUERY_TIMEOUT_S)
        except asyncio.TimeoutError:
            protocol.pending.pop(msg_id, None)
            protocol.lost.add(msg_id)
            report.timeouts += 1
            return
        _account_response(wire, sent_at, report, latencies)

    async def one(qname: Name, qtype: RRType) -> None:
        async with semaphore:
            await send_one(qname, qtype)

    await asyncio.gather(*(one(qname, qtype) for qname, qtype in queries))


async def _drive_tcp(
    host: str,
    port: int,
    queries: Sequence[Tuple[Name, RRType]],
    report: LoadReport,
    latencies: List[float],
) -> None:
    if not queries:
        return
    loop = asyncio.get_running_loop()
    reader: Optional[asyncio.StreamReader] = None
    writer: Optional[asyncio.StreamWriter] = None

    async def close_writer() -> None:
        nonlocal reader, writer
        if writer is not None:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
                pass
        reader = writer = None

    try:
        for i, (qname, qtype) in enumerate(queries):
            if writer is None or writer.is_closing():
                try:
                    reader, writer = await asyncio.open_connection(host, port)
                except OSError:
                    # Server gone: the rest of this slice was never sent.
                    report.aborted += len(queries) - i
                    return
            query = Message.make_query(
                qname, qtype, msg_id=i % 65536,
                edns=EdnsRecord(udp_payload_size=_LOADGEN_BUFSIZE),
            )
            wire = query.to_wire()
            # One deadline covers drain + prefix + payload: a server
            # dribbling bytes cannot stretch a query to 2-3x the timeout.
            deadline = loop.time() + QUERY_TIMEOUT_S
            sent_at = time.perf_counter()
            report.sent += 1
            report.tcp_sent += 1
            writer.write(len(wire).to_bytes(2, "big") + wire)
            try:
                await writer.drain()
                prefix = await asyncio.wait_for(
                    reader.readexactly(2),
                    timeout=max(0.0, deadline - loop.time()),
                )
                length = int.from_bytes(prefix, "big")
                payload = await asyncio.wait_for(
                    reader.readexactly(length),
                    timeout=max(0.0, deadline - loop.time()),
                )
            except (
                asyncio.TimeoutError,
                asyncio.IncompleteReadError,
                ConnectionResetError,
                BrokenPipeError,
                OSError,
            ):
                # This query is lost; the stream position is ambiguous, so
                # reconnect for the next one instead of abandoning the
                # whole slice.
                report.timeouts += 1
                await close_writer()
                continue
            _account_response(payload, sent_at, report, latencies)
    finally:
        await close_writer()


def _account_response(
    wire: bytes, sent_at: float, report: LoadReport, latencies: List[float]
) -> None:
    latency_ms = (time.perf_counter() - sent_at) * 1000.0
    try:
        response = Message.from_wire(wire)
    except WireDecodeError:
        report.decode_errors += 1
        return
    report.answered += 1
    latencies.append(latency_ms)
    try:
        rcode_name = RCode(int(response.rcode)).name
    except ValueError:  # pragma: no cover - unknown rcode codepoints
        rcode_name = str(int(response.rcode))
    report.rcodes[rcode_name] = report.rcodes.get(rcode_name, 0) + 1
