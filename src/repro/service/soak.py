"""Chaos soak harness: choreographed failure + overload against a live server.

``repro soak`` composes the fault plans with the built-in load generator:
it boots a :class:`~repro.service.app.DnsService` on ephemeral ports under
the service's one resilience policy, with admission control at a declared
capacity and a breaker cooldown fitted to the run, schedules a **full
blackout of the dataset vantage's authoritative tier** from
:data:`BLACKOUT_START_FRAC` to :data:`BLACKOUT_END_FRAC` of the soak, then
offers load open-loop for the whole duration (twice the capacity by
default) while scraping ``/metrics`` in the background.  Over-capacity
queries are dropped at the gate.

The harness then *asserts SLOs* rather than just reporting numbers:

* ``answered_or_graceful`` — of the queries the admission gate let in,
  at least :data:`SLO_ANSWERED_FRACTION` received *some* response (a real
  answer or a graceful SERVFAIL) within the client deadline;
* ``p99_under_deadline`` — client-observed p99 latency stayed under the
  service's deadline budget (:data:`~repro.service.resilience.DEADLINE_MS`);
* ``breaker_cycle`` — the breakers guarding the blacked-out tier opened
  during the outage and re-closed after recovery, as observed through the
  public ``/metrics`` endpoint (not by reaching into the process).

Results land in a :class:`SoakReport` (``repro soak --json`` serialises it).
"""

from __future__ import annotations

import asyncio
from dataclasses import asdict, dataclass, field
from typing import Dict, List

from ..config import check_positive
from ..faults import FaultPlan, OutageWindow
from ..workload import dataset
from .app import DnsService, ServiceConfig
from .loadgen import LoadGenConfig, LoadReport, build_query_stream, run_loadgen
from .resilience import DEADLINE_MS, ResilienceConfig

#: The blackout, as fractions of the soak's duration.
BLACKOUT_START_FRAC = 0.25
BLACKOUT_END_FRAC = 0.6
#: Client-side per-query deadline; it exceeds the service's budget, so a
#: graceful SERVFAIL reaches the client before it gives up.
CLIENT_TIMEOUT_S = 2.5
SCRAPE_INTERVAL_S = 0.5
#: The soak's server, load generator and scraper all meet on loopback.
LOOPBACK = "127.0.0.1"
#: Share of admitted queries that must get a response.
SLO_ANSWERED_FRACTION = 0.99


@dataclass
class SoakConfig:
    """One chaos soak: its length, the offered load and the capacity."""

    dataset_id: str = "nl-w2020"
    seed: int = 20201027
    duration_s: float = 8.0
    #: Open-loop offered rate; defaults to 2x the admission capacity.
    offered_qps: float = 300.0
    #: Admission-control capacity (token-bucket rate).
    admission_qps: float = 150.0

    def __post_init__(self):
        for name in ("duration_s", "offered_qps", "admission_qps"):
            check_positive(name, getattr(self, name))
        # The breaker cooldown is at most an eighth of the run, and
        # ``ResilienceConfig`` rejects one that rounds to zero.
        check_positive("duration_s / 8", self.duration_s / 8.0)


@dataclass
class SoakReport:
    """What one soak observed, plus the SLO verdicts."""

    config: Dict = field(default_factory=dict)
    load: Dict = field(default_factory=dict)
    shed: int = 0
    admitted: int = 0
    answered_or_graceful: float = 0.0
    shed_ratio: float = 0.0
    p50_ms: float = 0.0
    p99_ms: float = 0.0
    breaker_opened: int = 0
    breaker_closed: int = 0
    breaker_open_observed: bool = False
    deadline_exhausted: int = 0
    monotonic_clamps: int = 0
    slos: Dict[str, bool] = field(default_factory=dict)
    failures: List[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def as_dict(self) -> dict:
        """Every field, plus the verdict (``repro soak --json``)."""
        return {**asdict(self), "passed": self.passed}

    def summary(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return (
            f"soak {verdict}: {self.admitted} admitted "
            f"({100.0 * self.shed_ratio:.1f}% shed), "
            f"{100.0 * self.answered_or_graceful:.2f}% answered-or-graceful, "
            f"p99 {self.p99_ms:.1f}ms, "
            f"breakers opened={self.breaker_opened} closed={self.breaker_closed}"
        )


# -- /metrics scraping -----------------------------------------------------


def parse_prometheus_text(text: str) -> Dict[str, float]:
    """``{metric{labels}: value}`` from Prometheus 0.0.4 exposition text."""
    values: Dict[str, float] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        key, _, raw = line.rpartition(" ")
        try:
            values[key] = float(raw)
        except ValueError:
            continue
    return values


def _sum_metric(values: Dict[str, float], name: str) -> float:
    """Sum every sample of ``name`` across its label sets."""
    total = 0.0
    for key, value in values.items():
        if key == name or key.startswith(name + "{"):
            total += value
    return total


async def scrape_metrics(host: str, port: int) -> str:
    """One HTTP/1.0 GET of ``/metrics`` against the service's metrics
    listener."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(b"GET /metrics HTTP/1.0\r\n\r\n")
        await writer.drain()
        raw = await reader.read(-1)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
            pass
    _, _, body = raw.partition(b"\r\n\r\n")
    return body.decode("utf-8", "replace")


async def _scrape_loop(
    host: str, port: int, interval_s: float, samples: List[Dict[str, float]]
) -> None:
    while True:
        try:
            text = await scrape_metrics(host, port)
            samples.append(parse_prometheus_text(text))
        except OSError:  # pragma: no cover - scrape raced a restart
            pass
        await asyncio.sleep(interval_s)


# -- the soak itself -------------------------------------------------------


def _blackout_plan(vantage: str) -> FaultPlan:
    """The vantage's whole authoritative tier (``nl-*`` for ``nl-w2020``)
    goes dark for the middle of the soak."""
    return FaultPlan(
        name="soak-blackout",
        outages=(
            OutageWindow(
                server_id=f"{vantage}-*",
                start_frac=BLACKOUT_START_FRAC,
                end_frac=BLACKOUT_END_FRAC,
            ),
        ),
    )


async def run_soak(config: SoakConfig) -> SoakReport:
    """Run one choreographed soak and evaluate its SLOs."""
    descriptor = dataset(config.dataset_id)
    plan = _blackout_plan(descriptor.vantage)

    load_config = LoadGenConfig(
        host=LOOPBACK,
        dataset_id=config.dataset_id,
        queries=max(1, int(round(config.offered_qps * config.duration_s))),
        concurrency=4096,  # open loop: in-flight is bounded by timeouts
        timeout_s=CLIENT_TIMEOUT_S,
        rate_qps=config.offered_qps,
        seed=config.seed,
    )
    # Build the stream *before* the service starts: the fault plan anchors
    # its window choreography to service uptime, so workload construction
    # time must not eat into the blackout schedule.
    queries = build_query_stream(load_config)

    service = DnsService(
        ServiceConfig(
            dataset_id=config.dataset_id,
            host=LOOPBACK,
            udp_port=0,
            metrics_port=0,
            seed=config.seed,
            fault_plan=plan,
            fault_window_s=config.duration_s,
            resilience=ResilienceConfig(
                admission_rate_qps=config.admission_qps,
                breaker_cooldown_s=min(0.5, config.duration_s / 8.0),
            ),
        )
    )
    await service.start()
    load_config.udp_port = service.udp_port
    load_config.tcp_port = service.tcp_port

    samples: List[Dict[str, float]] = []
    scraper = asyncio.ensure_future(
        _scrape_loop(
            LOOPBACK, service.metrics_port, SCRAPE_INTERVAL_S, samples
        )
    )
    try:
        load = await run_loadgen(load_config, queries=queries)
        # One final scrape after the burst so the post-recovery breaker
        # close is visible even if the periodic scraper just slept.
        samples.append(
            parse_prometheus_text(
                await scrape_metrics(LOOPBACK, service.metrics_port)
            )
        )
    finally:
        scraper.cancel()
        try:
            await scraper
        except asyncio.CancelledError:
            pass
        await service.stop()

    return _evaluate(config, load, samples)


def run_soak_sync(config: SoakConfig) -> SoakReport:
    """Blocking wrapper around :func:`run_soak` (owns an event loop)."""
    return asyncio.run(run_soak(config))


def _evaluate(
    config: SoakConfig, load: LoadReport, samples: List[Dict[str, float]]
) -> SoakReport:
    final = samples[-1] if samples else {}
    shed = int(_sum_metric(final, "repro_service_shed_dropped_total"))
    admitted = max(0, load.sent - shed)
    answered_or_graceful = load.answered / admitted if admitted else 0.0

    report = SoakReport(
        config={
            "dataset": config.dataset_id,
            "duration_s": config.duration_s,
            "offered_qps": config.offered_qps,
            "admission_qps": config.admission_qps,
            "deadline_ms": DEADLINE_MS,
            "blackout": [BLACKOUT_START_FRAC, BLACKOUT_END_FRAC],
        },
        load=load.as_dict(),
        shed=shed,
        admitted=admitted,
        answered_or_graceful=answered_or_graceful,
        shed_ratio=shed / load.sent if load.sent else 0.0,
        p50_ms=load.p50_ms,
        p99_ms=load.p99_ms,
        breaker_opened=int(
            _sum_metric(final, "repro_service_breaker_opened_total")
        ),
        breaker_closed=int(
            _sum_metric(final, "repro_service_breaker_closed_total")
        ),
        breaker_open_observed=any(
            value > 0
            for sample in samples
            for key, value in sample.items()
            if key.startswith("repro_service_breaker_state{")
        ),
        deadline_exhausted=int(
            _sum_metric(final, "repro_service_deadline_exhausted_total")
        ),
        monotonic_clamps=int(
            _sum_metric(final, "repro_clock_monotonic_clamps_total")
        ),
    )

    report.slos["answered_or_graceful"] = (
        answered_or_graceful >= SLO_ANSWERED_FRACTION
    )
    report.slos["p99_under_deadline"] = (
        load.p99_ms <= DEADLINE_MS or load.answered == 0
    )
    report.slos["breaker_cycle"] = (
        report.breaker_opened > 0 and report.breaker_closed > 0
    )
    for name, ok in sorted(report.slos.items()):
        if not ok:
            report.failures.append(name)
    return report
