"""The query stream the live service is driven with.

:func:`build_query_stream` draws the exact
:class:`~repro.workload.WorkloadGenerator` name/type mix the simulation
feeds its resolver fleet — Zipf popularity and junk fraction included —
for the world the service serves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from ..dnscore import Name, RRType
from ..sim.worlds import vantage_zone
from ..telemetry import MetricsRegistry
from ..workload import DiurnalPattern, WorkloadGenerator, dataset
from ..zones import DEFAULT_TLDS, domains_of
from .app import DATASET_ID

#: Distinct workload client streams a burst interleaves.
STREAMS = 8


@dataclass
class LoadGenConfig:
    """One query stream: its length, its share of junk names and its
    seed."""

    queries: int = 1000
    junk_fraction: float = 0.05
    seed: int = 20201027

    def __post_init__(self):
        if self.queries < 1:
            raise ValueError(f"queries must be >= 1, got {self.queries}")


def build_query_stream(config: LoadGenConfig) -> List[Tuple[Name, RRType]]:
    """The (qname, qtype) burst: workload-layer streams, deterministic.

    Uses the dataset's real zone content and the workload generator's
    popularity/junk model, interleaving :data:`STREAMS` independent client
    streams round-robin so popular names repeat the way a resolver pool's
    traffic does.
    """
    descriptor = dataset(DATASET_ID)
    # The service's own (sealed) zone when both share a process; a load
    # generator keeps no telemetry for the lookup to be booked in.
    zone = vantage_zone(descriptor, MetricsRegistry())
    generator = WorkloadGenerator(
        vantage=descriptor.vantage,
        domains=domains_of(zone),
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
