"""Run configuration: how one dataset simulation executes.

:class:`RunConfig` is the frozen, validated description of *how* a dataset
is simulated (backend, capture residency); *what* is simulated
stays on the :class:`~repro.workload.DatasetDescriptor`.  Every setting
has one front door: how a run executes is the ``config=`` of
:func:`repro.sim.run_dataset` / :class:`repro.experiments.ExperimentContext`
(the CLI builds it from its flags), where faults fall is a
:class:`~repro.faults.FaultPlan` (its ``seed`` places them), and which
providers a capture is cut by is the list its analytics are configured
with.  A value no caller varies is a module constant, not a keyword, and
nothing under ``src/repro`` reads the process environment, so a run's
inputs are exactly its arguments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class RunConfig:
    """How one dataset simulation executes.

    ``workers`` selects the backend: 1 runs the fleet in-process as one
    shard, more cut it into one shard per worker and run them on a process
    pool (a run with no client queries stays one shard); either way the
    capture bytes are the same.

    Every shard folds its capture's columnar chunks into single-pass
    aggregates as it freezes them; ``spool_dir`` says where the chunks
    live afterwards: written to chunk files under
    ``<spool_dir>/<dataset_id>/``, or resident in memory (``None``).
    """

    workers: int = 1
    spool_dir: Optional[str] = None

    def __post_init__(self):
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")


def check_ports(**ports: Optional[int]) -> None:
    """Raise ``ValueError`` naming the first port outside [0, 65535];
    ``None`` (no port) passes."""
    for name, port in ports.items():
        if port is not None and not 0 <= port <= 65535:
            raise ValueError(f"{name} must be in [0, 65535], got {port}")


def check_positive(name: str, value: float) -> float:
    """``value`` as a float if it is positive and finite (NaN is neither);
    else ``ValueError`` naming ``name``: a scale, a rate or a duration."""
    if not 0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value}")
    return float(value)


#: The largest client-query volume whose float64 image still fits int64,
#: the type a run apportions its volume over the fleet in (float64 is
#: 1024 apart just below 2**63).
MAX_CLIENT_QUERIES = 2**63 - 1024


def check_volume(client_queries: float) -> None:
    """Raise ``ValueError`` if ``client_queries`` exceeds
    :data:`MAX_CLIENT_QUERIES`."""
    if not client_queries <= MAX_CLIENT_QUERIES:
        raise ValueError(f"{client_queries:.4g} client queries do not fit int64")
