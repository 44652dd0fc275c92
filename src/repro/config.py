"""Run configuration: how one dataset simulation executes.

:class:`RunConfig` is the frozen description of *how* a dataset is
simulated (where its capture lives); *what* is simulated
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

    Every run folds its capture's columnar chunks into single-pass
    aggregates as it freezes them; ``spool_dir`` says where the chunks
    live afterwards: written to chunk files under
    ``<spool_dir>/<dataset_id>/``, or resident in memory (``None``).
    """

    spool_dir: Optional[str] = None


def check_positive(name: str, value: float) -> float:
    """``value`` as a float if it is positive and finite (NaN is neither);
    else ``ValueError`` naming ``name`` (a scale)."""
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
