"""Run configuration: the one place a run is configured.

:class:`RunConfig` is the frozen, validated description of *how* a dataset
is simulated (backend, capture residency, tracing); *what* is simulated
stays on the :class:`~repro.workload.DatasetDescriptor`.
:meth:`RunConfig.resolve` builds one from explicit arguments, the
environment and the defaults, in that order of precedence, and everything
below the CLI and the two keyword front doors
(:func:`repro.sim.run_dataset`,
:class:`repro.experiments.ExperimentContext`) takes the object.

This module imports nothing from the package and holds the only reads of
the process environment under ``src/repro``, so the five ``REPRO_*`` names
share one parsing rule: an unset or empty variable means "use the
default", and a value that does not parse raises a :class:`ValueError`
naming the variable, the offending text and the accepted form.

One of the five is a process-level switch rather than a property of a run
— ``REPRO_POOL_START`` — and is read late, at its point of use, through
the function at the end of this module: pool workers and tests that
monkeypatch the environment mid-process depend on that.
"""

from __future__ import annotations

import multiprocessing
import os
from dataclasses import dataclass
from typing import Callable, Optional, TypeVar, Union

T = TypeVar("T")


def _env(name: str, parse: Callable[[str], Optional[T]], accepted: str) -> Optional[T]:
    """The parsed value of environment variable ``name``, or ``None`` when
    it is unset or empty.  ``parse`` returns ``None`` or raises
    ``ValueError`` for text it does not accept."""
    raw = os.environ.get(name, "").strip()
    if not raw:
        return None
    try:
        value = parse(raw)
    except ValueError:
        value = None
    if value is None:
        raise ValueError(f"{name}={raw!r}: expected {accepted}")
    return value


def _integer_from(low: int) -> Callable[[str], Optional[int]]:
    def parse(text: str) -> Optional[int]:
        value = int(text)
        return value if value >= low else None
    return parse


def _positive_float(text: str) -> Optional[float]:
    value = float(text)
    return value if value > 0 else None


def _fraction(text: str) -> Optional[float]:
    value = float(text)
    return value if 0.0 <= value <= 1.0 else None


@dataclass(frozen=True)
class TraceConfig:
    """Tracing policy for one run: ``sample`` is the traced fraction of
    client queries (hash-derived, see :mod:`repro.telemetry.tracing`)."""

    sample: float = 0.01

    def __post_init__(self):
        if not 0.0 <= self.sample <= 1.0:
            raise ValueError(f"trace sample must be in [0, 1], got {self.sample}")


@dataclass(frozen=True)
class RunConfig:
    """How one dataset simulation executes.

    ``workers`` selects the backend: 1 runs the shards in-process, more
    run them on a process pool; either way the fleet is cut into one
    shard per worker and the capture bytes are the same.

    Every shard folds its capture's columnar chunks into single-pass
    aggregates as it freezes them; ``spool_dir`` says where the chunks
    live afterwards: written to chunk files under
    ``<spool_dir>/<dataset_id>/``, or resident in memory (``None``).
    ``trace`` enables sampled per-query tracing (``None`` = off).
    """

    workers: int = 1
    spool_dir: Optional[str] = None
    trace: Optional[TraceConfig] = None

    def __post_init__(self):
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")

    @classmethod
    def resolve(
        cls,
        workers: Optional[int] = None,
        spool_dir: Optional[str] = None,
        trace: Union[TraceConfig, float, None] = None,
    ) -> "RunConfig":
        """Explicit arguments, else the environment, else the defaults.

        ``None`` for ``workers`` / ``trace`` falls back to
        ``REPRO_WORKERS`` / ``REPRO_TRACE``.  ``trace`` also accepts a bare
        sample rate; a resolved rate of 0 means tracing is off.
        """
        if workers is None:
            workers = _env("REPRO_WORKERS", _integer_from(1), "an integer >= 1")
        if trace is None:
            trace = _env("REPRO_TRACE", _fraction, "a fraction in [0, 1]")
        if trace is not None and not isinstance(trace, TraceConfig):
            trace = TraceConfig(sample=float(trace))
        return cls(
            # ``cls.workers`` is the dataclass default: the fallback when
            # neither the argument nor the environment says anything.
            workers=cls.workers if workers is None else int(workers),
            spool_dir=spool_dir,
            trace=trace if trace is not None and trace.sample > 0.0 else None,
        )


# -- CLI-level defaults ------------------------------------------------------------

def resolve_scale(scale: Optional[float] = None, default: float = 1.0) -> float:
    """The client-query volume multiplier: ``scale``, else ``REPRO_SCALE``,
    else ``default`` (1.0 for ``experiments``, 0.2 for ``dataset``)."""
    if scale is None:
        scale = _env("REPRO_SCALE", _positive_float, "a positive number")
        return default if scale is None else scale
    if not scale > 0:
        raise ValueError(f"scale must be positive, got {scale}")
    return float(scale)


def default_chaos() -> Optional[str]:
    """The chaos scenario named by ``REPRO_CHAOS`` (CLI commands only —
    library callers pass a ``FaultPlan``), or ``None``."""
    return _env("REPRO_CHAOS", str, "a scenario name (see 'repro chaos')")


# -- the process-level switch, read at its point of use ----------------------------

def pool_start_method() -> Optional[str]:
    """The multiprocessing start method ``REPRO_POOL_START`` names for
    shard pools, or ``None`` (see :func:`repro.runtime.pool_context`)."""
    available = multiprocessing.get_all_start_methods()
    return _env(
        "REPRO_POOL_START",
        lambda text: text if text in available else None,
        "one of " + "/".join(available),
    )
