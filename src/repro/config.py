"""Run configuration: the one place a run is configured.

:class:`RunConfig` is the frozen, validated description of *how* a dataset
is simulated (backend, sharding policy, capture residency, tracing,
logging cadence); *what* is simulated stays on the
:class:`~repro.workload.DatasetDescriptor`.  :meth:`RunConfig.resolve`
builds one from explicit arguments, the environment and the defaults, in
that order of precedence, and everything below the CLI and the two
keyword front doors (:func:`repro.sim.run_dataset`,
:class:`repro.experiments.ExperimentContext`) takes the object.

This module imports nothing from the package and holds the only reads of
the process environment under ``src/repro``, so the nine ``REPRO_*`` names
share one parsing rule: an unset or empty variable means "use the
default", booleans accept ``1/true/yes/on`` and ``0/false/no/off``, and a
value that does not parse raises a :class:`ValueError` naming the
variable, the offending text and the accepted form.

Three of the nine are process-level switches rather than properties of a
run — ``REPRO_PLAN_CACHE``, ``REPRO_ENV_CACHE``, ``REPRO_POOL_START`` —
and are read late, at their point of use, through the functions at the end
of this module: pool workers and tests that monkeypatch the environment
mid-process depend on that.
"""

from __future__ import annotations

import multiprocessing
import os
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, TypeVar, Union

T = TypeVar("T")

_BOOLEANS = {
    "1": True, "true": True, "yes": True, "on": True,
    "0": False, "false": False, "no": False, "off": False,
}
_BOOLEAN_FORM = "one of " + "/".join(_BOOLEANS)


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


def _boolean(text: str) -> Optional[bool]:
    return _BOOLEANS.get(text.lower())


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
    ``shard_timeout_s`` / ``retries`` are the pool's recovery policy, and
    ``inject_faults`` maps shard index → fault mode (``"crash"`` /
    ``"hang"`` / ``"exit"``), applied to pool attempts only, never to the
    serial fallback — a hook for tests and drills.

    ``stream`` selects where the capture's columnar chunks live and when
    they are folded: spilled to chunk files and folded into single-pass
    aggregates as they are written, instead of resident and folded on
    first read.  ``spool_dir`` (streaming only) roots the chunk files
    (``<spool_dir>/<dataset_id>/``; ``None`` = a self-cleaning temp dir).
    ``trace`` enables sampled per-query tracing (``None`` = off).
    ``progress_interval_s`` is the seconds between progress log lines.
    """

    workers: int = 1
    shard_timeout_s: Optional[float] = None
    retries: int = 1
    inject_faults: Dict[int, str] = field(default_factory=dict)
    stream: bool = False
    spool_dir: Optional[str] = None
    trace: Optional[TraceConfig] = None
    progress_interval_s: float = 5.0

    def __post_init__(self):
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.shard_timeout_s is not None and self.shard_timeout_s <= 0:
            raise ValueError(
                f"shard_timeout_s must be positive, got {self.shard_timeout_s}"
            )
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")
        if self.spool_dir is not None and not self.stream:
            raise ValueError("spool_dir needs stream=True (--spool-dir needs --stream)")
        if self.progress_interval_s <= 0:
            raise ValueError(
                f"progress_interval_s must be positive, got {self.progress_interval_s}"
            )

    @classmethod
    def resolve(
        cls,
        workers: Optional[int] = None,
        shard_timeout_s: Optional[float] = None,
        retries: int = 1,
        inject_faults: Optional[Dict[int, str]] = None,
        stream: Optional[bool] = None,
        spool_dir: Optional[str] = None,
        trace: Union[TraceConfig, float, None] = None,
        progress_interval_s: Optional[float] = None,
    ) -> "RunConfig":
        """Explicit arguments, else the environment, else the defaults.

        ``None`` for ``workers`` / ``stream`` / ``trace`` /
        ``progress_interval_s`` falls back to ``REPRO_WORKERS`` /
        ``REPRO_STREAM`` / ``REPRO_TRACE`` / ``REPRO_PROGRESS_INTERVAL``.
        ``trace`` also accepts a bare sample rate; a resolved rate of 0
        means tracing is off.
        """
        # ``cls.<field>`` is the dataclass default: the fallback when neither
        # the argument nor the environment says anything.
        if workers is None:
            workers = _env("REPRO_WORKERS", _integer_from(1), "an integer >= 1")
        if stream is None:
            stream = _env("REPRO_STREAM", _boolean, _BOOLEAN_FORM)
        if trace is None:
            trace = _env("REPRO_TRACE", _fraction, "a fraction in [0, 1]")
        if trace is not None and not isinstance(trace, TraceConfig):
            trace = TraceConfig(sample=float(trace))
        if progress_interval_s is None:
            progress_interval_s = _env(
                "REPRO_PROGRESS_INTERVAL", _positive_float, "a positive number of seconds"
            )
        return cls(
            workers=cls.workers if workers is None else int(workers),
            shard_timeout_s=shard_timeout_s,
            retries=retries,
            inject_faults=dict(inject_faults or {}),
            stream=bool(stream),
            spool_dir=spool_dir,
            trace=trace if trace is not None and trace.sample > 0.0 else None,
            progress_interval_s=(
                cls.progress_interval_s
                if progress_interval_s is None else float(progress_interval_s)
            ),
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


# -- process-level switches, read at their point of use ----------------------------

#: Entries each world cache (environments, fleets, zones) parks per process
#: when ``REPRO_ENV_CACHE`` is unset: the full matrix's nine ``(vantage,
#: year)`` fleets, and three more so that a run beside it evicts none.
DEFAULT_ENV_CACHE_CAPACITY = 12


def plan_cache_enabled() -> bool:
    """Whether servers memoise response plans (``REPRO_PLAN_CACHE``, on by
    default; ``0`` forces every query down the full build/encode path)."""
    enabled = _env("REPRO_PLAN_CACHE", _boolean, _BOOLEAN_FORM)
    return True if enabled is None else enabled


def env_cache_capacity() -> int:
    """Capacity of each world cache (``REPRO_ENV_CACHE``; ``0`` parks and
    shares nothing — every dataset builds its world from scratch)."""
    capacity = _env("REPRO_ENV_CACHE", _integer_from(0), "an integer >= 0")
    return DEFAULT_ENV_CACHE_CAPACITY if capacity is None else capacity


def pool_start_method() -> Optional[str]:
    """The multiprocessing start method ``REPRO_POOL_START`` names for
    shard pools, or ``None`` (see :func:`repro.runtime.pool_context`)."""
    available = multiprocessing.get_all_start_methods()
    return _env(
        "REPRO_POOL_START",
        lambda text: text if text in available else None,
        "one of " + "/".join(available),
    )
