"""Simulated and real time behind one protocol.

All timestamps in the system flow from a clock so that runs are deterministic
and datasets can be pinned to the paper's collection weeks (e.g. w2020 =
2020-04-05 .. 2020-04-11).  Time is kept as float seconds since the Unix
epoch, matching what a pcap capture would record.

Two implementations exist behind the :class:`Clock` protocol:

* :class:`SimClock` — deterministic simulated time, advanced explicitly by
  the driver; every sim run reads the same instants and stays bit-identical.
* :class:`WallClock` — real time for the live service
  (:class:`~repro.service.DnsService`), anchored to the monotonic clock so
  reads never go backwards even when the system clock steps.

Consumers (driver, resolver, authoritative server) depend on the protocol,
never on a concrete class, so the same dispatch code serves both worlds.
"""

from __future__ import annotations

import calendar
import datetime as _dt
import time
from dataclasses import dataclass
from typing import Protocol, runtime_checkable


def utc_timestamp(year: int, month: int, day: int) -> float:
    """Epoch seconds of a UTC day's midnight."""
    return float(calendar.timegm((year, month, day, 0, 0, 0, 0, 0, 0)))


def timestamp_to_utc(ts: float) -> _dt.datetime:
    """Inverse of :func:`utc_timestamp` (tz-aware UTC datetime)."""
    return _dt.datetime.fromtimestamp(ts, tz=_dt.timezone.utc)


@runtime_checkable
class Clock(Protocol):
    """The time source contract shared by sim and live modes.

    A clock yields monotonically non-decreasing epoch-second floats from
    :meth:`read`.  How time moves is the implementation's business: a
    :class:`SimClock` only moves when the driver advances it, a
    :class:`WallClock` moves on its own.
    """

    def read(self) -> float:
        """Current time as float seconds since the Unix epoch."""
        ...


@dataclass
class SimClock:
    """A monotonically advancing simulated clock.

    The clock never goes backwards; :meth:`advance_to` with an earlier time
    raises, surfacing event-ordering bugs instead of silently reordering
    captures.
    """

    now: float = 0.0

    def read(self) -> float:
        """Current simulated time (:class:`Clock` protocol)."""
        return self.now

    def advance(self, seconds: float) -> float:
        """Move the clock forward by ``seconds`` (must be >= 0)."""
        if seconds < 0:
            raise ValueError("cannot advance clock backwards")
        self.now += seconds
        return self.now

    def advance_to(self, timestamp: float) -> float:
        """Move the clock forward to ``timestamp``."""
        if timestamp < self.now:
            raise ValueError(
                f"cannot move clock backwards ({timestamp} < {self.now})"
            )
        self.now = timestamp
        return self.now


class WallClock:
    """Real time for the live service mode, guaranteed monotone.

    Reads are anchored once at construction — ``epoch_anchor`` from the
    system clock, ``mono_anchor`` from :func:`time.monotonic` — and every
    :meth:`read` returns ``epoch_anchor + (monotonic() - mono_anchor)``.
    NTP steps or an operator resetting the system clock therefore cannot
    make served timestamps jump backwards mid-run, which would corrupt
    capture ordering.  A final ``max()`` guard pins the
    result against floating-point jitter.
    """

    __slots__ = ("_epoch_anchor", "_mono_anchor", "_last", "_clamps")

    def __init__(
        self,
        epoch_anchor: float | None = None,
        monotonic: float | None = None,
    ):
        self._epoch_anchor = time.time() if epoch_anchor is None else float(epoch_anchor)
        self._mono_anchor = time.monotonic() if monotonic is None else float(monotonic)
        self._last = self._epoch_anchor
        self._clamps = 0

    @property
    def now(self) -> float:
        """Alias for :meth:`read` mirroring ``SimClock.now``."""
        return self.read()

    @property
    def clamps(self) -> int:
        """Backwards-clamp events since construction.

        Each count is one :meth:`read` whose raw value would have gone
        backwards and was pinned to the previous reading.
        """
        return self._clamps

    def read(self) -> float:
        """Current wall time (:class:`Clock` protocol), never decreasing."""
        value = self._epoch_anchor + (time.monotonic() - self._mono_anchor)
        if value < self._last:
            value = self._last
            self._clamps += 1
        else:
            self._last = value
        return value
