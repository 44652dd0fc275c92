"""The live service's time source, behind one protocol.

Time is kept as float seconds since the Unix epoch, matching what a pcap
capture would record; datasets are pinned to the paper's collection weeks
(e.g. w2020 = 2020-04-05 .. 2020-04-11) by :func:`utc_timestamp`.

The simulator reads no clock: every client query carries its own
timestamp, and a resolution's session stamps each send it makes from it.
Only the live service (:class:`~repro.service.DnsService`) reads a
:class:`Clock`, once per query, and hands the reading to the server.  Two
implementations exist:

* :class:`WallClock` — real time, anchored to the monotonic clock so reads
  never go backwards even when the system clock steps; the default.
* :class:`SimClock` — a clock that moves only when it is set or advanced:
  the fake the service tests substitute so their captures are fixed.
"""

from __future__ import annotations

import calendar
import time
from dataclasses import dataclass
from typing import Protocol, runtime_checkable


def utc_timestamp(year: int, month: int, day: int) -> float:
    """Epoch seconds of a UTC day's midnight."""
    return float(calendar.timegm((year, month, day, 0, 0, 0, 0, 0, 0)))


@runtime_checkable
class Clock(Protocol):
    """The time source contract shared by sim and live modes.

    A clock yields monotonically non-decreasing epoch-second floats from
    :meth:`read`.  How time moves is the implementation's business: a
    :class:`SimClock` only moves when it is set or advanced, a
    :class:`WallClock` moves on its own.
    """

    def read(self) -> float:
        """Current time as float seconds since the Unix epoch."""
        ...


@dataclass
class SimClock:
    """A stepped clock: it reads ``now`` and moves only when advanced.

    :meth:`advance` never moves it backwards: a negative step raises.
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

    __slots__ = ("_epoch_anchor", "_mono_anchor", "_last")

    def __init__(
        self,
        epoch_anchor: float | None = None,
        monotonic: float | None = None,
    ):
        self._epoch_anchor = time.time() if epoch_anchor is None else float(epoch_anchor)
        self._mono_anchor = time.monotonic() if monotonic is None else float(monotonic)
        self._last = self._epoch_anchor

    @property
    def now(self) -> float:
        """Alias for :meth:`read` mirroring ``SimClock.now``."""
        return self.read()

    def read(self) -> float:
        """Current wall time (:class:`Clock` protocol), never decreasing."""
        value = self._epoch_anchor + (time.monotonic() - self._mono_anchor)
        if value < self._last:
            value = self._last
        else:
            self._last = value
        return value
