"""Reference-speed sampler: time that repeats on a box whose speed does not.

The box this benchmark runs on changes speed by up to 2x over seconds to
minutes, so a raw wall or CPU time of identical code differs by 14-29 %
between back-to-back sets.  The sampler cancels machine speed: an interval
timer (``ITIMER_REAL`` / ``SIGALRM``) interrupts the workload every
``INTERVAL_S`` and runs a fixed pure-Python calibration kernel.  With
``perf_counter`` stamps around every kernel run, slice *j* has workload time
``w_j`` (since the previous kernel ended) and kernel time ``c_j``, and

    reference seconds = sum_j  w_j * C_REF / median(c_{j-2} .. c_{j+2})

i.e. each slice is rescaled by how fast the machine ran the kernel around
it.  ``C_REF`` and the kernel are constants of the benchmark: changing
either (bump ``KERNEL_VERSION``) invalidates every earlier number.

This module never imports ``repro``; the arithmetic (:func:`reference_seconds`)
is pure so tests can inject samples.
"""

from __future__ import annotations

import signal
import statistics
import struct
import sys
import time
from typing import List, Sequence, Tuple

#: Bump when :func:`kernel` changes in any way: old numbers stop comparing.
KERNEL_VERSION = 1
#: Kernel seconds that count as "reference speed".
C_REF = 0.005
#: Timer period between kernel runs.
INTERVAL_S = 0.05
#: Half-width of the median window over neighbouring kernel times.
WINDOW = 2

_ROUNDS = 350
_NAMES = tuple(sys.intern("n%02d" % i) for i in range(32))
_PACK = struct.Struct("!HHI").pack
#: A heap several times the L2 cache, so half the kernel runs on cache
#: misses the way the simulator's big dicts and object graphs do.
_HEAP_SIZE = 1 << 16
_HEAP = {i: (i, str(i)) for i in range(_HEAP_SIZE)}
_HEAP_STEPS = 4500


class _Cell:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def bump(self, x: int) -> int:
        self.value = (self.value + x) & 0xFFFF
        return self.value


def kernel() -> int:
    """The fixed calibration work, about half cache-resident and half not:
    the mix the program's hot loops are made of (dict get/set on interned
    names, a slotted-method call, tuple allocation + list append,
    ``struct.pack``), then pseudo-random lookups across ``_HEAP``.

    A purely cache-resident kernel tracked the workloads' speed worse when
    the host was busy: over three sets of 10-16 identical ``nl_cold``
    children the spread of their reference seconds was 4-12 % with the
    compute half alone and 4-6 % with a heap-walking half added.
    """
    table = dict.fromkeys(_NAMES, 0)
    cell = _Cell()
    out: list = []
    append = out.append
    bump = cell.bump
    for r in range(_ROUNDS):
        for name in _NAMES:
            v = table[name] + r
            table[name] = v & 0xFFFF
            append((name, bump(v)))
        _PACK(r & 0xFFFF, cell.value, len(out))
        if len(out) > 2048:
            del out[:]
    heap = _HEAP
    mask = _HEAP_SIZE - 1
    position = cell.value
    total = 0
    for _ in range(_HEAP_STEPS):
        position = (position * 1103515245 + 12345) & 0x7FFFFFFF
        index, text = heap[position & mask]
        total += index + len(text)
    return total


def smoothed(kernel_times: Sequence[float], window: int = WINDOW) -> List[float]:
    """Median of each kernel time's ``±window`` neighbours (clipped at the
    ends), so one spiked kernel run does not rescale its slice."""
    n = len(kernel_times)
    return [
        statistics.median(kernel_times[max(0, j - window): min(n, j + window + 1)])
        for j in range(n)
    ]


def reference_seconds(
    slices: Sequence[Tuple[float, float]], c_ref: float = C_REF,
    window: int = WINDOW,
) -> float:
    """Reference-speed seconds of ``[(w_j, c_j), ...]``."""
    c_hat = smoothed([c for _, c in slices], window)
    return sum(w * c_ref / c for (w, _), c in zip(slices, c_hat))


def speed_summary(kernel_times: Sequence[float], c_ref: float = C_REF) -> dict:
    """How fast, and how unevenly, the machine ran while being measured:
    ``speed_index`` = median kernel time / ``C_REF`` (1 = reference speed,
    2 = half speed), ``speed_spread`` = p90 / p10 of the kernel times."""
    if len(kernel_times) < 2:
        return {"speed_index": 0.0, "speed_spread": 0.0}
    deciles = statistics.quantiles(kernel_times, n=10)
    return {
        "speed_index": statistics.median(kernel_times) / c_ref,
        "speed_spread": deciles[-1] / deciles[0],
    }


class Region:
    """What the sampler saw between two marks."""

    def __init__(self, slices: Sequence[Tuple[float, float]]):
        self.slices = list(slices)
        #: Workload-only wall seconds (kernel runs excluded).
        self.wall_s = sum(w for w, _ in self.slices)
        self.ref_s = reference_seconds(self.slices)
        self.samples = len(self.slices)

    def kernel_times(self) -> List[float]:
        return [c for _, c in self.slices]


class Sampler:
    """Owns the interval timer; must be used from the main thread.

    ``mark()`` runs the kernel synchronously and returns the sample's
    index, so every region is bounded by two kernel runs and
    ``region(a, b)`` needs no interpolation.
    """

    def __init__(self, interval_s: float = INTERVAL_S):
        self.interval_s = interval_s
        #: ``(kernel_start, kernel_end)`` perf_counter stamps.
        self.samples: List[Tuple[float, float]] = []
        self._busy = False
        self._running = False
        self._previous_handler = None

    def _sample(self) -> int:
        self._busy = True
        try:
            start = time.perf_counter()
            kernel()
            self.samples.append((start, time.perf_counter()))
            return len(self.samples) - 1
        finally:
            self._busy = False

    def _on_alarm(self, signum, frame) -> None:
        # A pending SIGALRM can be delivered while the handler itself (or a
        # synchronous mark) is still inside the kernel: skip, never nest.
        if not self._busy:
            self._sample()

    def start(self) -> None:
        if self._running:
            return
        self._previous_handler = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        self._running = True

    def stop(self) -> None:
        if not self._running:
            return
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous_handler)
        self._running = False

    def mark(self) -> int:
        """Force a sample now; returns its index (a region boundary)."""
        return self._sample()

    def region(self, start_mark: int, end_mark: int) -> Region:
        """The slices from the end of sample ``start_mark`` to the start of
        sample ``end_mark``."""
        samples = self.samples
        return Region(
            (samples[k][0] - samples[k - 1][1], samples[k][1] - samples[k][0])
            for k in range(start_mark + 1, end_mark + 1)
        )
