"""The Clock protocol split: SimClock vs WallClock semantics.

Satellite of the live service mode: the simulation keeps its explicit
deterministic timestamps, while :class:`WallClock` gives the live service
epoch-anchored time that can never run backwards even if the OS clock
does.
"""

from repro.netsim import Clock, SimClock, WallClock
from repro.netsim import clock as clock_module


class TestProtocol:
    def test_both_clocks_satisfy_protocol(self):
        assert isinstance(SimClock(), Clock)
        assert isinstance(WallClock(), Clock)

    def test_sim_clock_read_tracks_now(self):
        clock = SimClock(now=10.0)
        assert clock.read() == 10.0
        clock.advance(5.0)
        assert clock.read() == 15.0
        clock.now = 100.0
        assert clock.read() == 100.0


class TestWallClock:
    def test_anchored_to_epoch(self):
        clock = WallClock(epoch_anchor=1000.0, monotonic=50.0)
        # No monotonic time has passed yet in this synthetic setup.
        assert clock.read() >= 1000.0

    def test_reads_advance_with_monotonic(self, monkeypatch):
        ticks = iter([100.0, 100.5, 102.0])
        monkeypatch.setattr(clock_module.time, "monotonic", lambda: next(ticks))
        clock = WallClock(epoch_anchor=0.0)  # consumes the first tick
        assert clock.read() == 0.5
        assert clock.read() == 2.0

    def test_never_decreases_even_if_monotonic_misbehaves(self, monkeypatch):
        ticks = iter([100.0, 105.0, 101.0, 102.0, 106.0])
        monkeypatch.setattr(clock_module.time, "monotonic", lambda: next(ticks))
        clock = WallClock(epoch_anchor=0.0)
        # The backend jumps back to 1.0, then 2.0: both reads are clamped
        # to the last one, until it moves past it again.
        assert [clock.read() for _ in range(4)] == [5.0, 5.0, 5.0, 6.0]

    def test_real_backends(self):
        clock = WallClock()
        a = clock.read()
        b = clock.read()
        assert b >= a > 1_500_000_000.0  # epoch seconds, after 2017
