"""The Clock protocol split: SimClock vs WallClock semantics.

Satellite of the live service mode: the simulation keeps its explicit
deterministic timestamps (an injected :class:`SimClock` is an observer,
never a source of drift), while :class:`WallClock` gives the live service
epoch-anchored time that can never run backwards even if the OS clock
does.
"""

from repro.netsim import Clock, SimClock, WallClock
from repro.netsim import clock as clock_module
from repro.sim import run_dataset
from repro.workload import dataset

from .helpers import view_digest
from .test_oracle import CASES, ORACLE


class TestProtocol:
    def test_both_clocks_satisfy_protocol(self):
        assert isinstance(SimClock(), Clock)
        assert isinstance(WallClock(), Clock)

    def test_sim_clock_read_tracks_now(self):
        clock = SimClock(now=10.0)
        assert clock.read() == 10.0
        clock.advance(5.0)
        assert clock.read() == 15.0
        clock.advance_to(100.0)
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
        ticks = iter([100.0, 105.0, 101.0, 106.0])
        monkeypatch.setattr(clock_module.time, "monotonic", lambda: next(ticks))
        clock = WallClock(epoch_anchor=0.0)
        first = clock.read()
        second = clock.read()   # backend jumped backwards
        third = clock.read()
        assert first == 5.0
        assert second == 5.0    # clamped, not 1.0
        assert third == 6.0

    def test_clamp_events_are_counted(self, monkeypatch):
        ticks = iter([100.0, 105.0, 101.0, 102.0, 106.0])
        monkeypatch.setattr(clock_module.time, "monotonic", lambda: next(ticks))
        clock = WallClock(epoch_anchor=0.0)
        assert clock.clamps == 0
        clock.read()            # 5.0
        clock.read()            # clamped (backend says 1.0)
        clock.read()            # clamped again (2.0 < 5.0)
        clock.read()            # 6.0 — moving forward again
        assert clock.clamps == 2

    def test_real_backends(self):
        clock = WallClock()
        a = clock.read()
        b = clock.read()
        assert b >= a > 1_500_000_000.0  # epoch seconds, after 2017
        assert clock.clamps == 0


class TestSimBitIdentity:
    def test_injected_clock_is_pure_observer(self):
        descriptor, queries, __, seed = CASES["nz-w2019"]
        observed = run_dataset(
            descriptor, client_queries=queries, seed=seed, clock=SimClock(now=0.0)
        )
        assert view_digest(observed.capture.view()) == ORACLE["nz-w2019"]["capture"]

    def test_clock_lands_on_window_end(self):
        descriptor = dataset("nz-w2018")
        clock = SimClock(now=0.0)
        run_dataset(descriptor, client_queries=400, seed=3, clock=clock)
        assert clock.now == descriptor.start + descriptor.duration
