import time

import pytest

from sampler import C_REF, Sampler, reference_seconds, smoothed, speed_summary

SLICES = [(0.045, 0.005), (0.046, 0.0052), (0.044, 0.0049), (0.045, 0.0051),
          (0.047, 0.005), (0.045, 0.0048), (0.02, 0.005)]


def test_machine_at_reference_speed_reads_wall_time():
    slices = [(0.05, C_REF)] * 10
    assert reference_seconds(slices) == pytest.approx(0.5)


def test_scaling_every_sample_leaves_reference_seconds_unchanged():
    slower = [(2 * w, 2 * c) for w, c in SLICES]
    assert reference_seconds(slower) == pytest.approx(reference_seconds(SLICES))


def test_one_spiked_kernel_run_is_absorbed_by_the_median_window():
    spiked = list(SLICES)
    spiked[3] = (spiked[3][0], 0.040)          # a descheduled kernel run
    assert reference_seconds(spiked) == pytest.approx(
        reference_seconds(SLICES), rel=0.01
    )
    assert max(smoothed([c for _, c in spiked])) < 0.006


def test_a_sustained_slowdown_is_not_absorbed():
    slow_half = SLICES[:3] + [(2 * w, 2 * c) for w, c in SLICES[3:]]
    # Twice the wall time in the slow half, same reference time.
    assert sum(w for w, _ in slow_half) > 1.4 * sum(w for w, _ in SLICES)
    assert reference_seconds(slow_half) == pytest.approx(
        reference_seconds(SLICES), rel=0.05
    )


def test_speed_summary():
    summary = speed_summary([C_REF * 2] * 20)
    assert summary == {"speed_index": 2.0, "speed_spread": 1.0}
    assert speed_summary([]) == {"speed_index": 0.0, "speed_spread": 0.0}


def test_live_sampler_bounds_regions_with_marks():
    sampler = Sampler(interval_s=0.03)
    sampler.start()
    try:
        begin = sampler.mark()
        started = time.perf_counter()
        while time.perf_counter() < started + 0.2:
            pass
        end = sampler.mark()
        elapsed = time.perf_counter() - started
    finally:
        sampler.stop()
    region = sampler.region(begin, end)
    assert region.samples >= 3                 # timer ticks + the closing mark
    kernel_s = sum(region.kernel_times())
    assert kernel_s > 0 and region.ref_s > 0
    # Workload time excludes the kernel runs and accounts for all the rest.
    assert region.wall_s + kernel_s == pytest.approx(elapsed, abs=0.002)
    count = len(sampler.samples)
    time.sleep(0.08)
    assert len(sampler.samples) == count       # stopped means stopped
