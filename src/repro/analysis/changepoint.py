"""Changepoint detection utilities for longitudinal series.

Two detectors over monthly metric series (e.g. a provider's NS-query
share, Figure 3):

* :func:`jump_detector` — first point exceeding a floor and a multiple
  of the preceding mean; :func:`repro.analysis.qmin.detect_rollout` maps
  its index to a month, and Figure 3 reports that month;
* :func:`cusum_detector` — a one-sided CUSUM on standardised deviations
  from the running baseline, the classical sequential-detection approach;
  more robust when the pre-change series is noisy.

The Q-min ablation benchmark compares both against the paper's ground
truth (Google: Dec 2019).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np


def jump_detector(
    values: Sequence[float], jump_factor: float = 2.0, floor: float = 0.10
) -> Optional[int]:
    """Index of the first value ≥ ``floor`` and ≥ ``jump_factor`` × the
    mean of all preceding values; None if no such point exists."""
    for index in range(1, len(values)):
        baseline = float(np.mean(values[:index]))
        if values[index] >= floor and values[index] >= jump_factor * max(
            baseline, 1e-9
        ):
            return index
    return None


def cusum_detector(
    values: Sequence[float],
    threshold: float = 4.0,
    drift: float = 0.5,
    min_history: int = 2,
) -> Optional[int]:
    """One-sided CUSUM: index where the cumulative standardised positive
    deviation from the running baseline first exceeds ``threshold``.

    ``drift`` is the per-step allowance subtracted before accumulating
    (suppresses slow trends); the baseline mean/std are computed over the
    first ``min_history`` points and updated only with pre-change data.
    """
    values = np.asarray(values, dtype=np.float64)
    if len(values) <= min_history:
        return None
    baseline = values[:min_history]
    mean = float(baseline.mean())
    std = float(baseline.std()) or max(abs(mean) * 0.25, 1e-3)
    cumulative = 0.0
    for index in range(min_history, len(values)):
        z = (values[index] - mean) / std
        cumulative = max(0.0, cumulative + z - drift)
        if cumulative >= threshold:
            return index
        # Still pre-change: fold the point into the baseline.
        count = index + 1
        mean = mean + (values[index] - mean) / count
    return None
