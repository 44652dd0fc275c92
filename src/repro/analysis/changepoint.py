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

#: :func:`jump_detector`: a rollout point is at least this multiple of the
#: mean of the points before it ...
JUMP_FACTOR = 2.0
#: ... and at least this share.
JUMP_FLOOR = 0.10

#: :func:`cusum_detector`: the cumulative standardised deviation that
#: signals a change,
CUSUM_THRESHOLD = 4.0
#: the per-step allowance subtracted before accumulating (suppresses slow
#: trends),
CUSUM_DRIFT = 0.5
#: and the points the first baseline mean/std are computed over.
CUSUM_MIN_HISTORY = 2


def jump_detector(values: Sequence[float]) -> Optional[int]:
    """Index of the first value ≥ :data:`JUMP_FLOOR` and ≥
    :data:`JUMP_FACTOR` × the mean of all preceding values; None if no
    such point exists."""
    for index in range(1, len(values)):
        baseline = float(np.mean(values[:index]))
        if values[index] >= JUMP_FLOOR and values[index] >= JUMP_FACTOR * max(
            baseline, 1e-9
        ):
            return index
    return None


def cusum_detector(values: Sequence[float]) -> Optional[int]:
    """One-sided CUSUM: index where the cumulative standardised positive
    deviation from the running baseline first exceeds
    :data:`CUSUM_THRESHOLD`.

    :data:`CUSUM_DRIFT` is subtracted per step before accumulating; the
    baseline mean/std are computed over the first
    :data:`CUSUM_MIN_HISTORY` points and updated only with pre-change data.
    """
    values = np.asarray(values, dtype=np.float64)
    if len(values) <= CUSUM_MIN_HISTORY:
        return None
    baseline = values[:CUSUM_MIN_HISTORY]
    mean = float(baseline.mean())
    std = float(baseline.std()) or max(abs(mean) * 0.25, 1e-3)
    cumulative = 0.0
    for index in range(CUSUM_MIN_HISTORY, len(values)):
        z = (values[index] - mean) / std
        cumulative = max(0.0, cumulative + z - CUSUM_DRIFT)
        if cumulative >= CUSUM_THRESHOLD:
            return index
        # Still pre-change: fold the point into the baseline.
        count = index + 1
        mean = mean + (values[index] - mean) / count
    return None
