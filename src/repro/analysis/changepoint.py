"""Changepoint detection for longitudinal series.

:func:`jump_detector` finds, in a monthly metric series (e.g. a provider's
NS-query share, Figure 3), the first point exceeding a floor and a
multiple of the preceding mean; :func:`repro.analysis.qmin.detect_rollout`
maps its index to a month, and Figure 3 reports that month.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

#: :func:`jump_detector`: a rollout point is at least this multiple of the
#: mean of the points before it ...
JUMP_FACTOR = 2.0
#: ... and at least this share.
JUMP_FLOOR = 0.10


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
