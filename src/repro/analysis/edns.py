"""EDNS(0) buffer-size and truncation analysis (paper section 4.4, Figure 6).

The advertised UDP payload size determines whether large answers fit over
UDP; providers advertising small buffers (Facebook's 512-byte mode) see
truncated answers and retry over TCP.
:class:`~repro.analysis.streaming.EDNSAggregator` folds the
query-weighted histogram of advertised sizes and the truncation counts
behind the per-provider ratios the paper quotes (Facebook 17.16%, Google
0.04%, Microsoft 0.01%); this module holds the CDF it finalises to.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np


@dataclass
class BufsizeCDF:
    """Query-weighted CDF of advertised EDNS0 sizes for one provider."""

    provider: str
    sizes: np.ndarray       #: sorted distinct advertised sizes
    cumulative: np.ndarray  #: CDF value at each size

    def at(self, size: int) -> float:
        """CDF evaluated at ``size`` (fraction of queries advertising
        ``<= size``)."""
        index = np.searchsorted(self.sizes, size, side="right") - 1
        return float(self.cumulative[index]) if index >= 0 else 0.0

    def as_points(self) -> List[Tuple[int, float]]:
        return [(int(s), float(c)) for s, c in zip(self.sizes, self.cumulative)]
