"""Shard planning: deterministic, weight-balanced partitions of a fleet.

A *shard* is a contiguous range ``[start, stop)`` of fleet-member indices.
Contiguity is load-bearing: concatenating per-shard chunks in shard-index
order reproduces exactly the row sequence a serial run appends, which is
what makes the merged result bit-identical to the serial path (see
:meth:`repro.capture.SpooledCapture.view`).

Per-resolver query streams are seeded from the run seed plus the resolver's
*global* fleet index (:class:`~repro.workload.generators.WorkloadGenerator`),
so a member produces the same stream no matter which shard — or process —
resolves it: nothing random is ever seeded per shard, which keeps results
placement-independent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence, Tuple

import numpy as np


@dataclass(frozen=True)
class Shard:
    """One contiguous slice of the fleet."""

    index: int
    start: int
    stop: int
    weight: float

    @property
    def members(self) -> int:
        return self.stop - self.start


@dataclass(frozen=True)
class ShardPlan:
    """An ordered, gap-free partition of ``member_count`` fleet members."""

    shards: Tuple[Shard, ...]
    member_count: int
    total_weight: float

    def __len__(self) -> int:
        return len(self.shards)

    def __iter__(self) -> Iterator[Shard]:
        return iter(self.shards)


def plan_shards(weights: Sequence[float], shard_count: int) -> ShardPlan:
    """Partition ``len(weights)`` members into ``shard_count`` contiguous,
    weight-balanced shards.

    Cut points are placed at the weight quantiles (the classic linear
    partition heuristic), then nudged so every shard holds at least one
    member.  ``shard_count`` is clamped to the member count; a non-positive
    or all-zero weight vector degrades to an even split by index.
    """
    member_count = len(weights)
    if member_count == 0:
        raise ValueError("cannot plan shards over an empty fleet")
    if shard_count < 1:
        raise ValueError("shard_count must be >= 1")
    count = min(shard_count, member_count)

    weight_arr = np.maximum(np.asarray(weights, dtype=np.float64), 0.0)
    cumulative = np.cumsum(weight_arr)
    total = float(cumulative[-1])
    if total <= 0.0:
        # Degenerate weights: fall back to an even split by member count.
        bounds = np.linspace(0, member_count, count + 1).astype(int)
    else:
        targets = total * np.arange(1, count) / count
        cuts = np.searchsorted(cumulative, targets, side="left") + 1
        bounds = [0]
        for offset, cut in enumerate(cuts):
            low = bounds[-1] + 1                      # non-empty on the left
            high = member_count - (count - 1 - offset)  # room on the right
            bounds.append(int(min(max(int(cut), low), high)))
        bounds.append(member_count)

    shards = tuple(
        Shard(
            index=index,
            start=int(bounds[index]),
            stop=int(bounds[index + 1]),
            weight=float(weight_arr[bounds[index]:bounds[index + 1]].sum()),
        )
        for index in range(count)
    )
    return ShardPlan(shards=shards, member_count=member_count, total_weight=total)
