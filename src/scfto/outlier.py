"""Density-based trust-threshold detection and convergence tracking.

A node's Known trust values are split into core and edge values by neighbor
count, the densest high cluster is grown from the maximum core value, and
its minimum becomes the adaptive trust threshold.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .config import OutlierParams


def neighbor_counts(values: list, t_nbr: float) -> list:
    """For each value (sorted order), the count of *other* values at
    absolute distance strictly below t_nbr."""
    # one pass: [lo, hi) is the window of values within t_nbr of v; the
    # infinite sentinel stops the upper pointer, and the lower one stops
    # at v itself
    counts = []
    lo = hi = 0
    scan = values + [math.inf]
    for v in values:
        while v - values[lo] >= t_nbr:
            lo += 1
        while scan[hi] - v < t_nbr:
            hi += 1
        counts.append(hi - lo - 1)  # exclude the value itself
    return counts


def detect_threshold(values, params: OutlierParams) -> float | None:
    """Adaptive trust threshold from a multiset of Known trust values.

    Returns None on empty input.  Core values (neighbor count strictly above
    core_fraction of the maximum) expand the cluster; edge values join but
    do not expand.  The cluster is seeded at the maximum core value, or at
    the maximum value outright when nothing qualifies as core.
    """
    vals = sorted(values)
    n = len(vals)
    if n == 0:
        return None
    counts = neighbor_counts(vals, params.t_nbr)
    max_count = max(counts)
    if max_count == 0:
        # every value is isolated; the seed has no neighbors to pull in
        return vals[-1]
    cutoff = params.core_fraction * max_count
    # core_fraction < 1, so a value with the maximum count is core
    seed = n - 1
    while counts[seed] <= cutoff:
        seed -= 1

    # values form a sorted array, so the grown cluster is a contiguous run
    # and only its lowest core value extends it downward; the seed is the
    # highest core value, so what joins above it never reaches the result
    left = seed
    min_core = vals[seed]
    while left - 1 >= 0 and min_core - vals[left - 1] < params.t_nbr:
        left -= 1
        if counts[left] > cutoff:
            min_core = vals[left]
    return vals[left]


@dataclass(slots=True)
class ConvergenceTracker:
    """Latches once the detected threshold stays stable long enough; the
    tolerance `th_d` and the streak length `n_s` are the config's."""

    last_t_th: float | None = None
    stable_rounds: int = 0
    converged: bool = False

    def update(self, new_t_th: float | None, params: OutlierParams) -> None:
        """Fold in one round's threshold; None (no detection) skips the
        round without touching the streak."""
        if new_t_th is None:
            return
        if self.last_t_th is not None and abs(new_t_th - self.last_t_th) < params.th_d:
            self.stable_rounds += 1
        else:
            self.stable_rounds = 0
        if self.stable_rounds >= params.n_s:
            self.converged = True  # latched, never reset
        self.last_t_th = new_t_th
