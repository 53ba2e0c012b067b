"""The calibration kernel that the benchmark's times are scaled by.

On a shared host the speed of the machine drifts, in bursts, by up to a
factor of two, so a run's median wall time drifts with it.  The benchmark
runs this fixed kernel before and after every timed item (a config's suite,
a set-up, a segment of a cold start) and reports each item's wall time
scaled by ``NOMINAL_S`` over the mean of the two kernel times around it:
calibrated seconds, the time the item would take on a machine that runs the
kernel in ``NOMINAL_S``.  The kernel calls no warpcheck code, so a change to
warpcheck moves the calibrated times in proportion to its raw times.
"""

from __future__ import annotations

import time

import numpy as np

# The kernel's median time on a quiet 2-core VM; only a unit, so fixed.
NOMINAL_S = 0.030


class Calibration:
    """Times the kernel and scales item times by the kernel times around them.

    The kernel is the mix a warm pass spends its time on: batched einsums
    and ``reduceat`` on jet-sized blocks, some large enough for the
    arithmetic to dominate and some small enough for the per-call overhead
    to, with dict updates in plain Python.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.large = rng.standard_normal((6, 35, 35)), np.arange(0, 35 * 35, 7)
        self.small = rng.standard_normal((4, 8, 8)), np.arange(0, 8 * 8, 4)
        self.times: list[float] = []
        self.mark_at = 0

    def run(self) -> None:
        start = time.perf_counter()
        acc: dict[int, float] = {}
        for (a, idx), reps in ((self.large, 150), (self.small, 1500)):
            for i in range(reps):
                b = np.einsum("aij,ajk->aik", a, a)
                acc[i % 17] = float(np.add.reduceat(b.ravel(), idx)[1])
                sum(acc.values())
        self.times.append(time.perf_counter() - start)

    def mark(self) -> None:
        """Number the items from here: item k lies between kernel runs k and k + 1."""
        self.mark_at = len(self.times)

    def scaled(self, seconds: float, k: int = 0) -> float:
        """Wall time of item k since the last ``mark``, in calibrated seconds."""
        around = (self.times[self.mark_at + k] + self.times[self.mark_at + k + 1]) / 2.0
        return seconds * NOMINAL_S / around
