"""Machine-speed reference: times are reported as if the machine ran at one speed.

The benchmark runs on shared machines whose speed for one process swings by
up to 2x over tens of seconds, as other processes come and go on the same
cores.  Those swings would swamp any change worth measuring.  So a fixed
pure-Python reference task, which uses no zwtick code, is timed between ops
(at most every `INTERVAL_S`, and once after the last op), and each op's wall
time is scaled by ``NOMINAL_S / reference time``, the reference time being
the mean of the samples taken just before and just after the op.  A reported
millisecond is a millisecond on a machine that runs the reference task in
`NOMINAL_S`; a slow phase slows the reference and the op alike and cancels.
"""

from __future__ import annotations

import gc
from fractions import Fraction
from time import perf_counter

#: Reference task time that defines the reported unit (about an unloaded
#: core of the machine the first trajectory point was measured on).
NOMINAL_S = 0.002
#: Least wall time between two reference samples.
INTERVAL_S = 0.25


def reference_task() -> int:
    """Fixed work like the engine's: small exact fractions and dict stores."""
    acc = {}
    for i in range(1, 400):
        a = Fraction(i % 97 + 1, i % 13 + 1)
        b = Fraction(i % 7 + 1, i % 11 + 2)
        acc[(i % 61, i % 3)] = a * b + a
    return len(acc)


def reference_time() -> float:
    """Seconds the reference task takes now: best of three, collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(3):
            t0 = perf_counter()
            reference_task()
            best = min(best, perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()
    return best


class Speed:
    """Reference samples taken between ops, and the scale of each op."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._last = float("-inf")

    def before_op(self) -> int:
        """Sample if due; return the index of the latest sample."""
        if perf_counter() - self._last >= INTERVAL_S:
            self.samples.append(reference_time())
            self._last = perf_counter()
        return len(self.samples) - 1

    def finish(self) -> None:
        """Take the sample that closes the last op."""
        self.samples.append(reference_time())

    def scale(self, before: int) -> float:
        """Factor for an op preceded by sample `before` (call after `finish`)."""
        return NOMINAL_S * 2.0 / (self.samples[before] + self.samples[before + 1])
