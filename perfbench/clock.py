"""Timings at a fixed reference CPU speed.

On the two-core virtual machine the benchmark was built on, the speed of a
core drifts by up to 2x over seconds to tens of seconds (the guest is not
descheduled: its CPU time equals its wall time, so the drift comes from the
host).  A 20-second run can sit wholly in a fast or a slow stretch, which
moves its rates by a third; no statistic within a run removes that.

So each timed block is bracketed by a short probe of the work that bounds it,
and the block's time is scaled by the probe's speed relative to the probe's
reference speed, a typical rate on that machine.  The scaled time is what
the block would have taken at the reference speed.  The probe, small numpy
operations driven from a Python loop for 5 ms, matches work that Python
overhead bounds: over 40 s of HMC calls at d = 100 it cut the variation of
5-second medians from 10% (raw) to 1.3% (scaled).  It does not match the
memory-bound work of the dense d = 1000 target.  A probe of twenty
1000 x 1000 matrix-vector products did not match it either: over five
20-second dense runs the scaled rates spread more than the raw ones (the
iterative NUTS rate ranged over 26.7-34.4 against 26.1-28.0), so dense times
are taken raw (``Timed(probe=False)``).

Raw times are kept beside the scaled ones in each run's result file.
"""

from __future__ import annotations

import time

import numpy as np

_ONES = np.ones(100)

# a typical probe rate, in iterations per second, on a 2-core x86-64 VM with
# Python 3.11.7, numpy 2.4.6 and one BLAS thread, where it ranged from 171k to
# 378k.  It sets the scale of the reported times, not their spread.
REFERENCE_RATE = 300_000.0


def python_rate(iters: int = 2000) -> float:
    x = _ONES
    t0 = time.perf_counter()
    for _ in range(iters):
        x = _ONES * 0.5 + x * 0.5
        float(x @ x)
    return iters / (time.perf_counter() - t0)


class Timed:
    """Raw and reference-speed duration of a ``with`` block.

    With ``probe=False`` nothing is probed and the scaled time is the raw one.
    """

    def __init__(self, probe: bool = True):
        self._probe = probe
        self.speed = 1.0

    def __enter__(self) -> "Timed":
        if self._probe:
            self._before = python_rate()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.raw = time.perf_counter() - self._t0
        if self._probe:
            self.speed = 0.5 * (self._before + python_rate()) / REFERENCE_RATE
        self.scaled = self.raw * self.speed

    def scale(self, seconds: float) -> float:
        """``seconds`` measured inside the block, at the reference speed."""
        return seconds * self.speed
