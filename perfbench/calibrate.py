"""Machine-speed calibration: every reported time is in reference-speed seconds.

On a shared host the speed of the CPU itself drifts: on the 2-vCPU Intel
Xeon VM this benchmark was written on, the same pure-Python work took up to
twice as long from one minute to the next, in CPU time as much as in wall
time, so longer runs and medians alone could not steady the figures.

A fixed kernel (plain-int matrix products, refinement parities and dict
stores from reference.py, nothing from symsplit) runs right after every timed
call.  A call's raw duration is scaled by REFERENCE_KERNEL_S over the mean of
the kernel durations just before and just after it.  The result is the time
the call would take on a machine where the kernel takes exactly
REFERENCE_KERNEL_S; a change to symsplit moves it, the host's speed mostly
does not (the kernel and the program do not slow down by exactly the same
factor, so some spread remains).  The kernel's median and the unscaled total
are printed with every result.
"""

from __future__ import annotations

import random
import statistics
import time

from reference import matmul, refinement_value

REFERENCE_KERNEL_S = 0.001

_rng = random.Random(0)
_MATRIX = [[_rng.randint(-3, 3) for _ in range(6)] for _ in range(6)]
_PSI = [_rng.randint(0, 1) for _ in range(12)]
_VECTORS = [[_rng.randint(-5, 5) for _ in range(12)] for _ in range(64)]


def kernel() -> int:
    total = 0
    for _ in range(12):
        total += matmul(_MATRIX, _MATRIX)[0][0]
    for v in _VECTORS:
        total ^= refinement_value(_PSI, v)
    table = {}
    for i in range(2000):
        table[i, i & 7] = str(i)
    return total + len(table)


class Speed:
    """Runs the kernel between timed calls and converts raw durations."""

    def __init__(self) -> None:
        for _ in range(50):
            kernel()
        self.kernel_times: list[float] = []
        self.raw_total = 0.0
        self._last = self._probe()

    def _probe(self) -> float:
        start = time.perf_counter()
        kernel()
        elapsed = time.perf_counter() - start
        self.kernel_times.append(elapsed)
        return elapsed

    def scale(self, raw: float) -> float:
        """Reference-speed duration of a call that just took `raw` seconds."""
        after = self._probe()
        factor = REFERENCE_KERNEL_S / ((self._last + after) / 2)
        self._last = after
        self.raw_total += raw
        return raw * factor

    def median_kernel(self, since: int = 0) -> float:
        return statistics.median(self.kernel_times[since:])
