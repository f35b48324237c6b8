"""Host-speed sampling, to report times in reference seconds.

The benchmark runs on shared hosts where other tenants' load slows
pure-Python work by up to ~1.8x, in phases lasting seconds; measured
there, one pass of the same work took between 20 and 28 s.  ``Pace`` runs
a fixed kernel, owned by the benchmark and independent of convlab, from a
SIGALRM handler every ``INTERVAL_S`` of wall time and records how long it
took.  An interval of wall time converts to reference seconds by dropping
the kernel's own time and scaling the rest by the mean of
``REFERENCE_S / kernel time`` over the samples taken in it: the time the
interval would have taken at the speed where the kernel takes
``REFERENCE_S``.  The sampling costs about 0.5 % of the pass.
"""

from __future__ import annotations

import bisect
import signal
import time

INTERVAL_S = 0.02
# kernel time on an unloaded host of the reference machine (2-vCPU Xeon at
# 2.0 GHz, Python 3.11.7); it only sets the scale of reference seconds
REFERENCE_S = 9e-5

_TABLE = tuple((m * 2654435761) & 0xFF for m in range(64))


def kernel() -> int:
    """Interpreter-bound integer and tuple work, like convlab's mask loops."""
    t = _TABLE
    c = 0
    for a in range(1, 64):
        ta = t[a]
        for b in range(1, 64, 3):
            if b & ~a == 0 and ta & ~t[b]:
                c += 1
    return c


class Pace:
    def __init__(self):
        self.stamps: list[float] = []   # perf_counter() at each sample's end
        self.costs: list[float] = []    # the kernel's time in each sample

    def _sample(self, _signum, _frame) -> None:
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.stamps.append(t1)
        self.costs.append(t1 - t0)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def _costs(self, t0: float, t1: float) -> list[float]:
        lo = bisect.bisect_left(self.stamps, t0)
        hi = bisect.bisect_right(self.stamps, t1)
        return self.costs[lo:hi]

    def factor(self, since: float = float("-inf"),
               upto: float = float("inf")) -> float:
        """Mean speed relative to the reference over the samples in the
        interval; the mean over all samples when it holds none."""
        costs = self._costs(since, upto) or self.costs
        if not costs:
            return 1.0
        return sum(REFERENCE_S / c for c in costs) / len(costs)

    def sampled_s(self, upto: float) -> float:
        """Time spent in the kernel up to ``upto``."""
        return sum(self._costs(float("-inf"), upto))

    def reference_s(self, t0: float, t1: float) -> float:
        """The wall interval [t0, t1] in reference seconds."""
        return (t1 - t0 - sum(self._costs(t0, t1))) * self.factor(t0, t1)
