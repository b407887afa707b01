"""Speed normalisation for a shared machine.

The sandboxes this benchmark runs on share cores with other tenants, and
their speed swings by 1.4-1.7x for seconds at a time, so raw pass times of
one commit spread by about 25% from run to run.  While a ``SpeedProbe`` is
active, a timer signal interrupts the process every ``INTERVAL_S`` and the
handler runs a fixed piece of stdlib interpreter work (the *calibration*),
recording when it ran and how long it took.  An interval's normalised time is
its time without the handler's own time, scaled by ``CAL_REF_S`` over the
median calibration inside the interval (at least ``MIN_SAMPLES`` samples,
the nearest ones when the interval holds fewer): what it would take while a
calibration takes ``CAL_REF_S``.  The calibration does not touch
``poremetrics``, so a change to the package moves normalised times as it
moves raw ones.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from bisect import bisect_left
from fractions import Fraction

CAL_REF_S = 0.0006  # calibration time on an uncontended core of the 2-core box measured
INTERVAL_S = 0.05
MIN_SAMPLES = 3


def _work():
    total = Fraction(0)
    for i in range(1, 160):
        total += Fraction(1, i % 37 + 1)
    counts = {}
    for i in range(1600):
        counts[i % 101] = counts.get(i % 101, 0) + i * i
    return total, counts


class SpeedProbe:
    """Samples the machine's speed while active (a context manager)."""

    def __init__(self):
        self.starts = []
        self.durations = []
        self._previous = None

    def sample(self, *_):
        # The garbage collector stays off so that a sample never collects
        # the workload's garbage.
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            _work()
            self.durations.append(time.perf_counter() - t0)
            self.starts.append(t0)
        finally:
            if enabled:
                gc.enable()

    def __enter__(self):
        for _ in range(MIN_SAMPLES):
            self.sample()
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        for _ in range(MIN_SAMPLES):
            self.sample()
        return False

    def normalise(self, t0: float, t1: float, own: bool = True) -> float:
        """Normalised time of the interval [t0, t1].  ``own`` removes the
        samples taken inside it, which ran in this process and lengthened it."""
        i, j = bisect_left(self.starts, t0), bisect_left(self.starts, t1)
        elapsed = t1 - t0 - (sum(self.durations[i:j]) if own else 0.0)
        lo, hi = i, j
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(self.starts)):
            if lo > 0 and (hi == len(self.starts) or t0 - self.starts[lo - 1] < self.starts[hi] - t1):
                lo -= 1
            else:
                hi += 1
        return elapsed * CAL_REF_S / statistics.median(self.durations[lo:hi])

