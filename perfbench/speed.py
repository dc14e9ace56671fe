"""Machine-speed probe for the timed loop.

The benchmark host is shared: other tenants make the same pure-Python code
run up to ~1.6x slower, for milliseconds to minutes at a time.  While the
loop runs, a timer signal every `EVERY` seconds interrupts the op at hand
and times a fixed kernel of the benchmark's own (not kampe) that does what
kampe's series loop does.  The op's time excludes the probe's, and run.py
scales it by REF_S over the median kernel time during and around the op, so
it reads as on a machine where the kernel takes REF_S.  Subprocess times
cannot be probed this way and are reported as measured.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

REF_S = 1.0e-3  # kernel time that the scaled times refer to
EVERY = 0.1  # seconds between two probes
NEAR = 2  # an op is also scaled by this many probes before and after it


def kernel() -> float:
    """A plain double-series sweep: 80 diagonals of float lists."""
    terms = [1.0]
    total = 1.0
    for nd in range(1, 80):
        new = [0.0] * (nd + 1)
        for r in range(nd):
            new[r] = terms[r] * 0.3 * (r + 0.5) / (nd + 1.0)
        new[nd] = terms[nd - 1] * 0.2 / (nd + 2.0)
        d = 0.0
        for t in new:
            d += abs(t)
        total += d
        terms = new
    return total


class Probe:
    def __init__(self, samples: list[float] | None = None):
        self.samples = [] if samples is None else samples  # kernel seconds, one per probe
        self.spent = 0.0  # seconds spent probing, to subtract from op times

    def _tick(self, _signum, _frame) -> None:
        # one untimed kernel first, so that what the op left in the caches
        # does not count
        t0 = perf_counter()
        kernel()
        t1 = perf_counter()
        kernel()
        t2 = perf_counter()
        self.samples.append(t2 - t1)
        self.spent += t2 - t0

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, EVERY, EVERY)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)

    def scale(self, seconds: float, first: int, last: int) -> float:
        """`seconds` of an op during which probes `first` to `last` - 1 ran,
        at the reference speed."""
        near = self.samples[max(0, first - NEAR):last + NEAR]
        return seconds * REF_S / statistics.median(near)
