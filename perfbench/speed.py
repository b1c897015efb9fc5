"""Scale wall time to a fixed reference CPU speed.

On a shared host the speed one process gets can swing by 1.8x within
seconds, as other tenants come and go on the same core; over ten
30-second runs, raw wall-clock figures of the same code spread by up to
0.39 of their median (quartile distance).
So the benchmark measures the speed alongside the work: a fixed
pure-Python snippet runs every ``INTERVAL_S`` seconds from a ``SIGALRM``
handler while an op runs, and a stretch of wall time counts as reference
seconds in proportion to the speed the snippet saw then:

    reference seconds = (wall seconds - snippet seconds) * mean(REFERENCE_S / snippet_s)

The snippet's own time is taken out.  ``REFERENCE_S`` is a constant, so
figures from different runs and commits compare directly; it is about the
snippet's median time on a 2.1 GHz Xeon VM under sustained load, so
reference seconds read close to wall seconds there.
"""

from __future__ import annotations

import signal
import statistics
from fractions import Fraction
from time import perf_counter

INTERVAL_S = 0.02
REFERENCE_S = 0.0004
BURST = 5


def snippet() -> Fraction:
    """Fixed work of the kind ``cmeis`` does: Fraction arithmetic on small ints."""
    total = Fraction(0)
    for i in range(1, 120):
        total += Fraction(1, i % 97 + 1)
    return total


class SpeedProbe:
    """Times ``snippet`` on demand and, inside ``with``, every ``INTERVAL_S`` s."""

    def __init__(self):
        self.at: list[float] = []
        self.took: list[float] = []

    def probe(self, *_signal_args) -> None:
        t0 = perf_counter()
        snippet()
        self.at.append(t0)
        self.took.append(perf_counter() - t0)

    def burst(self) -> None:
        """A few probes now, so that a short interval has a speed to use."""
        for _ in range(BURST):
            self.probe()

    def __enter__(self):
        signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc_info):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def reference_seconds(self, start: float, end: float) -> float:
        """The wall interval [start, end) in reference seconds.

        Uses the probes inside the interval, or the last burst before it
        when the interval is too short to hold one.
        """
        inside = [d for t, d in zip(self.at, self.took) if start <= t < end]
        near = inside or [d for t, d in zip(self.at, self.took) if t < start][-BURST:]
        return (end - start - sum(inside)) * _speed(near)

    def recent_speed(self) -> float:
        """Reference seconds per wall second, from the last burst."""
        return _speed(self.took[-BURST:])


def _speed(took) -> float:
    return statistics.fmean(REFERENCE_S / d for d in took)
