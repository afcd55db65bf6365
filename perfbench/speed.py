"""Machine speed, sampled all through a run, so that op times can be stated
at one fixed reference speed.

On a shared machine the same op runs up to 70% slower for tens of seconds
at a time, when other tenants load the host; CPU time slows as much as wall
time.  A fixed piece of pure-Python work, timed often during the run, slows
by about the same share.  So a run samples that work every ``PERIOD``
seconds from a ``SIGALRM`` handler, which runs between bytecodes in the one
thread of the process, inside the ops as well; sampling costs about 1.5% of
the run.  An op's time is its wall time minus the time spent in the
handler, divided by the machine's slowdown around it: the mean sample near
the op over ``REF_SECONDS``.

The reference work is the benchmark's own and never calls ``loopforge``, so
a change to the program moves op times and leaves the reference alone.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from time import perf_counter

PERIOD = 0.02
MIN_SAMPLES = 5     # an op shorter than a few periods borrows its neighbours'
REF_SECONDS = 2e-4  # one sample at the reference speed

_CELLS = [(x, y) for y in range(3) for x in range(4)]
_ADJ = {(x, y): tuple((x + dx, y + dy) for dx, dy in ((1, 0), (0, 1), (-1, 0), (0, -1))
                      if (x + dx, y + dy) in set(_CELLS))
        for x, y in _CELLS}


def reference_unit() -> int:
    """Count the Hamiltonian cycles of the 4x3 grid graph through (0, 0) by
    iterative depth-first search: tuples, dicts, sets and lists, like the
    program's own search, with a shallow stack."""
    start, n = (0, 0), len(_ADJ)
    path, seen = [start], {start}
    stack = [iter(_ADJ[start])]
    count = 0
    while stack:
        w = next(stack[-1], None)
        if w is None:
            stack.pop()
            seen.discard(path.pop())
            continue
        if w in seen:
            if w == start and len(path) == n:
                count += 1
            continue
        path.append(w)
        seen.add(w)
        stack.append(iter(_ADJ[w]))
    return count


class Speedometer:
    """Reference samples taken every ``PERIOD`` seconds while running.

    ``spent`` is the total time the samples took; callers subtract its
    growth over an interval from that interval's wall time."""

    def __init__(self):
        self.times: list[float] = []    # mid-point of each sample
        self.samples: list[float] = []  # its duration
        self.spent = 0.0
        self._old = None
        self._busy = False

    def sample(self, *_):
        if self._busy:  # a sample held up past the next tick
            return
        self._busy = True
        t0 = perf_counter()
        try:
            reference_unit()
            t1 = perf_counter()
            self.times.append((t0 + t1) / 2)
            self.samples.append(t1 - t0)
        finally:
            self.spent += perf_counter() - t0
            self._busy = False

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        # a closing sample, so the last op has neighbours on both sides
        for _ in range(MIN_SAMPLES):
            self.sample()
        return False

    def slowdown(self, t0: float, t1: float) -> float:
        """The machine's slowdown over [t0, t1], relative to the reference
        speed: the mean of the samples inside it, or of the ``MIN_SAMPLES``
        samples nearest to its middle if it holds fewer.  The mean, not the
        median: the machine switches between a few speeds many times a
        second, and an op's time follows their average."""
        lo = bisect.bisect_left(self.times, t0)
        hi = bisect.bisect_right(self.times, t1)
        if hi - lo < MIN_SAMPLES:
            mid = bisect.bisect_left(self.times, (t0 + t1) / 2)
            lo = max(0, min(mid - MIN_SAMPLES // 2, len(self.times) - MIN_SAMPLES))
            hi = lo + MIN_SAMPLES
        return statistics.fmean(self.samples[lo:hi]) / REF_SECONDS
