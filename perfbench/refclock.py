"""Job time corrected for the speed of a shared host.

On the shared 2-core host the baseline was measured on, the same job takes
0.8 s to 1.4 s within one minute.  CPU time drifts with wall time, so
process time does not help, and a calibration loop in a second process, on
the other core, does not follow this core's speed.  A sampler inside the
measuring process does: every ``SAMPLE_EVERY`` seconds a ``SIGALRM``
handler times a fixed pure-Python loop.  A job's time is then scaled by
``REFERENCE_LOOP_S`` / (mean loop time while the job ran): it is given in
seconds at a fixed reference speed, the speed at which the loop takes
``REFERENCE_LOOP_S``.  The time spent in the handler is taken out first.

On that host this cut the spread of one job repeated for a minute from
0.18-0.36 to 0.05-0.09 (quartile distance over median) on all three
workloads.
"""

from __future__ import annotations

import signal
import time
from contextlib import contextmanager

SAMPLE_EVERY = 0.005
LOOP = 1000
REFERENCE_LOOP_S = 60e-6  # about the loop's time on an idle core of that host


class WallClock:
    """Plain wall time, for runs whose timings are not compared across runs."""

    def measure(self, fn):
        start = time.perf_counter()
        result = fn()
        return result, time.perf_counter() - start


class ReferenceClock(WallClock):
    """Wall time rescaled to the reference speed, while ``running()``."""

    def __init__(self) -> None:
        self.loop_s = 0.0  # total time of all loop samples
        self.samples = 0
        self.wall_s = 0.0  # unscaled time of everything measured, for the log

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        s = 0
        for i in range(LOOP):
            s += i * i % 7
        self.loop_s += time.perf_counter() - start
        self.samples += 1

    @contextmanager
    def running(self):
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY, SAMPLE_EVERY)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def mean_loop_s(self) -> float:
        return self.loop_s / self.samples if self.samples else REFERENCE_LOOP_S

    def measure(self, fn):
        """(fn(), its time in reference seconds)."""
        loop0, n0 = self.loop_s, self.samples
        result, elapsed = super().measure(fn)
        loop, n = self.loop_s - loop0, self.samples - n0
        elapsed -= loop
        self.wall_s += elapsed
        # A call too short to be sampled takes the run's mean speed so far.
        speed = loop / n if n else self.mean_loop_s()
        return result, elapsed * REFERENCE_LOOP_S / speed
