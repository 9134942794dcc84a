"""Host-speed calibration for the benchmark's timings.

The benchmark runs on shared machines whose CPU speed drifts by +-25%
over tens of seconds, which is more than any bound a regression check
could use.  Every timed region therefore runs a fixed slice of
interpreter work every CAL_INTERVAL seconds (from a SIGALRM handler, so
between bytecodes of whatever osculant is doing), subtracts the slices'
own time, and scales the rest to the reference speed at which one slice
takes REF_SLICE_S.  A timing in the results is thus "seconds at the
reference speed"; the raw wall time is reported next to it.  Interpreter
start-up cannot host the handler: a worker times a few slices before it
imports osculant and after it is ready instead.  This module imports
nothing that osculant does not, so that importing it first costs the
set-up next to nothing.
"""

import signal
import time

CAL_INTERVAL = 0.01      # seconds of wall time between slices
CAL_ROUNDS = 200         # size of one slice
REF_SLICE_S = 0.00005    # one slice at the reference speed
RECENT = 5               # slices that give the speed at one moment


def calibration_work() -> int:
    """A fixed slice of interpreter work (small tuples, int arithmetic, a
    dict) whose duration tracks the speed the host gives this CPU."""
    acc, table = 0, {}
    for i in range(CAL_ROUNDS):
        t = (i, i * 3 % 7, i ^ 5)
        table[t[1]] = t
        acc += t[0] * t[1] - t[2]
    return acc + len(table)


def time_slice() -> float:
    t0 = time.perf_counter()
    calibration_work()
    return time.perf_counter() - t0


def scale(slices: list[float]) -> float:
    """Factor from measured to reference seconds over a stretch of time
    sampled at equal wall-time intervals: REF_SLICE_S times the mean of
    the slice speeds."""
    return REF_SLICE_S * sum(1.0 / s for s in slices) / len(slices)


def median_scale(slices: list[float]) -> float:
    """Factor from the median of a few slices, which resists a slice hit by
    an interrupt."""
    ordered = sorted(slices)
    mid = len(ordered) // 2
    middle = ordered[mid] if len(ordered) % 2 \
        else (ordered[mid - 1] + ordered[mid]) / 2
    return REF_SLICE_S / middle


class Calibrator:
    """Context manager: one slice on entry, then one every CAL_INTERVAL.
    `spent` is the time slices took after entry, to subtract from any
    measurement taken inside."""

    def __init__(self):
        self.slices: list[float] = []
        self.spent = 0.0

    def _handler(self, signum, frame):
        dt = time_slice()
        self.slices.append(dt)
        self.spent += dt

    def scale_since(self, first: int) -> float:
        """Factor for a measurement that began when `first` slices had been
        taken and has just ended: the mean speed of the slices taken during
        it if there are at least RECENT of them, else the median of the
        last RECENT, which resists a slice hit by an interrupt."""
        during = self.slices[first:]
        if len(during) >= RECENT:
            return scale(during)
        return median_scale(self.slices[-RECENT:])

    def __enter__(self):
        self.slices.append(time_slice())
        signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, CAL_INTERVAL, CAL_INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
