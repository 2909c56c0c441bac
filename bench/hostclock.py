"""Host speed, measured with a fixed reference computation.

This host's speed is bimodal: it swings between two states about 1.6x apart,
from one second to the next and between processes, and CPU time swings with
wall time.  A short reference computation that does not involve hypkonvex
is therefore timed between operations, and each operation's latency is
scaled by (REF_NOMINAL_S / r) ** HOST_EXPONENT, with r the median reference
time around it: the result is in seconds on a host where the reference takes
REF_NOMINAL_S.  The exponent is below 1 because numpy-bound operations move
less with the host's state than the interpreter-bound reference does.
"""

import math
import time

import numpy as np

REF_NOMINAL_S = 2.0e-3  # median reference time on the host of the README figures
# How far an operation's time moves with the reference: chosen over twenty
# runs of each workload (README.md); the fitted sensitivity is about 0.8 for
# dist and 0.2-0.45 for the numpy-bound workloads.
HOST_EXPONENT = 0.75
REF_EVERY_S = 0.1  # at least one reference sample per this much time
REF_SHARE = 0.02  # and reference samples worth this share of the measured work
WINDOW_S = 0.25  # samples this close to an operation describe its host speed


def reference_work():
    """Interpreter loops, small-array numpy calls and FFTs, the kinds of work
    hypkonvex spends its time on; returns its duration in seconds."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(6000):
        acc += math.sqrt(i)
    v = np.linspace(0.0, 1.0, 64)
    for _ in range(300):
        acc += float(np.dot(v, v))
    x = np.linspace(0.0, 1.0, 2048)
    for _ in range(20):
        acc += float(np.fft.rfft(x)[1].real)
    return time.perf_counter() - t0


class HostClock:
    def __init__(self):
        self.samples = []  # (time at end, reference seconds)
        self.spent = 0.0  # all reference time so far
        self._owed = 0.0  # reference time due under REF_SHARE

    def after(self, busy):
        """Sample the reference after ``busy`` seconds of measured work."""
        self._owed += REF_SHARE * busy
        due = not self.samples or time.perf_counter() - self.samples[-1][0] >= REF_EVERY_S
        while due or self._owed > 0.0:
            d = reference_work()
            self.samples.append((time.perf_counter(), d))
            self.spent += d
            self._owed -= d
            due = False


def scaled(samples, spans):
    """Each (end time, seconds) span in reference-host seconds."""
    t = np.array([s[0] for s in samples])
    d = np.array([s[1] for s in samples])
    out = []
    for end, seconds in spans:
        lo = np.searchsorted(t, end - seconds - WINDOW_S)
        hi = np.searchsorted(t, end + WINDOW_S)
        if hi <= lo:  # no sample in the window: take the nearest one
            lo = min(int(np.searchsorted(t, end)), len(t) - 1)
            hi = lo + 1
        out.append(seconds * (REF_NOMINAL_S / float(np.median(d[lo:hi]))) ** HOST_EXPONENT)
    return out
