"""Host-speed normalisation of the benchmark's timings.

On a shared host the same experiment can take 0.29 s or 0.60 s within two
minutes: the CPU the process runs on changes speed for seconds at a time,
whatever the program does. A timing measured over one run then moves with
the host as much as with the code.

While a `SpeedProbe` is entered, a SIGALRM timer interrupts the process
every `INTERVAL_S` seconds and times one call of a fixed reference kernel
(plain NumPy, the benchmark's own code, never noisylab's). `wall(start,
end)` is the wall time between two `time.perf_counter()` stamps less the
time the probe itself took inside it; `normalised(start, end)` rescales
that by `REF_S / t` averaged over the reference timings `t` taken inside it
and next to it: the time the work would have taken on a host where one
reference call takes exactly `REF_S` seconds. A change to noisylab moves
the work and not the reference, so it moves the normalised time in full.

The kernel mimics the mix of work in a noisylab experiment, in three parts
of about equal length: a mini-batch SGD loop with small NumPy operations on
each row, the same loop with the per-row work done in plain Python through
function calls and a dispatch table, and softmax and argmax over a wide
array. No single part tracks the host's speed changes as well as the three
together do.
"""

from __future__ import annotations

import bisect
import math
import signal
import statistics
import time

import numpy as np

# Nominal duration of one reference call, in seconds.
REF_S = 0.0022
# Seconds between reference calls while a probe is entered.
INTERVAL_S = 0.05
ROWS = 128
BATCH = 32
WIDE_ROWS = 2000
WIDE_REPEATS = 3


def _nll(p, label):
    return -math.log(max(float(p[label]), 1e-12))


def _residual(p, label, eye):
    return p - eye[label]


_DISPATCH = {"nll": _nll}


def _softmax(z):
    z = z - z.max(axis=1, keepdims=True)
    p = np.exp(z)
    p /= p.sum(axis=1, keepdims=True)
    return p


class SpeedProbe:
    """Times the reference kernel, on a timer while entered; `wall` and
    `normalised` turn two stamps into seconds of work."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._x = rng.normal(size=(ROWS, 2))
        self._y = rng.integers(0, 3, ROWS)
        self._wide = rng.normal(size=(WIDE_ROWS, 2))
        self._eye = np.eye(3)
        self.starts = []
        self.samples = []
        self._busy = False
        self._previous = None
        self.sample()  # first call pays for lazy NumPy set-up

    def _sgd(self, per_row):
        x, y, eye = self._x, self._y, self._eye
        w = np.zeros((2, 3))
        for start in range(0, ROWS, BATCH):
            xb = x[start:start + BATCH]
            p = _softmax(xb @ w)
            g = np.zeros_like(p)
            for r in range(len(xb)):
                g[r] = per_row(p[r], y[start + r], eye)
            w -= 0.01 * (xb.T @ g)
        return w

    @staticmethod
    def _numpy_row(p, label, eye):
        return float(-np.log(p[label] + 1e-12) > 0.1) * (p - eye[label])

    @staticmethod
    def _python_row(p, label, eye):
        weight = 1.0 if _DISPATCH["nll"](p, label) > 0.1 else 0.0
        return weight * _residual(p, label, eye)

    def _kernel(self):
        self._sgd(self._numpy_row)
        self._sgd(self._python_row)
        w = np.ones((2, 3))
        for _ in range(WIDE_REPEATS):
            _softmax(self._wide @ w).argmax(axis=1)

    def sample(self):
        """Seconds one reference call takes now."""
        t0 = time.perf_counter()
        self._kernel()
        t = time.perf_counter() - t0
        self.starts.append(t0)
        self.samples.append(t)
        return t

    def _on_alarm(self, signum, frame):
        if not self._busy:
            self._busy = True
            try:
                self.sample()
            finally:
                self._busy = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()  # a reference timing after the last stretch of work

    def scale(self):
        """REF_S / t averaged over every reference timing taken: the factor
        that takes wall seconds outside the timed stretches, such as
        set-up, to the nominal host at the run's average speed."""
        return statistics.fmean(REF_S / t for t in self.samples)

    def _inside(self, start, end):
        """Index range of the samples taken between two perf_counter
        stamps. Samples run in the same thread as the work, so each lies
        wholly inside the stretch or wholly outside it."""
        return (bisect.bisect_left(self.starts, start),
                bisect.bisect_left(self.starts, end))

    def wall(self, start, end):
        """Wall seconds between two stamps, less the reference calls made
        inside them."""
        i, j = self._inside(start, end)
        return end - start - math.fsum(self.samples[i:j])

    def normalised(self, start, end):
        """`wall(start, end)` at the nominal host speed: scaled by REF_S / t
        averaged over the reference timings inside the stretch and the one
        on each side of it."""
        i, j = self._inside(start, end)
        near = self.samples[max(0, i - 1):j + 1]
        return (self.wall(start, end)
                * statistics.fmean(REF_S / t for t in near))
