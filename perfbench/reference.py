"""A fixed reference workload that measures the host's speed during a sweep.

The speed of a small shared virtual machine changes by up to 2x, in phases
from seconds to minutes, while the work stays the same.  ``Interleaved``
runs ``reference_slice`` on a timer while a sweep runs, so the slices see
the same phases as the sweep; the sweep's wall time divided by the mean
slice time is a host-independent measure of its work.

The slice mimics the program's hot loop (small numpy operations per Euler
step, a Philox stream per interval, weight normalisation and resampling) so
that host phases slow it by about as much as they slow the sweep.  It uses
no mlpf code, and it must not change: a change rescales every result.
"""

from __future__ import annotations

import signal
import time

import numpy as np

INTERVAL_S = 0.05  # one slice per this much wall time

_DY = np.full((1,), 0.01)


def _filter(n: int, level: int, intervals: int, seed: int) -> float:
    x = np.zeros((n, 1))
    delta = 2.0 ** -level
    for t in range(intervals):
        g = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(0, level, t))))
        noise = g.standard_normal((n, 1 << level, 1)) * np.sqrt(delta)
        log_g = np.zeros(n)
        for k in range(1 << level):
            log_g = log_g + (x @ _DY - 0.5 * delta * np.einsum("...i,...i->...", x, x))
            sig = np.full((n, 1, 1), 0.5)
            x = x - x * delta + np.einsum("nij,nj->ni", sig, noise[:, k])
        w = np.exp(log_g - log_g.max())
        w /= w.sum()
        u = (np.arange(n) + g.random()) / n
        x = x[np.minimum(np.searchsorted(np.cumsum(w), u), n - 1)]
    return float(x.mean())


def reference_slice() -> float:
    """Run one fixed slice of particle-filter-like work; returns its wall seconds."""
    t0 = time.perf_counter()
    _filter(32, 5, 3, 1)
    _filter(1024, 3, 2, 2)
    return time.perf_counter() - t0


class Interleaved:
    """Context manager: a reference slice every ``INTERVAL_S`` of wall time.

    The slices run in a SIGALRM handler on the main thread, between the
    program's own bytecodes.  ``count`` and ``seconds`` total them.
    """

    def __init__(self):
        self.count = 0
        self.seconds = 0.0

    def _tick(self, signum, frame):
        self.seconds += reference_slice()
        self.count += 1

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False
