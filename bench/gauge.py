"""A gauge of how fast the host runs while an operation runs.

The benchmark shares a small VM with other tenants. The same operation on
the same inputs takes from 1x to 1.8x its fastest time as their load
comes and goes, in bursts of seconds and drifts over minutes, and process
CPU time drifts with wall time, so it does not help. What does help is to
time a computation that never changes many times throughout the
operation, on the same core, and to divide the operation's time by the
mean time of that computation: the ratio cancels most of the host's
drift, while a change to gmmcloud still moves the operation's time and
not the reference's. On a sequence of identical 10 s operations the
quartile spread of their wall times was 0.14, and that of the ratio 0.04.

The reference is a frozen EM of the benchmark's own, written against
NumPy only: K = 8 Gaussians on 600 fixed 3D points, a Python loop over
components with small Cholesky solves, log-sum-exp and weighted moments,
the mix of interpreter overhead and small array calls that gmmcloud's EM
spends its time on. It imports nothing from gmmcloud, so no change to the
program can change it.

A profiling timer (SIGPROF, every PERIOD seconds of the process's CPU
time) runs one reference computation between two of the program's
bytecodes, as a sampling profiler would; the samples' own time is taken
out of the operation's time. The reference also runs once right before
and once right after the operation, so an operation that spends no CPU
time in this process (work sent to a process pool, say) still gets a
gauge. Only untraced runs use the gauge, so spans never include it.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

POINTS = 600
COMPONENTS = 8
ITERATIONS = 8
PERIOD = 0.2


def reference_cloud() -> np.ndarray:
    return np.random.default_rng(0).standard_normal((POINTS, 3)) * [4.0, 2.0, 1.0]


def reference_em(pts: np.ndarray, k: int = COMPONENTS, iterations: int = ITERATIONS) -> float:
    """A fixed number of EM iterations from a fixed start; returns a
    checksum so the work cannot be skipped."""
    n = len(pts)
    means = pts[:: n // k][:k].copy()
    covs = np.repeat(np.eye(3)[None], k, axis=0)
    weights = np.full(k, 1.0 / k)
    lwd = np.empty((n, k))
    for _ in range(iterations):
        for j in range(k):
            chol = np.linalg.cholesky(covs[j])
            z = np.linalg.solve(chol, (pts - means[j]).T)
            lwd[:, j] = (np.log(weights[j]) - 0.5 * np.sum(z * z, axis=0)
                         - np.sum(np.log(np.diag(chol))) - 1.5 * np.log(2.0 * np.pi))
        gamma = np.exp(lwd - lwd.max(axis=1, keepdims=True))
        gamma /= gamma.sum(axis=1, keepdims=True)
        nk = gamma.sum(axis=0)
        weights = nk / n
        for j in range(k):
            means[j] = gamma[:, j] @ pts / nk[j]
            d = pts - means[j]
            covs[j] = (gamma[:, j, None] * d).T @ d / nk[j] + 1e-6 * np.eye(3)
    return float(weights @ means.sum(axis=1))


class Gauge:
    """Reference samples around and during one operation.

    Use as: `gauge.start()`, time the operation from t0 to t1,
    `gauge.stop()`; then `gauge.inside(t0, t1)` is the samples' time
    within the operation and `gauge.reference()` the mean sample.
    """

    def __init__(self, period: float = PERIOD):
        self.period = period
        self.pts = reference_cloud()
        self.samples: list[tuple[float, float]] = []
        self._previous = None
        self._busy = False

    def _sample(self, *_):
        if self._busy:  # the timer fired during a sample: skip, never nest
            return
        self._busy = True
        try:
            start = time.perf_counter()
            with np.errstate(all="ignore"):
                reference_em(self.pts)
            self.samples.append((start, time.perf_counter()))
        finally:
            self._busy = False

    def start(self):
        self.samples = []
        self._sample()
        self._previous = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, self.period, self.period)

    def stop(self):
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, self._previous)
        self._sample()

    def inside(self, t0: float, t1: float) -> float:
        """Seconds of sampling between t0 and t1."""
        return sum(end - start for start, end in self.samples if start >= t0 and end <= t1)

    def reference(self) -> float:
        """Mean seconds of one reference computation, over every sample."""
        return statistics.fmean(end - start for start, end in self.samples)
