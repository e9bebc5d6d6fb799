"""The machine's speed, sampled while the benchmark runs.

On a shared machine the speed of one core drifts twofold over seconds to
tens of seconds as other tenants load it, and a core next to it does not
see the same drift. The benchmark therefore samples the speed of its own
thread: every PERIOD seconds a SIGALRM handler times ``calibrate()``, a
fixed numpy loop shaped like one solver iteration. A time t measured
over [t0, t1] is reported at the reference speed as

    (t - handler time inside [t0, t1]) * REF_CALIBRATION_S / (mean sample)

with the mean over the samples taken in [t0 - PERIOD, t1 + PERIOD]. The
loop uses numpy alone, so a change to the package cannot move it.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

PERIOD = 0.25
# calibrate() on the reference machine (2-core Xeon at 2.0 GHz, numpy
# 2.4.6, one BLAS thread) in a quiet phase.
REF_CALIBRATION_S = 0.0052


def calibrate() -> float:
    """Seconds taken by a fixed numpy loop of 100 solver-like steps."""
    import numpy as np

    rng = np.random.default_rng(0)
    g = rng.standard_normal((300, 3))
    h = np.ones(300)
    w, y = np.eye(3), np.zeros(3)
    t0 = time.perf_counter()
    for _ in range(100):
        wg = g @ w
        norms = np.sqrt(np.einsum("ij,ij->i", wg, wg) + 1e-16)
        resid = norms + g @ y - h
        slope = np.where(resid < 0, 0.0, np.where(resid <= 1, resid, 1.0))
        grad = (wg * (slope / norms)[:, None]).T @ g
        lam, u = np.linalg.eigh(0.5 * (grad + grad.T) + 3.0 * np.eye(3))
        w = 0.5 * (u * np.maximum(lam, 1e-3)) @ u.T + 0.5 * np.eye(3)
        y = y - 1e-3 * (g.T @ slope)
    return time.perf_counter() - t0


class SpeedSampler:
    """Context manager that samples calibrate() every PERIOD seconds.

    Python runs the handler between bytecodes of the main thread, so a
    sample lands inside whatever the benchmark is timing; ``scale``
    takes the handler's time back out.
    """

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.durations: list[float] = []
        self._previous = None

    def __enter__(self):
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()
        return False

    def _handler(self, signum, frame):
        self._sample()

    def _sample(self) -> None:
        start = time.perf_counter()
        duration = calibrate()
        self.starts.append(start)
        self.durations.append(duration)
        self.ends.append(time.perf_counter())

    def scale(self, t0: float, t1: float) -> float:
        """The interval [t0, t1] less sampling, at the reference speed."""
        lo = bisect.bisect_left(self.ends, t0 - PERIOD)
        hi = bisect.bisect_right(self.starts, t1 + PERIOD)
        near = self.durations[lo:hi] or self.durations
        inside = sum(max(0.0, min(e, t1) - max(s, t0))
                     for s, e in zip(self.starts[lo:hi], self.ends[lo:hi]))
        return (t1 - t0 - inside) * REF_CALIBRATION_S / statistics.fmean(near)
