"""Host-speed calibration: a fixed kernel sampled all through a run.

The host this benchmark was calibrated on changes speed by up to +-30%,
within a second as well as over tens of seconds; the same swing shows on a
fixed Jacobi kernel, on a fixed GEMM and on the program's epochs, so it is
the machine slowing down and not the program.  A `SpeedProbe` therefore
runs the kernel below every PROBE_INTERVAL_S from a SIGALRM handler (which
Python runs in the main thread between bytecodes) for the whole run, and
each timed operation is reported as

    (wall time - time the probe's samples took inside it)
        * NOMINAL_S / median kernel time within WINDOW_S of the operation

that is, in wall seconds at the host's nominal speed.  The kernel mixes
what the program spends its time on (a GEMM with tanh, an einsum, small
LAPACK calls and an interpreter loop) and uses none of the program's code,
so a change to the program cannot move it.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

NOMINAL_S = 0.33e-3  # median kernel time on the reference host (see README)
PROBE_INTERVAL_S = 0.025
WINDOW_S = 0.25

_rng = np.random.default_rng(0)
_X = _rng.standard_normal((250, 30))
_W = _rng.standard_normal((30, 30)) / 6.0
_A = _rng.standard_normal((50, 50))
_SPD = _A @ _A.T + 50.0 * np.eye(50)


def kernel_time() -> float:
    """Wall time of one run of the fixed calibration kernel."""
    t0 = time.perf_counter()
    h = np.tanh(_X @ _W)
    np.einsum("jn,jm->nm", h, h)
    for _ in range(4):
        np.linalg.cholesky(_SPD)
    s = 0.0
    for i in range(300):
        s += i * 0.5
    return time.perf_counter() - t0


class SpeedProbe:
    """Kernel samples taken every PROBE_INTERVAL_S between start and stop.

    `spent` is the total time the samples took, so an operation timed from
    t0 to t1 ran for ``t1 - t0`` minus the growth of `spent` meanwhile.
    """

    def __init__(self):
        self.stamps: list[float] = []
        self.kernel: list[float] = []
        self.spent = 0.0
        self._previous = None

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        self.kernel.append(kernel_time())
        self.stamps.append(t0)
        self.spent += time.perf_counter() - t0

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self) -> None:
        """Sample one more window, so the last operation has samples after it, then stop."""
        time.sleep(WINDOW_S + PROBE_INTERVAL_S)
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def factor(self, t0: float, t1: float) -> float:
        """Nominal-speed factor for an operation that ran from t0 to t1."""
        lo = bisect.bisect_left(self.stamps, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.stamps, t1 + WINDOW_S)
        if hi == lo:  # a long native call held the handler back: nearest sample
            lo = min(lo, len(self.stamps) - 1)
            hi = lo + 1
        return NOMINAL_S / statistics.median(self.kernel[lo:hi])
