"""Machine-speed calibration for the timed loop.

The benchmark machine is shared: other load slows every instruction stream
on it, the program's and any other, by up to about 2x for stretches of a
fraction of a second to tens of seconds, and CPU time slows with wall time.
So the benchmark runs a fixed kernel, which does not use tovds, right before
and right after every timed op, and expresses the op's time in units of the
kernel's time measured around it.  Multiplied by REF_S, the kernel's fastest
time on the reference machine, that gives the op's time at reference speed.

The kernel is written like the program's hot paths, so that load slows it
about as much as it slows the program: a Dormand-Prince Runge-Kutta loop in
Python over numpy arrays of two states, whose right-hand side evaluates a
polynomial from a table row by Horner's rule on numpy scalars (as the EOS
fast path does), then a loop of pure-Python float arithmetic (as the
quadrature integrands are).  Of the kernels tried, this mix followed the
program's slowdown most closely on all three workloads: with the
Runge-Kutta loop alone, the program's time grew about as the 0.65th power
of the kernel's, and with this mix as the 0.7th to 0.9th.

    python3 perfbench/calib.py      # prints the kernel's time, fastest and median
"""

from __future__ import annotations

import math
from time import perf_counter

import numpy as np

# Fastest time of one kernel() call on the reference machine (2 shared
# vCPUs, Python 3.11.7, numpy 2.4.6): 1.14 ms, against medians of 1.3 to
# 2.3 ms over 2000 calls.  Fixed: changing it rescales every timing the
# benchmark reports.
REF_S = 1.14e-3

_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0)
_A = (
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
)
_B = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84])
_TABLE = 1.0 / (np.arange(64)[:, None] + np.arange(6)[None, :] + 1.0)
STEPS = 30
SCALAR_ITERS = 3000


def _rhs(x: float, y: np.ndarray) -> np.ndarray:
    M, U = float(y[0]), float(y[1])
    row = _TABLE[int((0.5 * U + 0.5) * 63.0) % 64]
    v = row[5]
    for k in range(4, -1, -1):
        v = v * U + row[k]
    return np.array([U, -M - 0.1 * U * math.cos(x) + 1e-3 * v * abs(U) ** 1.5])


def kernel() -> float:
    """Thirty fixed steps of a damped, driven oscillator, then a scalar loop."""
    y = np.array([1.0, 0.0])
    x, h = 0.0, 0.05
    K = np.empty((6, 2))
    for _ in range(STEPS):
        K[0] = _rhs(x, y)
        for s in range(1, 6):
            K[s] = _rhs(x + _C[s] * h, y + h * (_A[s] @ K[:s]))
        y = y + h * (_B @ K)
        x += h
    acc, t = 0.0, 0.0
    for i in range(SCALAR_ITERS):
        acc += math.sqrt(i + acc * 1e-9) * math.cos(t)
        t += 1e-4
    return float(y[0]) + acc


def sample(reps: int) -> float:
    """Mean seconds of one kernel() call over `reps` back-to-back calls."""
    t = perf_counter()
    for _ in range(reps):
        kernel()
    return (perf_counter() - t) / reps


class Clock:
    """Times ops in kernel units: each op's wall time over the mean of the
    calibration samples taken right before and right after it."""

    def __init__(self, reps: int):
        self.reps = reps
        self.samples = []
        self.last = sample(reps)

    def time(self, fn, *args):
        """Run fn(*args); return (its result, wall seconds, kernel units)."""
        t = perf_counter()
        out = fn(*args)
        dt = perf_counter() - t
        before, self.last = self.last, sample(self.reps)
        self.samples.append(self.last)
        return out, dt, dt / (0.5 * (before + self.last))


if __name__ == "__main__":
    kernel()
    times = sorted(sample(1) for _ in range(2000))
    print(f"kernel: fastest {times[0] * 1e3:.4f} ms, median {times[1000] * 1e3:.4f} ms "
          f"over 2000 calls; REF_S = {REF_S * 1e3:.4f} ms")
