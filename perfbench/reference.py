"""Fixed reference kernels that measure how fast the machine is right now.

On a 2-vCPU virtual machine shared with other tenants, the same code ran
up to 1.45x slower for stretches of seconds to minutes. A run takes a
``sample()`` of a reference kernel before and after every timed call. A
kernel does the same kind of work as the workload it calibrates and never
changes with the program, so the ratio of a call's time to the kernel time
around it tracks the program, not the host.

Two kinds of work respond differently to a loaded host. Interpreted code
(Python loops, calls on small numpy arrays, scalar scipy.special calls)
slowed as much as the ``interpreted`` kernel did. Whole-array numpy work,
the Gaussian pair sums of KDE cross-validation, slowed about a third as
much, as does the ``arrays`` kernel.
"""
from __future__ import annotations

from time import perf_counter

import numpy as np
from scipy.special import gammainc, ndtr

_X = np.linspace(0.05, 5.0, 500)
_T = np.linspace(0.0, 3.0, 230)
_W = np.linspace(1.0, 2.0, 230)
_WW = np.outer(_W, _W)


def _checked(acc: float, started: float) -> float:
    if acc != acc:  # keeps the result live
        raise ArithmeticError("reference kernel produced NaN")
    return perf_counter() - started


def interpreted() -> float:
    """About 1.3 ms of interpreted work; returns its wall time in seconds."""
    started = perf_counter()
    acc = 0.0
    for i in range(40):
        y = np.sort(_X[::-1] * (1.0 + i * 1e-3))
        acc += float(np.cumprod(1.0 - 1.0 / (y + 10.0))[-1])
        acc += float(np.searchsorted(y, 2.5)) + float(ndtr(-y[i]))
        for k in range(8):
            acc += float(gammainc(1.5 + k, 0.5 * i + 1.0))
        for j in range(60):
            acc += j * 0.5
    return _checked(acc, started)


def arrays() -> float:
    """About 1.3 ms of whole-array work, weighted Gaussian pair sums over a
    230 x 230 distance matrix; returns its wall time in seconds."""
    started = perf_counter()
    d2 = (_T[:, None] - _T[None, :]) ** 2
    acc = 0.0
    for h in (0.1, 0.2, 0.3, 0.4):
        narrow = np.exp(d2 * (-0.5 / (h * h)))
        # elementwise, not BLAS: a BLAS call may start threads, and its
        # time then depends on the other CPU
        acc += float((narrow * _WW).sum()) + float((np.sqrt(narrow) * _WW).sum())
    return _checked(acc, started)


# kernel, and its typical time: the unit of calibrated seconds
KERNELS = {"interpreted": (interpreted, 0.0013), "arrays": (arrays, 0.0017)}


def sample(kind: str) -> float:
    """The fastest of 3 back-to-back runs of a kernel, in seconds.

    The first run absorbs the state the previous call left behind (warm or
    cold caches and clocks): right after a simulation call, a sleep or a
    pure-Python loop, a first run differed by up to 12%, the fastest of
    three by under 2%.
    """
    kernel = KERNELS[kind][0]
    return min(kernel() for _ in range(3))


def calibrated(seconds: float, kind: str, before: float, after: float) -> float:
    """Wall seconds scaled to the kernel's typical time by the mean of the
    samples taken just before and just after them."""
    return seconds * KERNELS[kind][1] * 2.0 / (before + after)
