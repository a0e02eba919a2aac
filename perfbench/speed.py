"""Host-speed reference for the benchmark's timings.

The shared host the benchmark runs on changes speed by 20 to 60 percent
in phases from under a second to minutes, with process time equal to wall
time: the CPU itself runs slower, so every timing in a run moves with it.
The benchmark therefore times a fixed reference computation, which is the
benchmark's own code and never the program's, next to each timed piece of
work, and reports that work's time at the reference host's speed:

    normalised seconds = wall seconds * NOMINAL_S / reference seconds

where the reference seconds are the mean of the reference timed just
before and just after the work. A change to the program moves the
normalised time as it moves the wall time; a change in host speed moves
both the work and the reference, and largely cancels.

The reference mixes the kinds of work the workloads do: numpy calls on
201-point grids, where interpreter overhead dominates (as in `cli-small`
and in importing the package); prefix sums, differences, trigonometric
bases and dot products on 20001-point grids, where array kernels
dominate (as in `verify-large`); and a few RK4 steps of the Newton flow
for F(u) = int_0^x u^2 on a 20001-point grid, keeping every iterate (as
in `sweep-large`). Without the flow, the sweep's normalised run medians
spread 0.03 to 0.12 of their median in ten-seed sets; the kernels alone
do not slow down with the host as the flow does.
"""

from __future__ import annotations

import time

import numpy as np

# (grid points, repetitions): about 17 ms for each at NOMINAL_S.
KERNELS = ((201, 750), (20001, 35))
# (grid points, RK4 steps): about 13 ms at NOMINAL_S.
FLOW = (20001, 8)

# Time of `reference()` on the host the bounds were set on (Intel Xeon,
# 2 vCPUs, Python 3.11, numpy 2.4) in its faster phases. It only fixes
# the unit: normalised times are seconds on a host as fast as that.
NOMINAL_S = 0.048


def _kernels(n: int, reps: int) -> float:
    x = np.linspace(0.0, 1.0, n)
    y = np.ones(n)
    acc = 0.0
    for k in range(reps):
        y = 1.0 + np.cumsum(y) / n
        d = np.diff(y) * n
        c = np.cos((k % 17) * np.pi * x)
        s = np.sin((k % 17) * np.pi * x)
        acc += float(np.dot(c[1:], d)) + float(s @ s)
        y = y / np.max(y)
    return acc


def _flow(n: int, steps: int) -> float:
    """RK4 on du/dt = -A(u)^{-1}(F(u) - h), F(u) = int_0^x u^2 and
    A(u)^{-1} w = w' / (2u), from u0 near V to h = F(V); returns the final
    distance to V."""
    x = np.linspace(0.0, 1.0, n)
    dx = 1.0 / (n - 1)
    u = np.ones(n)
    v = np.ones(n)
    for j in range(1, 9):
        u += 0.008 / j * np.cos(j * np.pi * x)
        v += 0.004 / j * np.sin(j * np.pi * x)

    def F(w):
        sq = w * w
        return np.concatenate(([0.0], np.cumsum((sq[1:] + sq[:-1]) * (0.5 * dx))))

    h = F(v)

    def field(w):
        return -np.gradient(F(w) - h, dx) / (2.0 * w)

    dt = 0.05
    recorded = [u]
    for _ in range(steps):
        k1 = field(u)
        k2 = field(u + 0.5 * dt * k1)
        k3 = field(u + 0.5 * dt * k2)
        k4 = field(u + dt * k3)
        u = u + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        recorded.append(u)
    return float(np.abs(recorded[-1] - v).max())


def reference() -> float:
    """Wall time of one pass of the reference computation."""
    t0 = time.perf_counter()
    for n, reps in KERNELS:
        _kernels(n, reps)
    _flow(*FLOW)
    return time.perf_counter() - t0


def normalise(seconds: float, ref_s: float) -> float:
    """`seconds` of wall time, measured next to a reference that took
    `ref_s`, at the reference host's speed."""
    return seconds * NOMINAL_S / ref_s
