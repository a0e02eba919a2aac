"""Output checks coded independently of the package numerics.

Scalar oracles use plain Python floats and `math`; grid norms use plain
Python loops over lists, so no expected value shares a code path with the
arrays under test.
"""

from __future__ import annotations

import csv
import math


def grid(n: int) -> list[float]:
    return [i / (n - 1) for i in range(n)]


def read_grid_values(path) -> list[float]:
    """The value column of an `x,value` grid CSV."""
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    if rows[0] != ["x", "value"]:
        raise ValueError(f"{path}: bad header {rows[0]!r}")
    return [float(row[1]) for row in rows[1:]]


def read_csv_rows(path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    return rows[0], rows[1:]


def _trapezoid_sq(values: list[float], dx: float) -> float:
    total = 0.5 * (values[0] ** 2 + values[-1] ** 2)
    for v in values[1:-1]:
        total += v * v
    return dx * total


def h1_distance(u: list[float], v: list[float]) -> float:
    """H1 distance on the uniform grid: trapezoid L2 of the difference and of
    its central-difference derivative (one-sided first-order at the ends)."""
    if len(u) != len(v):
        raise ValueError(f"grid sizes differ: {len(u)} vs {len(v)}")
    n = len(u)
    dx = 1.0 / (n - 1)
    e = [a - b for a, b in zip(u, v)]
    de = [(e[1] - e[0]) / dx]
    de += [(e[i + 1] - e[i - 1]) / (2.0 * dx) for i in range(1, n - 1)]
    de.append((e[-1] - e[-2]) / dx)
    return math.sqrt(_trapezoid_sq(e, dx) + _trapezoid_sq(de, dx))


def scaled_linear_solution(p: float, n: int) -> list[float]:
    """u = |p| solves integral_0^x u^2 = p^2 x."""
    return [abs(p)] * n


def quadratic_perturb_solution(p: float, n: int) -> list[float]:
    """u = sqrt(1 + 2 p x) solves integral_0^x u^2 = x + p x^2."""
    return [math.sqrt(1.0 + 2.0 * p * x) for x in grid(n)]


def heron_residuals(p: float, n: int, count: int) -> list[float]:
    """H2 residuals of the Newton iterates for h = p^2 x from u0 = 1.

    On constants the discrete operators are exact, so Newton is the
    Babylonian iteration c <- (c + p^2 / c) / 2 and the residual is
    |c^2 - p^2| times the H2 norm of x: trapezoid L2 of x plus that of
    its derivative 1 (the second derivative vanishes).
    """
    dx = 1.0 / (n - 1)
    norm_x = math.sqrt(_trapezoid_sq(grid(n), dx) + _trapezoid_sq([1.0] * n, dx))
    out = []
    c = 1.0
    for _ in range(count):
        out.append(abs(c * c - p * p) * norm_x)
        c = (c + p * p / c) / 2.0
    return out


def rho_max(radius: float, c0_lower: float, c0_upper: float) -> float:
    """Admissibility radius R / (1 + (1 + c0_upper) / c0_lower)."""
    return radius / (1.0 + (1.0 + c0_upper) / c0_lower)
