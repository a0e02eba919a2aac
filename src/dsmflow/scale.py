"""Grid functions and integer-order Sobolev norms on the unit interval.

Functions are sampled on a uniform grid over [0, 1] with both endpoints
included, so the spacing is 1/(n-1). Derivatives use second-order stencils
(central in the interior, one-sided at the two boundary nodes), integrals
use the cumulative trapezoid rule, and the H_a norm for a in {0, 1, 2}
sums the squared L2 norms of the function and its first a discrete
derivatives.

The kernels work along the last axis, so a batch of functions, shape
(rows, n), goes through the same code as one function: each row's result
is bit-identical to that of the row on its own, and `sobolev_norm` returns
one norm per row.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

SUPPORTED_INDICES = (0, 1, 2)

# Maximum relative deviation of node spacing tolerated by the CSV reader.
UNIFORMITY_TOL = 1e-9


class GridMismatchError(ValueError):
    """Two grid functions that should share a grid do not."""


@dataclass(frozen=True)
class GridFunction:
    """A real-valued function sampled on the uniform grid over [0, 1].

    Instances are immutable values: arithmetic returns new instances and the
    stored array is read-only, so trajectories can hold references without
    defensive copies.

    The constructor copies its input and checks it (finite, at least 3
    nodes): it guards every array from outside the package. The results of
    arithmetic, ``derivative`` and ``integrate_from_zero`` are wrapped by
    ``_trusted`` without the copy or the check, so an overflow can leave inf
    or NaN in them; ``integrate_flow`` checks the residual norm of every
    step instead. Only ``_trusted`` may wrap a batch, one function per row
    of a (rows, n) array; ``n`` is always the grid length.
    """

    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.array(self.values, dtype=float)
        if v.ndim != 1 or v.size < 3:
            raise ValueError(
                f"grid needs at least 3 nodes on one axis, got shape {v.shape}"
            )
        if not np.all(np.isfinite(v)):
            raise ValueError("grid values must be finite")
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @classmethod
    def _trusted(cls, values: np.ndarray) -> GridFunction:
        """Wrap a fresh float array the package has just computed, without
        the constructor's copy and checks; the array is made read-only."""
        values.setflags(write=False)
        f = object.__new__(cls)
        f.__dict__["values"] = values
        return f

    @property
    def n(self) -> int:
        return self.values.shape[-1]

    @property
    def dx(self) -> float:
        return 1.0 / (self.n - 1)

    @property
    def x(self) -> np.ndarray:
        """Node coordinates, linspace(0, 1, n)."""
        return np.linspace(0.0, 1.0, self.n)

    @classmethod
    def constant(cls, value: float, n: int) -> GridFunction:
        return cls(np.full(n, float(value)))

    @classmethod
    def zeros(cls, n: int) -> GridFunction:
        return cls(np.zeros(n))

    @classmethod
    def from_callable(cls, fn: Callable[[np.ndarray], np.ndarray], n: int) -> GridFunction:
        vals = np.asarray(fn(np.linspace(0.0, 1.0, n)), dtype=float)
        if vals.ndim == 0:
            vals = np.full(n, float(vals))
        return cls(vals)

    def _combine(self, other, op) -> GridFunction:
        if isinstance(other, GridFunction):
            require_same_grid(self, other)
            return GridFunction._trusted(op(self.values, other.values))
        if isinstance(other, (int, float, np.floating, np.integer)):
            return GridFunction._trusted(op(self.values, float(other)))
        return NotImplemented

    def __add__(self, other) -> GridFunction:
        return self._combine(other, np.add)

    def __radd__(self, other) -> GridFunction:
        return self._combine(other, np.add)

    def __sub__(self, other) -> GridFunction:
        return self._combine(other, np.subtract)

    def __rsub__(self, other) -> GridFunction:
        return self._combine(other, lambda a, b: np.subtract(b, a))

    def __mul__(self, other) -> GridFunction:
        return self._combine(other, np.multiply)

    def __rmul__(self, other) -> GridFunction:
        return self._combine(other, lambda a, b: np.multiply(b, a))

    def __truediv__(self, other) -> GridFunction:
        return self._combine(other, np.divide)

    def __neg__(self) -> GridFunction:
        return GridFunction._trusted(-self.values)

    def min(self) -> float:
        return float(np.min(self.values))

    def max(self) -> float:
        return float(np.max(self.values))


def require_same_grid(a: GridFunction, b: GridFunction) -> None:
    if a.n != b.n:
        raise GridMismatchError(f"grid sizes differ: {a.n} vs {b.n}")


def check_scale_index(a: int) -> int:
    if a not in SUPPORTED_INDICES:
        raise ValueError(f"unsupported scale index {a!r}, supported: {SUPPORTED_INDICES}")
    return int(a)


def derivative(f: GridFunction) -> GridFunction:
    """Second-order discrete derivative.

    Central differences at interior nodes, one-sided three-point stencils at
    the boundary nodes; exact on polynomials of degree <= 2.
    """
    v = f.values
    h2 = 2.0 * f.dx
    d = np.empty_like(v)
    inner = d[..., 1:-1]
    np.subtract(v[..., 2:], v[..., :-2], out=inner)
    inner /= h2
    # difference-first form of the one-sided stencils: exact zero on constants.
    # vt[k] is node k of every row, a scalar for a single function.
    vt, dt = v.T, d.T
    dt[0] = (4.0 * (vt[1] - vt[0]) - (vt[2] - vt[0])) / h2
    dt[-1] = (4.0 * (vt[-1] - vt[-2]) - (vt[-1] - vt[-3])) / h2
    return GridFunction._trusted(d)


def integrate_from_zero(f: GridFunction) -> GridFunction:
    """Cumulative trapezoid integral; the result vanishes at x = 0."""
    v = f.values
    out = np.zeros(v.shape)
    step = np.add(v[..., 1:], v[..., :-1])
    step *= f.dx / 2.0
    np.add.accumulate(step, axis=-1, out=out[..., 1:])
    return GridFunction._trusted(out)


def _l2_squared(values: np.ndarray, dx: float):
    sq = values * values
    total = np.add.reduce(sq, axis=-1)
    # The trapezoid sum never exceeds the plain sum, except that it is
    # inf - inf = NaN once both end squares overflow: fmin keeps the inf.
    return np.fmin(dx * (total - 0.5 * (sq.T[0] + sq.T[-1])), total)


def sobolev_norm(f: GridFunction, a: int):
    """Discrete H_a norm: sqrt of the summed squared L2 norms of f, f', ... f^(a).

    The L2 norm uses trapezoid quadrature over [0, 1]; each higher term
    applies `derivative` once more. Monotone in a by construction. A float
    for one function, an array of one norm per row for a batch.
    """
    check_scale_index(a)
    dx = f.dx
    total = _l2_squared(f.values, dx)
    cur = f
    for _ in range(a):
        cur = derivative(cur)
        total += _l2_squared(cur.values, dx)
    norm = np.sqrt(total)
    return float(norm) if norm.ndim == 0 else norm


def _take_rows(f: GridFunction, keep: np.ndarray) -> GridFunction:
    """The rows of `f` that the bool mask `keep` selects, as a batch (a
    single function is one row, and `keep` then a single bool)."""
    return GridFunction._trusted(f.values[keep])


def ball_distance(u: GridFunction, center: GridFunction, a: int) -> float:
    """Distance ||u - center||_a between two functions on the same grid."""
    require_same_grid(u, center)
    return _distance(u.values, center.values, a)


def _distance(u: np.ndarray, v: np.ndarray, a: int):
    """``ball_distance`` on the values of two functions on one grid."""
    return sobolev_norm(GridFunction._trusted(u - v), a)


def _write_csv_rows(path, header, rows) -> None:
    """Write CSV rows: floats with 17 significant digits, ints as they are,
    None as an empty field."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for row in rows:
            writer.writerow(["" if v is None else str(v) if isinstance(v, int)
                             else f"{v:.17g}" for v in row])


def write_grid_csv(f: GridFunction, path) -> None:
    """Write the two-column `x,value` format with 17-significant-digit floats."""
    _write_csv_rows(path, ["x", "value"], zip(f.x, f.values))


def read_grid_csv(path) -> GridFunction:
    """Read the `x,value` format, rejecting anything but a uniform [0, 1] grid.

    The x column must list the uniform grid nodes in increasing order with
    relative spacing deviation at most 1e-9.
    """
    path = Path(path)
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    if not rows or [c.strip() for c in rows[0]] != ["x", "value"]:
        raise ValueError(f"{path}: expected header 'x,value'")
    try:
        data = np.array([[float(c) for c in row] for row in rows[1:]], dtype=float)
    except (ValueError, IndexError) as exc:
        raise ValueError(f"{path}: malformed row: {exc}") from None
    if data.ndim != 2 or data.shape[1] != 2 or data.shape[0] < 3:
        raise ValueError(f"{path}: need at least 3 rows of x,value pairs")
    x, values = data[:, 0], data[:, 1]
    n = x.size
    dx = 1.0 / (n - 1)
    expected = np.linspace(0.0, 1.0, n)
    if np.max(np.abs(x - expected)) > UNIFORMITY_TOL:
        raise ValueError(f"{path}: x column is not the uniform grid on [0, 1]")
    spacing = np.diff(x)
    if np.max(np.abs(spacing - dx)) > UNIFORMITY_TOL * dx:
        raise ValueError(f"{path}: non-uniform node spacing")
    return GridFunction(values)
