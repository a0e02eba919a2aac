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
import math
import os
import stat
from dataclasses import dataclass
from itertools import chain, starmap
from pathlib import Path
from typing import Callable

import numpy as np

SUPPORTED_INDICES = (0, 1, 2)

# Maximum relative deviation of node spacing tolerated by the CSV reader.
UNIFORMITY_TOL = 1e-9

# Rows x grid nodes of one block of batched work. The samplers take their
# basis products in chunks of at least two rows (40 at n = 201, 4 at
# n = 2001, 2 from n = 4097 up), whatever the batch's length, as a product's
# rounding depends on its row count; the flow's distance blocks, the rows
# of ``Workspace.dif``, hold at least one (1 from n = 8193 up).
BLOCK_ELEMENTS = 8192


class GridMismatchError(ValueError):
    """Two grid functions that should share a grid do not."""


@dataclass(frozen=True, eq=False)
class GridFunction:
    """A real-valued function sampled on the uniform grid over [0, 1].

    Instances are immutable values: arithmetic returns new instances and the
    stored array is read-only, so trajectories can hold references without
    defensive copies. They compare and hash by identity, so setups can too.

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


class Workspace:
    """Value arrays of one shape, reused by every kernel call of a flow solve.

    ``integrate_flow`` makes one per solve and computes each stage point,
    velocity, residual and error estimate into it through ``out=``, and,
    under ``enforce_ball``, each step's distance to U; F is evaluated there
    once per accepted step, for the residual that gives g and k1, and RK4's
    later stage velocities read D h and D F instead. Once the run has
    ended, the flow takes the trajectory's other distances a block of
    recorded iterates at a time, in ``dif``. A public step, velocity, solve
    or residual called on grid functions makes its own. The slots are
    allocated on first use, so a one-off call allocates only the arrays its
    kernels touch, and a flow all of them: twelve arrays of the grid's
    shape and the (3, rows, n) block ``dif``, 8 (12n - 1 + 3 rows n) bytes,
    212 KB at n = 201, 384 KB at n = 2001 and 2.4 MB at n = 20001.

    - ``stage``: an RK4 stage point, or the Euler increment;
    - ``k1``: the velocity A(u)^{-1}(h - F(u)) at the iterate u, then the
      running RK4 sum; ``k2``: the latest stage velocity;
    - ``dh``: the derivative D h of the right-hand side, written once per
      flow or public step, whatever its scheme, and read by RK4's stage
      velocities;
    - ``div``: the divisor of A(u)^{-1}; ``trap``: the trapezoids of an
      integral, or the neighbour sums of ``_derivative_of_integral``, one
      fewer per row;
    - the blocks of three, each function above its derivatives, so that one
      ``_l2_squared`` call takes every term of a norm: ``res`` holds
      h - F(x) at the point being evaluated (``res[0]``), and ``sq`` the
      squares of a norm's terms, and u * u inside F and D F; ``dif`` is a
      (3, rows, n) block, rows = max(1, ``BLOCK_ELEMENTS`` // n), whatever
      the workspace's shape: its row 0, ``dif[:, 0]``, holds a difference
      whose norm a step measures (a distance, or the flow's error
      estimate), and ``dif[i]`` the i-th derivatives of a block of
      differences whose norms are taken together.
    """

    SLOTS = ("stage", "k1", "k2", "dh", "div", "trap")
    BLOCKS = ("res", "sq")

    def __init__(self, shape: tuple[int, ...]):
        self.shape = shape
        self.dx = 1.0 / (shape[-1] - 1)

    def __getattr__(self, name: str) -> np.ndarray:
        # reached only for a slot not yet allocated
        n = self.shape[-1]
        if name == "dif":
            shape = (3, max(1, BLOCK_ELEMENTS // n), n)
        elif name in Workspace.BLOCKS:
            shape = (3,) + self.shape
        elif name in Workspace.SLOTS:
            shape = self.shape[:-1] + (n - (name == "trap"),)
        else:
            raise AttributeError(name)
        array = np.empty(shape)
        setattr(self, name, array)
        return array


def _derivative(v: np.ndarray, dx: float, out: np.ndarray) -> np.ndarray:
    """``derivative`` on values: writes it into ``out`` and returns ``out``."""
    h2 = 2.0 * dx
    inner = out[..., 1:-1]
    np.subtract(v[..., 2:], v[..., :-2], out=inner)
    inner /= h2
    # difference-first form of the one-sided stencils: exact zero on constants.
    if out.ndim == 1:
        # one function: the same operations on Python floats, without numpy's
        # per-call cost (a 1-D v derived into a block keeps the block path)
        v0, v1, v2 = v[:3].tolist()
        w2, w1, w0 = v[-3:].tolist()
        out[0] = (4.0 * (v1 - v0) - (v2 - v0)) / h2
        out[-1] = (4.0 * (w0 - w1) - (w0 - w2)) / h2
        return out
    # vt[k] is node k of every row
    vt, ot = v.T, out.T
    ot[0] = (4.0 * (vt[1] - vt[0]) - (vt[2] - vt[0])) / h2
    ot[-1] = (4.0 * (vt[-1] - vt[-2]) - (vt[-1] - vt[-3])) / h2
    return out


def derivative(f: GridFunction) -> GridFunction:
    """Second-order discrete derivative.

    Central differences at interior nodes, one-sided three-point stencils at
    the boundary nodes; exact on polynomials of degree <= 2.
    """
    return GridFunction._trusted(_derivative(f.values, f.dx, np.empty_like(f.values)))


def _integrate(v: np.ndarray, dx: float, out: np.ndarray,
               trap: np.ndarray | None = None) -> np.ndarray:
    """``integrate_from_zero`` on values: writes it into ``out``, with the
    trapezoids in ``trap`` (a fresh array if None), and returns ``out``."""
    trap = np.add(v[..., 1:], v[..., :-1], out=trap)
    trap *= dx / 2.0
    out[..., 0] = 0.0
    np.add.accumulate(trap, axis=-1, out=out[..., 1:])
    return out


def integrate_from_zero(f: GridFunction) -> GridFunction:
    """Cumulative trapezoid integral; the result vanishes at x = 0."""
    return GridFunction._trusted(_integrate(f.values, f.dx, np.empty_like(f.values)))


def _derivative_of_integral(v: np.ndarray, out: np.ndarray,
                            pairs: np.ndarray | None = None) -> np.ndarray:
    """``_derivative(_integrate(v))`` on values, without the integral:
    writes it into ``out`` and returns ``out``.

    The stencils read differences of the cumulative sum, which are sums of
    the neighbour sums p_k = v_k + v_{k+1} (in ``pairs``, a fresh array if
    None): (p_{k-1} + p_k) / 4 = (v_{k-1} + 2 v_k + v_{k+1}) / 4 inside the
    grid, (3 p_0 - p_1) / 4 = (3 v_0 + 2 v_1 - v_2) / 4 at x = 0 and its
    mirror at x = 1. So dx cancels, and no integral is formed whose
    rounding the stencil would divide by dx.
    """
    pairs = np.add(v[..., 1:], v[..., :-1], out=pairs)
    inner = np.add(pairs[..., 1:], pairs[..., :-1], out=out[..., 1:-1])
    inner *= 0.25
    if out.ndim == 1:
        # one function: the end stencils on Python floats, as in _derivative
        p0, p1 = pairs[:2].tolist()
        q1, q0 = pairs[-2:].tolist()
        out[0] = (3.0 * p0 - p1) * 0.25
        out[-1] = (3.0 * q0 - q1) * 0.25
        return out
    # pt[k] is the neighbour sum k of every row
    pt, ot = pairs.T, out.T
    ot[0] = (3.0 * pt[0] - pt[1]) * 0.25
    ot[-1] = (3.0 * pt[-1] - pt[-2]) * 0.25
    return out


def _l2_squared(values: np.ndarray, dx: float, sq: np.ndarray | None = None):
    """Squared trapezoid L2 norm of each row; the squares go into ``sq`` (a
    fresh array if None)."""
    sq = np.multiply(values, values, out=sq)
    total = np.add.reduce(sq, axis=-1)
    # The trapezoid sum never exceeds the plain sum, except that it is
    # inf - inf = NaN once both end squares overflow: fmin keeps the inf.
    return np.fmin(dx * (total - 0.5 * (sq[..., 0] + sq[..., -1])), total)


def _root_sum(parts):
    """Square root of the sum of the squared L2 norms ``parts`` of a
    function and its derivatives, added in that order."""
    total = parts[0]
    for part in parts[1:]:
        total = total + part
    return np.sqrt(total) if isinstance(total, np.ndarray) else math.sqrt(total)


def sobolev_norm(f: GridFunction, a: int):
    """Discrete H_a norm: sqrt of the summed squared L2 norms of f, f', ... f^(a).

    The L2 norm uses trapezoid quadrature over [0, 1]; each higher term
    applies `derivative` once more. Monotone in a by construction. A float
    for one function, an array of one norm per row for a batch.
    """
    check_scale_index(a)
    dx = f.dx
    parts = [_l2_squared(f.values, dx)]
    for _ in range(a):
        f = derivative(f)
        parts.append(_l2_squared(f.values, dx))
    return _root_sum(parts)


def _norm(terms: np.ndarray, a: int, ws: Workspace):
    """``sobolev_norm`` of the values in ``terms[0]``, with its derivatives
    written into ``terms[1:a + 1]``; ``terms`` is a block of the workspace,
    and ``a`` at most 2: ``ProblemSetup`` checks a and a + delta."""
    dx = ws.dx
    for i in range(a):
        _derivative(terms[i], dx, terms[i + 1])
    block, sq = terms[:a + 1], ws.sq[:a + 1]
    if sq.ndim > 2:  # a workspace of a batch
        return _root_sum(_l2_squared(block, dx, sq))
    # One function: _l2_squared's trapezoid tails and fmin rule, as the same
    # operations on Python floats, one term at a time.
    np.multiply(block, block, out=sq)
    ends = sq[:, ::sq.shape[-1] - 1].tolist()  # [first, last] square of each term
    parts = []
    for full, (first, last) in zip(np.add.reduce(sq, axis=-1).tolist(), ends):
        part = dx * (full - 0.5 * (first + last))
        parts.append(part if part <= full else full)  # np.fmin: a NaN gives way
    return _root_sum(parts)


def ball_distance(u: GridFunction, center: GridFunction, a: int) -> float:
    """Distance ||u - center||_a between two functions on the same grid."""
    return sobolev_norm(u - center, a)


def _write_text(path, text: str) -> None:
    """Write ``text`` to ``path`` as its whole content, overwriting in place.

    The file is opened without truncation (created with mode 0o666 less the
    umask if missing, symlinks followed), written from offset 0 and then, if
    it is a regular file, cut to the text's length. Truncating a file to
    zero and writing it again costs a flush at close on ext4 (its default
    ``auto_da_alloc``): on an ext4 root mounted with ``discard``, 100-120
    us for an 8 KB artifact against 6-16 us for the overwrite. A device or
    FIFO, such as ``/dev/null``, is only written, as it cannot be cut.
    Nothing is fsync'd, and a run interrupted between the write and the cut
    can leave the tail of a longer previous file. The writers' text is
    ASCII (numbers, ASCII names and escaped JSON), so the encoding is moot.
    """
    data = memoryview(text.encode())
    size = len(data)
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
    try:
        while data:
            data = data[os.write(fd, data):]
        if stat.S_ISREG(os.fstat(fd).st_mode):
            os.ftruncate(fd, size)
    finally:
        os.close(fd)


def _write_csv_rows(path, header, rows) -> None:
    """Write CSV rows: floats with 17 significant digits, ints as they are,
    None as an empty field. The file is built as one string and written in
    one call, with the bytes ``csv.writer`` writes: ``\\r\\n`` line ends, and
    no quotes, which no header name or formatted number needs. When every
    field is a Python float, as in a grid or trajectory file, each row is
    formatted by one template, to the same digits."""
    rows = list(rows)
    lines = [",".join(header)]
    if set(map(type, chain.from_iterable(rows))) == {float}:
        lines.extend(starmap(",".join(["{:.17g}"] * len(header)).format, rows))
    else:
        lines.extend(",".join(["" if v is None else str(v) if isinstance(v, int)
                               else f"{v:.17g}" for v in row]) for row in rows)
    lines.append("")
    _write_text(path, "\r\n".join(lines))


def write_grid_csv(f: GridFunction, path) -> None:
    """Write the two-column `x,value` format with 17-significant-digit floats."""
    # Python floats format faster than numpy scalars, to the same digits
    _write_csv_rows(path, ["x", "value"], zip(f.x.tolist(), f.values.tolist()))


def read_grid_csv(path) -> GridFunction:
    """Read the `x,value` format, rejecting anything but a uniform [0, 1] grid.

    The x column must list the uniform grid nodes in increasing order with
    relative spacing deviation at most 1e-9. Blank lines are skipped; any
    other row must hold two finite numbers, or the error names its line.
    A UTF-8 byte-order mark, as spreadsheets write, is skipped.
    """
    path = Path(path)
    with open(path, newline="", encoding="utf-8-sig") as handle:
        rows = list(csv.reader(handle))
    if not rows or [c.strip() for c in rows[0]] != ["x", "value"]:
        raise ValueError(f"{path}: expected header 'x,value'")
    pairs = []
    for line, row in enumerate(rows[1:], start=2):
        if len(row) < 2 and not "".join(row).strip():
            continue  # a blank line
        if len(row) != 2:
            raise ValueError(f"{path}: line {line}: expected 2 fields, got {len(row)}")
        try:
            pair = [float(c) for c in row]
        except ValueError as exc:
            raise ValueError(f"{path}: line {line}: malformed row: {exc}") from None
        if not (math.isfinite(pair[0]) and math.isfinite(pair[1])):
            raise ValueError(f"{path}: line {line}: non-finite entry in {','.join(row)}")
        pairs.append(pair)
    if len(pairs) < 3:
        raise ValueError(f"{path}: need at least 3 rows of x,value pairs")
    x, values = np.array(pairs).T
    dx = 1.0 / (x.size - 1)
    if np.max(np.abs(x - np.linspace(0.0, 1.0, x.size))) > UNIFORMITY_TOL:
        raise ValueError(f"{path}: x column is not the uniform grid on [0, 1]")
    if np.max(np.abs(np.diff(x) - dx)) > UNIFORMITY_TOL * dx:
        raise ValueError(f"{path}: non-uniform node spacing")
    return GridFunction(values)
