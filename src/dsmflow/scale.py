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
import operator
import os
import stat
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import chain
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


def _require_one(**functions: GridFunction) -> None:
    """Raise ``ValueError`` for a batch of grid functions, shape (rows, n),
    where one function is expected; the error names the argument and its
    shape."""
    for name, f in functions.items():
        if f.values.ndim != 1:
            raise ValueError(f"{name} must be one grid function, not a batch "
                             f"of shape {f.values.shape}")


def check_scale_index(a: int) -> int:
    if a not in SUPPORTED_INDICES:
        raise ValueError(f"unsupported scale index {a!r}, supported: {SUPPORTED_INDICES}")
    return int(a)


# The slices of the last axis that the kernels read, by name.
_SLICES = {
    "body": (Ellipsis, slice(1, -1)),      # a stencil's interior
    "tail": (Ellipsis, slice(1, None)),    # the halves of a trapezoid or
    "head": (Ellipsis, slice(None, -1)),   # neighbour sum
    "tail2": (Ellipsis, slice(2, None)),   # the halves of a central
    "head2": (Ellipsis, slice(None, -2)),  # difference
    "first3": (Ellipsis, slice(None, 3)),  # the first and last nodes an
    "last3": (Ellipsis, slice(-3, None)),  # end stencil reads: three of a
    "first2": (Ellipsis, slice(None, 2)),  # function, two of its neighbour
    "last2": (Ellipsis, slice(-2, None)),  # sums
}


def _views(role: str, *names: str):
    """The binder of an array's ``role``: a function that takes the array
    and returns a named tuple of it, ``values``, and its slices ``names``
    (see ``_SLICES``), each taken once, there.

    The kernels read an array's slices from its views: a ``Workspace``
    binds the views of each array it allocates, so a flow step takes no
    slice, and a kernel called on an array from elsewhere binds views of
    its own, the slices it reads. The tuple is made by one C-level call
    over the slices, for about the cost of taking them inline.
    """
    kind = namedtuple(role, ("values",) + names)
    get = operator.itemgetter(*[_SLICES[name] for name in names])
    new = tuple.__new__
    if len(names) == 1:  # an itemgetter of one item returns it bare
        def bind(values):
            return new(kind, (values, get(values)))
    else:
        def bind(values):
            return new(kind, (values, *get(values)))
    return bind


# A (3, ...) block of a ``Workspace``, a function above its first two
# derivatives or the squares of such terms, with the views of the rows the
# kernels read on their own.
Block = namedtuple("Block", "values rows")


def _block(*binders):
    """The binder of a ``Block``: a function that takes the (3, ...) block
    and returns it with the views of its row i bound by ``binders[i]``."""
    def bind_block(values):
        return Block(values, tuple([bind(row) for bind, row in zip(binders, values)]))
    return bind_block


# The views each kernel reads of an array, by the array's role.
_differenced = _views("Differenced", "tail2", "head2", "first3", "last3")  # _derivative's input
_derived = _views("Derived", "body")  # the output of _derivative and _derivative_of_integral
_summed = _views("Summed", "tail", "head")  # the input of _integrate and _derivative_of_integral
_pairs = _views("Pairs", "tail", "head", "first2", "last2")  # _derivative_of_integral's sums
_integral = _views("Integral", "tail")  # _integrate's output
# A block of terms: row 0 is differenced, and written by _integrate as a
# residual or by _derivative_of_integral as a slope; row 1 derived and
# differenced; row 2 derived.
_term_block = _block(_views("Term", "body", "tail", "tail2", "head2", "first3", "last3"),
                     _views("Slope", "body", "tail2", "head2", "first3", "last3"),
                     _derived)
# Of the squares of a norm's terms only row 0, phi(u) inside F and D F, is
# read on its own.
_square_block = _block(_summed)


class Workspace:
    """Scratch arrays of one shape, each with the views its kernels read,
    reused by every kernel call of a flow solve.

    ``integrate_flow`` makes one per solve and computes each stage point,
    velocity, residual and error estimate into it, and, under
    ``enforce_ball``, each step's distance to U; F is evaluated there once
    per accepted step, for the residual that gives g and k1, and RK4's
    later stage velocities read D h and D F instead. Once the run has
    ended, the flow takes the trajectory's other distances a block of
    recorded iterates at a time, in ``dif``. A public step, velocity, solve
    or residual called on grid functions makes its own, by ``of``.

    Each slot is a ``cached_property``, allocated on first read and its
    views bound then (see ``_views``), so a one-off call allocates and
    slices only what its kernels touch, and a flow binds each slot once and
    takes no slice in its steps. A flow allocates all of them: twelve arrays of the grid's
    shape and the (3, rows, n) block ``dif``, 8 (12n - 1 + 3 rows n) bytes,
    212 KB at n = 201, 384 KB at n = 2001 and 2.4 MB at n = 20001.

    - ``stage``: an RK4 stage point, or the Euler increment (an array);
    - ``k1``: the velocity A(u)^{-1}(h - F(u)) at the iterate u, then the
      running RK4 sum; ``k2``: the latest stage velocity (derived views);
    - ``dh``: the derivative D h of the right-hand side, written once per
      flow or public RK4 step and read by RK4's stage velocities;
    - ``div``: the divisor phi'(u) of A(u)^{-1} (an array); ``trap``: the
      trapezoids of an integral (an array), whose views ``pairs`` hold the
      neighbour sums of ``_derivative_of_integral``, one fewer per row;
    - the ``Block``s of three rows, each function above its derivatives, so
      that one ``_norm`` call takes every term of a norm: ``res`` holds
      h - F(x) at the point being evaluated in its row 0 (in the constants
      estimate, a slope D A(.)q divided by A^{-1}), and ``sq`` the squares
      of the residual's terms, and phi(u) inside F and D F in its row 0;
      ``gap`` is ``dif[:, 0]``, a difference whose norm a step measures (a
      distance, or the flow's error estimate), above its derivatives, which
      is squared in place;
    - ``dif``, a bare (3, rows, n) array, rows = max(1, ``BLOCK_ELEMENTS``
      // n), whatever the workspace's shape: ``dif[i]`` holds the i-th
      derivatives of a block of differences whose norms are taken together.
    """

    def __init__(self, shape: tuple[int, ...]):
        self.shape = shape
        self.dx = 1.0 / (shape[-1] - 1)

    @classmethod
    def of(cls, u: GridFunction, v: GridFunction) -> Workspace:
        """The workspace of a one-off call on u and v, of their broadcast
        shape; raises ``GridMismatchError`` unless they share a grid."""
        require_same_grid(u, v)
        return cls(np.broadcast(u.values, v.values).shape)

    stage = cached_property(lambda ws: np.empty(ws.shape))
    k1 = cached_property(lambda ws: _derived(np.empty(ws.shape)))
    k2 = cached_property(lambda ws: _derived(np.empty(ws.shape)))
    dh = cached_property(lambda ws: _derived(np.empty(ws.shape)))
    div = cached_property(lambda ws: np.empty(ws.shape))
    trap = cached_property(lambda ws: np.empty(ws.shape[:-1] + (ws.shape[-1] - 1,)))
    pairs = cached_property(lambda ws: _pairs(ws.trap))
    res = cached_property(lambda ws: _term_block(np.empty((3,) + ws.shape)))
    sq = cached_property(lambda ws: _square_block(np.empty((3,) + ws.shape)))
    dif = cached_property(
        lambda ws: np.empty((3, max(1, BLOCK_ELEMENTS // ws.shape[-1]), ws.shape[-1])))
    gap = cached_property(lambda ws: _term_block(ws.dif[:, 0]))


def _derivative(v, dx: float, out) -> np.ndarray:
    """``derivative`` on values: writes it into ``out`` and returns its
    array. The interior is one subtraction of row slices for every shape:
    each row of a block gets the bits of that row derived alone, and no
    pair that straddles two rows is formed, to overflow or warn."""
    h2 = 2.0 * dx
    inner = np.subtract(v.tail2, v.head2, out.body)
    inner /= h2
    o = out.values
    # difference-first form of the one-sided stencils: exact zero on constants.
    if o.ndim == 1:
        # one function: the same operations on Python floats, without numpy's
        # per-call cost (a 1-D v derived into a block keeps the block path)
        v0, v1, v2 = v.first3.tolist()
        w2, w1, w0 = v.last3.tolist()
        o[0] = (4.0 * (v1 - v0) - (v2 - v0)) / h2
        o[-1] = (4.0 * (w0 - w1) - (w0 - w2)) / h2
        return o
    # lt[k] is node k of every row, tt[k] node k of every row's last three
    lt, tt, ot = v.first3.T, v.last3.T, o.T
    ot[0] = (4.0 * (lt[1] - lt[0]) - (lt[2] - lt[0])) / h2
    ot[-1] = (4.0 * (tt[2] - tt[1]) - (tt[2] - tt[0])) / h2
    return o


def derivative(f: GridFunction) -> GridFunction:
    """Second-order discrete derivative.

    Central differences at interior nodes, one-sided three-point stencils at
    the boundary nodes; exact on polynomials of degree <= 2.
    """
    out = _derived(np.empty_like(f.values))
    return GridFunction._trusted(_derivative(_differenced(f.values), f.dx, out))


def _integrate(v, dx: float, out,
               trap: np.ndarray | None = None) -> np.ndarray:
    """``integrate_from_zero`` on values: writes it into ``out``, with the
    trapezoids in ``trap`` (a fresh array if None), and returns its array."""
    trap = np.add(v.tail, v.head, trap)
    trap *= dx / 2.0
    o = out.values
    o[..., 0] = 0.0
    np.add.accumulate(trap, -1, None, out.tail)
    return o


def integrate_from_zero(f: GridFunction) -> GridFunction:
    """Cumulative trapezoid integral; the result vanishes at x = 0."""
    out = _integral(np.empty_like(f.values))
    return GridFunction._trusted(_integrate(_summed(f.values), f.dx, out))


def _derivative_of_integral(v, out, pairs) -> np.ndarray:
    """``_derivative(_integrate(v))`` on values, without the integral:
    writes it into ``out`` and returns its array.

    The stencils read differences of the cumulative sum, which are sums of
    the neighbour sums p_k = v_k + v_{k+1} (in ``pairs``, one fewer per
    row): (p_{k-1} + p_k) / 4 = (v_{k-1} + 2 v_k + v_{k+1}) / 4 inside the
    grid, (3 p_0 - p_1) / 4 = (3 v_0 + 2 v_1 - v_2) / 4 at x = 0 and its
    mirror at x = 1. So dx cancels, and no integral is formed whose
    rounding the stencil would divide by dx.
    """
    np.add(v.tail, v.head, pairs.values)
    inner = np.add(pairs.tail, pairs.head, out.body)
    inner *= 0.25
    o = out.values
    if o.ndim == 1:
        # one function: the end stencils on Python floats, as in _derivative
        p0, p1 = pairs.first2.tolist()
        q1, q0 = pairs.last2.tolist()
        o[0] = (3.0 * p0 - p1) * 0.25
        o[-1] = (3.0 * q0 - q1) * 0.25
        return o
    # lt[k] is the neighbour sum k of every row, tt[k] of its last two
    lt, tt, ot = pairs.first2.T, pairs.last2.T, o.T
    ot[0] = (3.0 * lt[0] - lt[1]) * 0.25
    ot[-1] = (3.0 * tt[-1] - tt[-2]) * 0.25
    return o


def _l2_squared(values: np.ndarray, dx: float, sq: np.ndarray | None = None):
    """Squared trapezoid L2 norm of each row; the squares go into ``sq`` (a
    fresh array if None)."""
    sq = np.multiply(values, values, sq)
    total = np.add.reduce(sq, -1)
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


def _norm(terms: Block, a: int, dx: float, squares: np.ndarray):
    """``sobolev_norm`` of the values in row 0 of ``terms``, a ``Block`` of
    at least a + 1 rows, with its derivatives written into rows 1 to a and
    the squares of those a + 1 terms into ``squares``, an array of the
    block's values' shape: the block's own values where no term is read
    again. A float for one function, an array of one norm per row for a
    batch; ``a`` is at most 2, as ``ProblemSetup`` checks a and a + delta.
    The only array-side H_a norm: residuals, distances and the constants'
    ratios all take theirs here."""
    rows = terms.rows
    for i in range(a):
        _derivative(rows[i], dx, rows[i + 1])
    block, squares = terms.values[:a + 1], squares[:a + 1]
    if squares.ndim > 2:  # a batch
        return _root_sum(_l2_squared(block, dx, squares))
    # One function: _l2_squared's trapezoid tails and fmin rule, and
    # _root_sum, as the same operations on Python floats, one term at a time.
    np.multiply(block, block, squares)
    ends = squares[:, ::squares.shape[-1] - 1].tolist()  # [first, last] square of each term
    total = None
    for full, (first, last) in zip(np.add.reduce(squares, -1).tolist(), ends):
        part = dx * (full - 0.5 * (first + last))
        part = part if part <= full else full  # np.fmin: a NaN gives way
        total = part if total is None else total + part
    return math.sqrt(total)


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
    field is a Python float, as in a grid or trajectory file, the rows are
    formatted by one ``%`` template over all of them, ``%.17g`` per field,
    which gives the digits of ``format(v, ".17g")`` without a call per row."""
    rows = list(rows)
    fields = tuple(chain.from_iterable(rows))
    text = ",".join(header) + "\r\n"
    if set(map(type, fields)) == {float}:
        text += (",".join(["%.17g"] * len(header)) + "\r\n") * len(rows) % fields
    else:
        text += "".join(",".join(["" if v is None else str(v) if isinstance(v, int)
                                  else f"{v:.17g}" for v in row]) + "\r\n" for row in rows)
    _write_text(path, text)


@lru_cache(maxsize=4)
def _grid_csv_template(n: int) -> str:
    """The `x,value` file of the n-point grid with its x column formatted,
    ``%.17g`` as ``_write_csv_rows`` formats it, and a ``%.17g`` field for
    each value."""
    x = np.linspace(0.0, 1.0, n).tolist()
    return "x,value\r\n" + "".join(["%.17g,%%.17g\r\n" % xi for xi in x])


def write_grid_csv(f: GridFunction, path) -> None:
    """Write the two-column `x,value` format with 17-significant-digit floats.

    The x column is formatted once per grid size, the values on each call,
    with the bytes of ``_write_csv_rows``. A batch of functions, shape
    (rows, n), raises ``ValueError`` naming its shape, and no file is
    written."""
    _require_one(f=f)
    # Python floats format faster than numpy scalars, to the same digits
    _write_text(path, _grid_csv_template(f.n) % tuple(f.values.tolist()))


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
