"""Scale operators: a forward map F, its derivative A(u), and A(u)^{-1}.

An operator maps grid functions measured in H_a to smoother images measured
in H_{a+delta}. Applying the inverse derivative goes the other way and costs
the same number of indices, which is what makes plain Newton iteration
delicate on these problems.

Built-ins:

* ``QuadraticVolterra`` -- F(u)(x) = integral_0^x u(s)^2 ds with
  A(u)q = 2 integral_0^x u q and A(u)^{-1} psi = psi' / (2u).
* ``LinearSmoothing`` -- F(u)(x) = integral_0^x u(s) ds, a linear sanity
  operator whose derivative does not depend on u.

The flow's velocity A(u)^{-1}(h - F(u)) is (D h - D F(u)) / (2u), or
D h - D F(u) for ``LinearSmoothing``, with D the stencil derivative; D F(u)
is a local average of u^2 (or u) that needs no integral.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field

import numpy as np

from .scale import (
    GridFunction,
    Workspace,
    _derivative,
    _derivative_of_integral,
    _derived,
    _differenced,
    _integrate,
    _summed,
    check_scale_index,
    integrate_from_zero,
    require_same_grid,
)
from .sampling import DIRECTION_DRAWS


class DegenerateCoefficient(RuntimeError):
    """The division coefficient in A^{-1} fell below the operator guard."""


class ScaleOperator(ABC):
    """Interface bundling F, A(u) application and A(u)^{-1} application.

    ``a`` is the domain index and ``delta`` the smoothing gain: images of
    ``eval`` have finite H_{a+delta} norm.

    F and its stencil derivative D F are written on value arrays along the
    last axis (``_eval`` and ``_eval_slope``), into the views of an array
    (see ``scale._views``) with scratch from a ``Workspace``;
    ``solve_derivative``, ``dsm_vector_field`` and the flow run on them.
    ``solve_derivative`` takes the derivative of a grid function, or is
    handed it with a workspace, and passes it to ``_divide``, which the
    velocity shares, so the guard and the division by the coefficient of
    A(u) are written once. ``eval`` states F in grid-function arithmetic on
    the same scale kernels, bit for bit. Each built-in binds
    ``solve_derivative`` in its own class, where the traced benchmark wraps
    it per operator.
    """

    a: int
    delta: int

    @abstractmethod
    def eval(self, u: GridFunction) -> GridFunction:
        """Forward map F(u)."""

    @abstractmethod
    def apply_derivative(self, u: GridFunction, q: GridFunction) -> GridFunction:
        """Apply A(u) = F'(u) to the direction q; linear in q."""

    def solve_derivative(self, u, psi, ws: Workspace | None = None,
                         out: np.ndarray | None = None):
        """Apply A(u)^{-1} to psi.

        Given a workspace, u is a value array and psi and ``out`` are views
        of workspace arrays: psi holds the derivative D psi that A(u)^{-1}
        divides (the flow's D(h - F(u)), which the residual's norm leaves
        in ``ws.res`` row 1, see ``flow._residual``), and the result is
        written into ``out`` (k1), whose array is returned. Otherwise psi
        is a grid function, which is derived here, and the result a fresh
        grid function. Raises ``DegenerateCoefficient`` when a row of u
        trips the guard.
        """
        if ws is not None:
            return self._divide(u, psi.values, ws, out.values)
        ws = Workspace.of(u, psi)
        v = _derivative(_differenced(psi.values), ws.dx, _derived(np.empty(ws.shape)))
        return GridFunction._trusted(self._divide(u.values, v, ws))

    @abstractmethod
    def _eval(self, u: np.ndarray, out, ws: Workspace) -> np.ndarray:
        """F(u) on values, written into ``out``, whose array is returned."""

    @abstractmethod
    def _eval_slope(self, u: np.ndarray, out, ws: Workspace) -> np.ndarray:
        """D F(u) on values, the stencil derivative of ``_eval``'s result
        computed without it, written into ``out``, whose array is
        returned."""

    @abstractmethod
    def _apply_slope(self, u: np.ndarray, q: np.ndarray, out, ws: Workspace) -> np.ndarray:
        """D A(u)q on values, the stencil derivative of ``apply_derivative``'s
        result computed without it (the linearisation of ``_eval_slope``),
        written into ``out``, whose array is returned."""

    def _image_factors(self, u: np.ndarray | None, q: np.ndarray):
        """Two sampled functions f and g with A(u)q = I(f g), I the
        trapezoid integral, given by their coefficients in the sampling
        basis (rows, or one row for all), for u and q given so (u None
        where it lies outside that basis). None where the operator states
        no such form, as here: the estimate then takes every two-sided
        ratio on the grid."""
        return None

    def _divide(self, u: np.ndarray, v: np.ndarray, ws: Workspace,
                out: np.ndarray | None = None) -> np.ndarray:
        """A(u)^{-1} of a function whose derivative is v, written into
        ``out``, an array of v's shape (v itself, in place, if None), which
        is returned: v copied unless the operator divides it by a
        coefficient of u."""
        if out is None or out is v:
            return v
        np.copyto(out, v)
        return out

    def _below_guard(self, u: np.ndarray) -> np.ndarray:
        """Whether each row of the values u trips the guard on A(u)^{-1}.
        No row trips it unless the operator guards a division."""
        return np.zeros(u.shape[:-1], dtype=bool)

    def _clears_guard(self, floor: np.ndarray) -> np.ndarray:
        """Whether a row of values none of which lies below ``floor``
        passes the guard on A(u)^{-1}, for each entry of ``floor``: every
        row unless the operator guards a division. A NaN floor clears
        nothing that is guarded."""
        return np.ones(floor.shape, dtype=bool)


@dataclass(frozen=True)
class QuadraticVolterra(ScaleOperator):
    """The quadratic Volterra operator F(u) = integral_0^x u^2.

    ``u_min`` guards the pointwise division in A^{-1}: once the trajectory
    leaves the safe ball and u dips below the guard, ``solve_derivative``
    raises ``DegenerateCoefficient`` instead of silently blowing up. On a
    batch it raises when any row dips below; ``_below_guard`` says which.
    """

    u_min: float = 0.1
    a: int = field(default=1, init=False)
    delta: int = field(default=1, init=False)

    def __post_init__(self) -> None:
        if not (math.isfinite(self.u_min) and self.u_min > 0.0):
            raise ValueError(f"u_min must be positive and finite, got {self.u_min!r}")

    def eval(self, u: GridFunction) -> GridFunction:
        return integrate_from_zero(u * u)

    def apply_derivative(self, u: GridFunction, q: GridFunction) -> GridFunction:
        require_same_grid(u, q)
        return 2.0 * integrate_from_zero(u * q)

    solve_derivative = ScaleOperator.solve_derivative

    def _eval(self, u, out, ws):
        # u * u goes into the workspace's sq row 0, whose views are bound
        square = ws.sq.rows[0]
        np.multiply(u, u, square.values)
        return _integrate(square, ws.dx, out, ws.trap)

    def _eval_slope(self, u, out, ws):
        square = ws.sq.rows[0]
        np.multiply(u, u, square.values)
        return _derivative_of_integral(square, out, ws.pairs)

    def _apply_slope(self, u, q, out, ws):
        # twice the fused derivative of the integral of u q: u q goes into
        # out, which the stencil reads whole, into its neighbour sums,
        # before it writes there
        product = _summed(np.multiply(u, q, out.values))
        return np.multiply(_derivative_of_integral(product, out, ws.pairs), 2.0, out.values)

    def _image_factors(self, u, q):
        return None if u is None else (2.0 * u, q)

    def _divide(self, u, v, ws, out=None):
        """v / (2u)."""
        # One min over the whole array clears every row at once; only a dip
        # or a NaN (whose row does not trip the guard) asks row by row. A
        # batch of zero rows has no min, and trips nothing.
        if (u.size and not np.minimum.reduce(u, None) >= self.u_min
                and self._below_guard(u).any()):
            raise DegenerateCoefficient(
                f"min node value {u.min():.6g} below guard {self.u_min:.6g}"
            )
        return np.divide(v, np.multiply(u, 2.0, ws.div), v if out is None else out)

    def _below_guard(self, u: np.ndarray) -> np.ndarray:
        return np.minimum.reduce(u, -1) < self.u_min

    def _clears_guard(self, floor: np.ndarray) -> np.ndarray:
        # a row whose min is at least floor >= u_min is not below the guard
        return floor >= self.u_min


# The constant 1, the sampling basis's first function, in that basis.
_ONE = np.eye(1, DIRECTION_DRAWS)[0]
_ONE.flags.writeable = False


@dataclass(frozen=True)
class LinearSmoothing(ScaleOperator):
    """Linear smoothing operator F(u) = integral_0^x u, with A(u) = F."""

    a: int = field(default=1, init=False)
    delta: int = field(default=1, init=False)

    def eval(self, u: GridFunction) -> GridFunction:
        return integrate_from_zero(u)

    def apply_derivative(self, u: GridFunction, q: GridFunction) -> GridFunction:
        require_same_grid(u, q)
        return integrate_from_zero(q)

    solve_derivative = ScaleOperator.solve_derivative

    def _eval(self, u, out, ws):
        # u is any value array, a stage point or a new iterate: its views
        # are bound here
        return _integrate(_summed(u), ws.dx, out, ws.trap)

    def _eval_slope(self, u, out, ws):
        return _derivative_of_integral(_summed(u), out, ws.pairs)

    def _apply_slope(self, u, q, out, ws):
        return _derivative_of_integral(_summed(q), out, ws.pairs)

    def _image_factors(self, u, q):
        return _ONE, q


@dataclass(frozen=True)
class ProblemSetup:
    """An operator with its reference pair (U, f = F(U)) and working ball.

    ``f`` is computed from U, once, when the setup is made. ``R`` is the
    H_a radius of the ball around U on which the operator's conditions are
    sampled and (optionally) enforced during flow integration. Both a and
    a + delta must be supported scale indices, and a + delta at least 1:
    the residual's norm then takes the derivative D(h - F(u)) that the
    flow's k1 divides.
    """

    operator: ScaleOperator
    U: GridFunction
    R: float
    f: GridFunction = field(init=False)

    def __post_init__(self) -> None:
        if not (math.isfinite(self.R) and self.R > 0.0):
            raise ValueError(f"ball radius R must be positive and finite, got {self.R!r}")
        check_scale_index(self.a)
        check_scale_index(self.a + self.delta)
        if self.a + self.delta < 1:
            raise ValueError(f"a + delta must be at least 1, got {self.a + self.delta}")
        object.__setattr__(self, "f", self.operator.eval(self.U))

    @property
    def a(self) -> int:
        return self.operator.a

    @property
    def delta(self) -> int:
        return self.operator.delta

    @classmethod
    def from_reference(cls, operator: ScaleOperator, U: GridFunction,
                       radius: float) -> ProblemSetup:
        """The setup of ``operator`` around U with working radius ``radius``."""
        return cls(operator, U, radius)


def dsm_vector_field(p: ProblemSetup, u, h, ws: Workspace | None = None,
                     out: np.ndarray | None = None):
    """The Newton-flow velocity A(u)^{-1} (h - F(u)).

    A(u)^{-1} takes the derivative of its argument first, so the velocity
    is computed from D h - D F(u) (see ``ScaleOperator._eval_slope``), and F
    itself is not evaluated. Given a workspace, u is a value array, ``ws.dh``
    holds D h, written there once for the value array h by the caller (the
    flow, or a public RK4 step), and the velocity is written into ``out``, the
    views of a workspace array, whose array is returned; otherwise a fresh
    grid function.
    """
    public = ws is None
    if public:
        ws = Workspace.of(u, h)
        out, u = _derived(np.empty(ws.shape)), u.values
        _derivative(_differenced(h.values), ws.dx, ws.dh)
    op = p.operator
    v = op._eval_slope(u, out, ws)
    op._divide(u, np.subtract(ws.dh.values, v, v), ws)
    return GridFunction._trusted(v) if public else v


OPERATOR_IDS = ("volterra-quadratic", "linear-smoothing")


def make_operator(operator_id: str, u_min: float = 0.1) -> ScaleOperator:
    """Instantiate a built-in operator from its CLI identifier."""
    if operator_id == "volterra-quadratic":
        return QuadraticVolterra(u_min=u_min)
    if operator_id == "linear-smoothing":
        return LinearSmoothing()
    raise ValueError(f"unknown operator {operator_id!r}, expected one of {OPERATOR_IDS}")
