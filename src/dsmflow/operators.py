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
    _integrate,
    check_scale_index,
    integrate_from_zero,
    require_same_grid,
)


class DegenerateCoefficient(RuntimeError):
    """The division coefficient in A^{-1} fell below the operator guard."""


class ScaleOperator(ABC):
    """Interface bundling F, A(u) application and A(u)^{-1} application.

    ``a`` is the domain index and ``delta`` the smoothing gain: images of
    ``eval`` have finite H_{a+delta} norm.

    F, its stencil derivative D F and A(u)^{-1} are written on value arrays
    along the last axis (``_eval``, ``_eval_slope`` and ``_solve``), into a
    given array with scratch from a ``Workspace``; ``solve_derivative``,
    ``dsm_vector_field`` and the flow run on them. ``_solve`` takes the
    derivative of its argument and hands it to ``_divide``, which the
    velocity shares, so the guard and the division by the coefficient of
    A(u) are written once. ``eval`` states F in grid-function arithmetic on
    the same scale kernels, bit for bit. Each built-in defines its public
    methods itself, where the traced benchmark wraps them.
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

        Given a workspace, u and psi are value arrays and the result is
        written into ``out``, which is returned; otherwise a fresh grid
        function. Raises ``DegenerateCoefficient`` when u trips the guard.
        """
        if ws is not None:
            return self._solve(u, psi, out, ws)
        require_same_grid(u, psi)
        shape = np.broadcast(u.values, psi.values).shape
        return GridFunction._trusted(
            self._solve(u.values, psi.values, np.empty(shape), Workspace(shape)))

    @abstractmethod
    def _eval(self, u: np.ndarray, out: np.ndarray, ws: Workspace) -> np.ndarray:
        """F(u) on values, written into ``out``, which is returned."""

    @abstractmethod
    def _eval_slope(self, u: np.ndarray, out: np.ndarray, ws: Workspace) -> np.ndarray:
        """D F(u) on values, the stencil derivative of ``_eval``'s result
        computed without it, written into ``out``, which is returned."""

    def _solve(self, u: np.ndarray, psi: np.ndarray, out: np.ndarray,
               ws: Workspace) -> np.ndarray:
        """A(u)^{-1} psi on values, written into ``out``, which is returned;
        raises ``DegenerateCoefficient`` when a row of u trips the guard."""
        return self._divide(u, _derivative(psi, ws.dx, out), ws)

    def _divide(self, u: np.ndarray, v: np.ndarray, ws: Workspace) -> np.ndarray:
        """A(u)^{-1} of a function whose derivative is v, in place in v,
        which is returned: v itself unless the operator divides it by a
        coefficient of u."""
        return v

    def _below_guard(self, u: np.ndarray) -> np.ndarray:
        """Whether each row of the values u trips the guard on A(u)^{-1}.
        No row trips it unless the operator guards a division."""
        return np.zeros(u.shape[:-1], dtype=bool)


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

    def solve_derivative(self, u, psi, ws=None, out=None):
        return super().solve_derivative(u, psi, ws, out)

    def _eval(self, u, out, ws):
        return _integrate(np.multiply(u, u, out=ws.sq[0]), ws.dx, out, ws.trap)

    def _eval_slope(self, u, out, ws):
        return _derivative_of_integral(np.multiply(u, u, out=ws.sq[0]), out, ws.trap)

    def _divide(self, u, v, ws):
        """v / (2u)."""
        # One min over the whole array clears every row at once; only a dip
        # or a NaN (whose row does not trip the guard) asks row by row. A
        # batch of zero rows has no min, and trips nothing.
        if u.size and not u.min() >= self.u_min and self._below_guard(u).any():
            raise DegenerateCoefficient(
                f"min node value {u.min():.6g} below guard {self.u_min:.6g}"
            )
        return np.divide(v, np.multiply(u, 2.0, out=ws.div), out=v)

    def _below_guard(self, u: np.ndarray) -> np.ndarray:
        return u.min(axis=-1) < self.u_min


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

    def solve_derivative(self, u, psi, ws=None, out=None):
        return super().solve_derivative(u, psi, ws, out)

    def _eval(self, u, out, ws):
        return _integrate(u, ws.dx, out, ws.trap)

    def _eval_slope(self, u, out, ws):
        return _derivative_of_integral(u, out, ws.trap)


@dataclass(frozen=True)
class ProblemSetup:
    """An operator with its reference pair (U, f = F(U)) and working ball.

    ``f`` is computed from U, once, when the setup is made. ``R`` is the
    H_a radius of the ball around U on which the operator's conditions are
    sampled and (optionally) enforced during flow integration. Both a and
    a + delta must be supported scale indices.
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
    flow, or a public step), and the velocity is written into ``out``, which
    is returned; otherwise a fresh grid function.
    """
    if ws is not None:
        return _velocity(p, u, ws, out)
    require_same_grid(u, h)
    shape = np.broadcast(u.values, h.values).shape
    ws = Workspace(shape)
    _derivative(h.values, ws.dx, ws.dh)
    return GridFunction._trusted(_velocity(p, u.values, ws, np.empty(shape)))


def _velocity(p: ProblemSetup, u: np.ndarray, ws: Workspace, out: np.ndarray) -> np.ndarray:
    """``dsm_vector_field`` on values, from the D h in ``ws.dh``."""
    op = p.operator
    return op._divide(u, np.subtract(ws.dh, op._eval_slope(u, out, ws), out=out), ws)


OPERATOR_IDS = ("volterra-quadratic", "linear-smoothing")


def make_operator(operator_id: str, u_min: float = 0.1) -> ScaleOperator:
    """Instantiate a built-in operator from its CLI identifier."""
    if operator_id == "volterra-quadratic":
        return QuadraticVolterra(u_min=u_min)
    if operator_id == "linear-smoothing":
        return LinearSmoothing()
    raise ValueError(f"unknown operator {operator_id!r}, expected one of {OPERATOR_IDS}")
