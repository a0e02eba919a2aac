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
    _integrate,
    integrate_from_zero,
    require_same_grid,
    sobolev_norm,
)

# ProblemSetup caches f = F(U); the cache must agree to this tolerance.
CACHE_TOL = 1e-10


class DegenerateCoefficient(RuntimeError):
    """The division coefficient in A^{-1} fell below the operator guard."""


class ScaleOperator(ABC):
    """Interface bundling F, A(u) application and A(u)^{-1} application.

    ``a`` is the domain index and ``delta`` the smoothing gain: images of
    ``eval`` have finite H_{a+delta} norm.

    F and A(u)^{-1} are written on value arrays along the last axis
    (``_eval`` and ``_solve``), into a given array with scratch from a
    ``Workspace``; ``solve_derivative``, ``dsm_vector_field`` and the flow
    run on them. ``eval`` states F in grid-function arithmetic on the same
    scale kernels, bit for bit. Each built-in defines its public methods
    itself, where the traced benchmark wraps them.
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
    def _solve(self, u: np.ndarray, psi: np.ndarray, out: np.ndarray,
               ws: Workspace) -> np.ndarray:
        """A(u)^{-1} psi on values, written into ``out``, which is returned;
        raises ``DegenerateCoefficient`` when a row of u trips the guard."""

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

    def _solve(self, u, psi, out, ws):
        # count_nonzero answers `any` at half its cost on a flow's one row
        if np.count_nonzero(self._below_guard(u)):
            raise DegenerateCoefficient(
                f"min node value {u.min():.6g} below guard {self.u_min:.6g}"
            )
        div = np.multiply(u, 2.0, out=ws.div)
        return np.divide(_derivative(psi, ws.dx, out), div, out=out)

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

    def _solve(self, u, psi, out, ws):
        return _derivative(psi, ws.dx, out)


@dataclass(frozen=True)
class ProblemSetup:
    """An operator with its reference point and working ball.

    ``U`` solves F(U) = f. ``R`` is the H_a radius of the ball around U on
    which the operator's conditions are sampled and (optionally) enforced
    during flow integration.
    """

    operator: ScaleOperator
    U: GridFunction
    f: GridFunction
    R: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.R) and self.R > 0.0):
            raise ValueError(f"ball radius R must be positive and finite, got {self.R!r}")
        require_same_grid(self.U, self.f)
        drift = sobolev_norm(self.operator.eval(self.U) - self.f,
                             self.operator.a + self.operator.delta)
        if drift > CACHE_TOL:
            raise ValueError(
                f"cached f is not F(U): ||F(U) - f|| = {drift:.3e} exceeds {CACHE_TOL:g}"
            )

    @property
    def a(self) -> int:
        return self.operator.a

    @property
    def delta(self) -> int:
        return self.operator.delta

    @classmethod
    def from_reference(cls, operator: ScaleOperator, U: GridFunction,
                       radius: float) -> ProblemSetup:
        """Build a setup computing the cached right-hand side f = F(U)."""
        return cls(operator, U, operator.eval(U), radius)


def dsm_vector_field(p: ProblemSetup, u, h, ws: Workspace | None = None,
                     out: np.ndarray | None = None):
    """The Newton-flow velocity A(u)^{-1} (h - F(u)).

    Given a workspace, u and h are value arrays, h - F(u) is left in
    ``ws.res[0]`` and the velocity is written into ``out``, which is returned;
    otherwise a fresh grid function.
    """
    if ws is not None:
        return _velocity(p, u, h, ws, out)
    require_same_grid(u, h)
    shape = np.broadcast(u.values, h.values).shape
    return GridFunction._trusted(
        _velocity(p, u.values, h.values, Workspace(shape), np.empty(shape)))


def _residual_into(p: ProblemSetup, u: np.ndarray, h: np.ndarray, ws: Workspace) -> np.ndarray:
    """h - F(u) on values, written into ``ws.res[0]``, which is returned;
    A(u)^{-1} of it is the flow's velocity."""
    r = ws.res[0]
    return np.subtract(h, p.operator._eval(u, r, ws), out=r)


def _velocity(p: ProblemSetup, u: np.ndarray, h: np.ndarray, ws: Workspace,
              out: np.ndarray) -> np.ndarray:
    return p.operator._solve(u, _residual_into(p, u, h, ws), out, ws)


OPERATOR_IDS = ("volterra-quadratic", "linear-smoothing")


def make_operator(operator_id: str, u_min: float = 0.1) -> ScaleOperator:
    """Instantiate a built-in operator from its CLI identifier."""
    if operator_id == "volterra-quadratic":
        return QuadraticVolterra(u_min=u_min)
    if operator_id == "linear-smoothing":
        return LinearSmoothing()
    raise ValueError(f"unknown operator {operator_id!r}, expected one of {OPERATOR_IDS}")
