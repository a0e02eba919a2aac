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
    derivative,
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

    F and A(u)^{-1} are written once each, on value arrays along the last
    axis (``_eval`` and ``_solve``, which may mark their arguments read-only
    and return fresh arrays); ``eval``, ``solve_derivative`` and
    ``dsm_vector_field`` wrap them. Each built-in defines its public methods
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

    @abstractmethod
    def solve_derivative(self, u: GridFunction, psi: GridFunction) -> GridFunction:
        """Apply A(u)^{-1} to psi."""

    @abstractmethod
    def _eval(self, u: np.ndarray) -> np.ndarray:
        """F(u) on values."""

    @abstractmethod
    def _solve(self, u: np.ndarray, psi: np.ndarray) -> np.ndarray:
        """A(u)^{-1} psi on values; raises ``DegenerateCoefficient`` when a
        row of u trips the guard."""

    def below_guard(self, u: GridFunction) -> np.ndarray:
        """Whether each row of u trips the guard on A(u)^{-1}: one bool for
        a single function, one per row for a batch."""
        return self._below_guard(u.values)

    def _below_guard(self, u: np.ndarray) -> np.ndarray:
        """``below_guard`` on values. No row trips it unless the operator
        guards a division."""
        return np.zeros(u.shape[:-1], dtype=bool)


@dataclass(frozen=True)
class QuadraticVolterra(ScaleOperator):
    """The quadratic Volterra operator F(u) = integral_0^x u^2.

    ``u_min`` guards the pointwise division in A^{-1}: once the trajectory
    leaves the safe ball and u dips below the guard, ``solve_derivative``
    raises ``DegenerateCoefficient`` instead of silently blowing up. On a
    batch it raises when any row dips below; ``below_guard`` says which.
    """

    u_min: float = 0.1
    a: int = field(default=1, init=False)
    delta: int = field(default=1, init=False)

    def __post_init__(self) -> None:
        if not (math.isfinite(self.u_min) and self.u_min > 0.0):
            raise ValueError(f"u_min must be positive and finite, got {self.u_min!r}")

    def eval(self, u: GridFunction) -> GridFunction:
        return GridFunction._trusted(self._eval(u.values))

    def apply_derivative(self, u: GridFunction, q: GridFunction) -> GridFunction:
        require_same_grid(u, q)
        return 2.0 * integrate_from_zero(u * q)

    def solve_derivative(self, u: GridFunction, psi: GridFunction) -> GridFunction:
        require_same_grid(u, psi)
        return GridFunction._trusted(self._solve(u.values, psi.values))

    def _eval(self, u: np.ndarray) -> np.ndarray:
        return integrate_from_zero(GridFunction._trusted(u * u)).values

    def _solve(self, u: np.ndarray, psi: np.ndarray) -> np.ndarray:
        if self._below_guard(u).any():
            raise DegenerateCoefficient(
                f"min node value {u.min():.6g} below guard {self.u_min:.6g}"
            )
        return derivative(GridFunction._trusted(psi)).values / (2.0 * u)

    def _below_guard(self, u: np.ndarray) -> np.ndarray:
        return u.min(axis=-1) < self.u_min


@dataclass(frozen=True)
class LinearSmoothing(ScaleOperator):
    """Linear smoothing operator F(u) = integral_0^x u, with A(u) = F."""

    a: int = field(default=1, init=False)
    delta: int = field(default=1, init=False)

    def eval(self, u: GridFunction) -> GridFunction:
        return GridFunction._trusted(self._eval(u.values))

    def apply_derivative(self, u: GridFunction, q: GridFunction) -> GridFunction:
        require_same_grid(u, q)
        return integrate_from_zero(q)

    def solve_derivative(self, u: GridFunction, psi: GridFunction) -> GridFunction:
        require_same_grid(u, psi)
        return GridFunction._trusted(self._solve(u.values, psi.values))

    def _eval(self, u: np.ndarray) -> np.ndarray:
        return integrate_from_zero(GridFunction._trusted(u)).values

    def _solve(self, u: np.ndarray, psi: np.ndarray) -> np.ndarray:
        return derivative(GridFunction._trusted(psi)).values


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


def dsm_vector_field(p: ProblemSetup, u: GridFunction, h: GridFunction) -> GridFunction:
    """The Newton-flow velocity -A(u)^{-1} (F(u) - h)."""
    require_same_grid(u, h)
    op = p.operator
    return GridFunction._trusted(-op._solve(u.values, op._eval(u.values) - h.values))


OPERATOR_IDS = ("volterra-quadratic", "linear-smoothing")


def make_operator(operator_id: str, u_min: float = 0.1) -> ScaleOperator:
    """Instantiate a built-in operator from its CLI identifier."""
    if operator_id == "volterra-quadratic":
        return QuadraticVolterra(u_min=u_min)
    if operator_id == "linear-smoothing":
        return LinearSmoothing()
    raise ValueError(f"unknown operator {operator_id!r}, expected one of {OPERATOR_IDS}")
