"""Scale operators: a forward map F, its derivative A(u), and A(u)^{-1}.

An operator maps grid functions measured in H_a to smoother images measured
in H_{a+delta}. Applying the inverse derivative goes the other way and costs
the same number of indices, which is what makes plain Newton iteration
delicate on these problems.

Every operator here is F(u) = I(phi(u)), with I the cumulative trapezoid
integral and phi a pointwise nonlinearity, so everything else follows from
phi and its derivative phi':

* A(u)q = I(phi'(u) q), and A(u)^{-1} psi = D psi / phi'(u), with D the
  stencil derivative;
* D F(u) = M phi(u) and D A(u)q = M(phi'(u) q), with M = D o I the fused
  stencil ``scale._derivative_of_integral``, which forms no integral.

Built-ins:

* ``QuadraticVolterra`` -- phi(u) = u^2: F(u)(x) = integral_0^x u(s)^2 ds,
  A(u)q = integral_0^x 2u q and A(u)^{-1} psi = psi' / (2u).
* ``LinearSmoothing`` -- phi(u) = u: F(u)(x) = integral_0^x u(s) ds, a
  linear sanity operator whose derivative does not depend on u.

The flow's velocity A(u)^{-1}(h - F(u)) is (D h - M phi(u)) / phi'(u): D F(u)
is a local average of phi(u) that needs no integral.
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
    """An operator F(u) = I(phi(u)), with A(u) = F'(u) and A(u)^{-1}.

    ``a`` is the domain index and ``delta`` the smoothing gain, 1 each for
    every I o phi: images of ``eval`` have finite H_{a+delta} norm.

    A subclass declares phi and phi' on value arrays (``phi`` and
    ``dphi``), the floor ``u_min`` of its guard on u (None, no guard, by
    default; else positive and finite) and, where A(u)q has a form in the
    sampling basis, ``_image_factors``. ``dphi`` returns None where phi' is
    1, so that A(u) = F, and nothing is multiplied or divided by it; an
    identity ``phi`` returns u itself. So neither costs an array pass.

    The base class derives the rest once, for every operator. ``eval`` and
    ``apply_derivative`` state F and A(u)q in grid-function arithmetic on
    the public ``integrate_from_zero``. F, D F and D A(u)q are written on
    value arrays along the last axis (``_eval``, ``_eval_slope`` and
    ``_apply_slope``), into the views of an array (see ``scale._views``)
    with scratch from a ``Workspace``; ``solve_derivative``,
    ``dsm_vector_field`` and the flow run on them, bit for bit as on grid
    functions. ``solve_derivative`` takes the derivative of a grid
    function, or is handed it with a workspace, and passes it to
    ``_divide``, which the velocity shares, so the guard (``_below_guard``
    and ``_clears_guard``) and the division by phi'(u) are written once.

    Each built-in binds ``eval``, ``apply_derivative`` and
    ``solve_derivative``, these functions themselves, in its own class: the
    traced benchmark (``perfbench/spans.py``) wraps each from the class's
    own dict, per operator.
    """

    a = delta = 1
    u_min: float | None = None

    def __post_init__(self) -> None:
        if self.u_min is not None and not (math.isfinite(self.u_min) and self.u_min > 0.0):
            raise ValueError(f"u_min must be positive and finite, got {self.u_min!r}")

    @abstractmethod
    def phi(self, u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """phi(u) on values, written into ``out`` (a fresh array if None),
        which is returned; an identity returns u itself."""

    @abstractmethod
    def dphi(self, u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray | None:
        """phi'(u) on values, written into ``out`` (a fresh array if None),
        which is returned; None where phi' is 1."""

    def eval(self, u: GridFunction) -> GridFunction:
        """Forward map F(u) = I(phi(u))."""
        w = self.phi(u.values)
        return integrate_from_zero(u if w is u.values else GridFunction._trusted(w))

    def apply_derivative(self, u: GridFunction, q: GridFunction) -> GridFunction:
        """Apply A(u) = F'(u) to the direction q, I(phi'(u) q); linear in q."""
        require_same_grid(u, q)
        f = self.dphi(u.values)
        return integrate_from_zero(q if f is None else GridFunction._trusted(f * q.values))

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

    def _image(self, u: np.ndarray, ws: Workspace):
        """phi(u) on values, with the views the integral kernels read: in
        row 0 of the workspace's ``sq``, whose views are bound, or u's own,
        bound here, where phi is the identity."""
        square = ws.sq.rows[0]
        w = self.phi(u, square.values)
        return square if w is square.values else _summed(w)

    def _eval(self, u: np.ndarray, out, ws: Workspace) -> np.ndarray:
        """F(u) on values, written into ``out``, whose array is returned."""
        return _integrate(self._image(u, ws), ws.dx, out, ws.trap)

    def _eval_slope(self, u: np.ndarray, out, ws: Workspace) -> np.ndarray:
        """D F(u) = M phi(u) on values, the stencil derivative of
        ``_eval``'s result computed without it, written into ``out``, whose
        array is returned."""
        return _derivative_of_integral(self._image(u, ws), out, ws.pairs)

    def _apply_slope(self, u: np.ndarray, q: np.ndarray, out, ws: Workspace) -> np.ndarray:
        """D A(u)q = M(phi'(u) q) on values, the stencil derivative of
        ``apply_derivative``'s result computed without it (the
        linearisation of ``_eval_slope``), written into ``out``, whose
        array is returned."""
        # phi'(u) q goes into out, which the stencil reads whole, into its
        # neighbour sums, before it writes there
        f = self.dphi(u, out.values)
        product = q if f is None else np.multiply(f, q, f)
        return _derivative_of_integral(_summed(product), out, ws.pairs)

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
        """A(u)^{-1} of a function whose derivative is v, v / phi'(u) with
        phi'(u) in ``ws.div``, written into ``out``, an array of v's shape
        (v itself, in place, if None), which is returned; v copied where
        phi' is 1. Raises ``DegenerateCoefficient`` when a row of u trips
        the guard."""
        # One min over the whole array clears every row at once; only a dip
        # or a NaN (whose row does not trip the guard) asks row by row. A
        # batch of zero rows has no min, and trips nothing.
        if (self.u_min is not None and u.size and not np.minimum.reduce(u, None) >= self.u_min
                and self._below_guard(u).any()):
            raise DegenerateCoefficient(
                f"min node value {u.min():.6g} below guard {self.u_min:.6g}")
        f = self.dphi(u, ws.div)
        if f is not None:
            return np.divide(v, f, v if out is None else out)
        if out is None or out is v:
            return v
        np.copyto(out, v)
        return out

    def _below_guard(self, u: np.ndarray) -> np.ndarray:
        """Whether each row of the values u trips the guard on A(u)^{-1}:
        holds a node below ``u_min``. No row trips it where there is no
        guard."""
        if self.u_min is None:
            return np.zeros(u.shape[:-1], dtype=bool)
        return np.minimum.reduce(u, -1) < self.u_min

    def _clears_guard(self, floor: np.ndarray) -> np.ndarray:
        """Whether a row of values none of which lies below ``floor``
        passes the guard on A(u)^{-1}, for each entry of ``floor``: every
        row where there is no guard. A NaN floor clears nothing that is
        guarded."""
        if self.u_min is None:
            return np.ones(floor.shape, dtype=bool)
        return floor >= self.u_min


@dataclass(frozen=True)
class QuadraticVolterra(ScaleOperator):
    """The quadratic Volterra operator F(u) = integral_0^x u^2: phi(u) =
    u^2 and phi'(u) = 2u.

    ``u_min`` guards the pointwise division by 2u in A^{-1}: once the
    trajectory leaves the safe ball and u dips below the guard,
    ``solve_derivative`` raises ``DegenerateCoefficient`` instead of
    silently blowing up. On a batch it raises when any row dips below;
    ``_below_guard`` says which.
    """

    u_min: float = 0.1

    eval = ScaleOperator.eval
    apply_derivative = ScaleOperator.apply_derivative
    solve_derivative = ScaleOperator.solve_derivative

    def phi(self, u, out=None):
        return np.multiply(u, u, out)

    def dphi(self, u, out=None):
        return np.multiply(u, 2.0, out)

    def _image_factors(self, u, q):
        # phi' is linear: phi'(u)'s coefficients are phi' of u's
        return None if u is None else (self.dphi(u), q)


# The constant 1, the sampling basis's first function, in that basis.
_ONE = np.eye(1, DIRECTION_DRAWS)[0]
_ONE.flags.writeable = False


@dataclass(frozen=True)
class LinearSmoothing(ScaleOperator):
    """Linear smoothing operator F(u) = integral_0^x u, with A(u) = F:
    phi(u) = u and phi'(u) = 1, and no guard."""

    eval = ScaleOperator.eval
    apply_derivative = ScaleOperator.apply_derivative
    solve_derivative = ScaleOperator.solve_derivative

    def phi(self, u, out=None):
        return u

    def dphi(self, u, out=None):
        return None

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
