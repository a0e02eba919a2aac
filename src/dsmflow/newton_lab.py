"""Discrete Newton iteration, the classical contraction solver, and the
loss-of-derivatives probe.

These are the comparison points for the flow solver: plain Newton is the
unit-step Euler discretization of the same vector field, the contraction
solver realizes the classical small-perturbation argument for maps with a
boundedly invertible derivative, and the spectral probe quantifies why that
argument fails on scale operators (same-index amplification of high modes).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .flow import euler_step, residual
from .operators import DegenerateCoefficient, ProblemSetup
from .scale import GridFunction, _write_csv_rows, ball_distance, sobolev_norm

# Residual magnitude treated as divergence of the Newton iteration.
DIVERGENCE_RESIDUAL = 1e6


class ContractionEscapeError(RuntimeError):
    """An iterate left the contraction ball; the smallness hypothesis failed."""


class ConvergenceError(RuntimeError):
    """Iteration budget exhausted before reaching the tolerance."""


@dataclass(frozen=True)
class IterationStep:
    k: int
    residual: float
    dist_to_oracle: float | None


@dataclass(frozen=True)
class IterationRecord:
    """Newton iteration history; failure is encoded, not raised."""

    steps: tuple[IterationStep, ...]
    final_u: GridFunction
    converged: bool
    diverged_at: int | None


def newton_step(p: ProblemSetup, u: GridFunction, h: GridFunction) -> GridFunction:
    """One Newton update u - A(u)^{-1}(F(u) - h).

    Identical, bit for bit, to one explicit Euler step of size one of the
    flow; both go through the same step helper.
    """
    return euler_step(p, u, h, 1.0)


def newton_solve(p: ProblemSetup, u0: GridFunction, h: GridFunction,
                 max_iter: int = 25, tol: float = 1e-10,
                 oracle: GridFunction | None = None) -> IterationRecord:
    """Iterate Newton steps until the residual tolerance, divergence or budget.

    At most ``max_iter`` steps are taken, and ``final_u`` is the iterate
    that the last record measures.

    Divergence (residual beyond ``DIVERGENCE_RESIDUAL`` or a tripped operator
    guard) sets ``diverged_at`` instead of raising. When an oracle iterate
    sequence's limit is supplied, the record tracks the distance to it. A
    non-finite starting residual raises ``ValueError``: the data overflow
    before the first step. So does a negative ``max_iter`` or ``tol``.
    """
    if max_iter < 0:
        raise ValueError(f"max_iter must be nonnegative, got {max_iter!r}")
    if not tol >= 0.0:
        raise ValueError(f"tol must be nonnegative, got {tol!r}")
    u = u0
    steps: list[IterationStep] = []
    converged = False
    diverged_at = None
    for k in range(max_iter + 1):
        g = residual(p, u, h)
        if k == 0 and not math.isfinite(g):
            raise ValueError(f"initial residual g(0) is not finite: {g!r}")
        dist = ball_distance(u, oracle, p.a) if oracle is not None else None
        steps.append(IterationStep(k, g, dist))
        if g <= tol:
            converged = True
            break
        if not math.isfinite(g) or g > DIVERGENCE_RESIDUAL:
            diverged_at = k
            break
        if k == max_iter:
            break
        try:
            u = newton_step(p, u, h)
        except DegenerateCoefficient:
            diverged_at = k
            break
    return IterationRecord(tuple(steps), u, converged, diverged_at)


@dataclass(frozen=True)
class ClassicalIFTConfig:
    """Parameters of the contraction-mapping solver.

    ``m`` bounds the inverse derivative at zero and ``epsilon`` is the ball
    radius the iterates must stay in.
    """

    m: float = 1.0
    epsilon: float = 0.25
    max_iter: int = 200
    tol: float = 1e-12

    def __post_init__(self) -> None:
        for name in ("m", "epsilon", "tol"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.m <= 0.0 or self.epsilon <= 0.0:
            raise ValueError("m and epsilon must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be positive")
        if self.tol < 0.0:
            raise ValueError(f"tol must be nonnegative, got {self.tol!r}")


def contraction_solve(phi: Callable[[GridFunction], GridFunction],
                      p_rhs: GridFunction, cfg: ClassicalIFTConfig) -> GridFunction:
    """Solve phi(z) = p by fixed-point iteration of z -> z - (phi(z) - p).

    ``phi`` must fix zero and have an identity-like derivative there (the
    iteration applies no preconditioner). Starting from z = 0, iterates must
    stay inside the ball of radius ``cfg.epsilon`` in the L2 norm; escaping
    it raises ``ContractionEscapeError``. The right-hand side must satisfy
    the smallness condition m * ||p|| < epsilon / 2, which a norm that
    overflows fails.
    """
    size = cfg.m * sobolev_norm(p_rhs, 0)
    if not size < cfg.epsilon / 2.0:
        raise ValueError(
            "right-hand side too large: need m * ||p|| < epsilon / 2 "
            f"(got {size:.6g} vs {cfg.epsilon / 2.0:.6g})"
        )
    z = GridFunction.zeros(p_rhs.n)
    for _ in range(cfg.max_iter + 1):
        defect = phi(z) - p_rhs
        if sobolev_norm(defect, 0) <= cfg.tol:
            return z
        z = z - defect
        if sobolev_norm(z, 0) > cfg.epsilon:
            raise ContractionEscapeError(
                f"iterate with norm {sobolev_norm(z, 0):.6g} left the "
                f"epsilon = {cfg.epsilon:g} ball"
            )
    raise ConvergenceError(f"no fixed point within {cfg.max_iter} iterations")


@dataclass(frozen=True)
class ModeRatio:
    k: int
    ratio_same_index: float
    ratio_shifted_index: float


@dataclass(frozen=True)
class LossProbeResult:
    """Per-mode inverse-derivative amplification and its fitted growth rate.

    The same-index ratio measures A^{-1} from H_a to H_a and grows with the
    mode number; the shifted ratio measures it from H_{a+delta} to H_a and
    stays bounded. The exponent is the log-log slope of the same-index ratio
    over k >= 1.
    """

    modes: tuple[ModeRatio, ...]
    exponent: float


def smoothing_loss_probe(p: ProblemSetup, u: GridFunction, k_max: int) -> LossProbeResult:
    """Amplification of sine modes sin(k pi x) by A(u)^{-1}, k = 0 .. k_max.

    Mode zero is the constant function. Requires k_max >= 2, since the
    exponent is a line fitted through k = 1..k_max, and k_max * pi * dx <=
    0.5 so the highest mode is resolved by the grid.
    """
    if k_max < 2:
        raise ValueError(f"k_max must be at least 2 to fit the exponent, got {k_max!r}")
    if k_max * math.pi * u.dx > 0.5:
        raise ValueError(
            f"mode {k_max} under-resolved at n = {u.n}; "
            "need k_max * pi * dx <= 0.5"
        )
    modes = np.sin((np.arange(k_max + 1) * np.pi)[:, None] * u.x)
    modes[0] = 1.0
    psi = GridFunction._trusted(modes)
    norm_image = sobolev_norm(p.operator.solve_derivative(u, psi), p.a)
    same = norm_image / sobolev_norm(psi, p.a)
    shifted = norm_image / sobolev_norm(psi, p.a + p.delta)
    ratios = tuple(ModeRatio(k, float(same[k]), float(shifted[k]))
                   for k in range(k_max + 1))
    ks = np.arange(1, k_max + 1, dtype=float)
    exponent = float(np.polyfit(np.log(ks), np.log(same[1:]), 1)[0])
    return LossProbeResult(ratios, exponent)


def write_iteration_csv(record: IterationRecord, path) -> None:
    """Write `k,residual,dist_to_oracle` rows; the oracle column may be empty."""
    _write_csv_rows(path, ["k", "residual", "dist_to_oracle"],
                    ((s.k, s.residual, s.dist_to_oracle) for s in record.steps))


def write_loss_probe_csv(result: LossProbeResult, path) -> None:
    """Write `k,ratio_same_index,ratio_shifted_index` rows."""
    _write_csv_rows(path, ["k", "ratio_same_index", "ratio_shifted_index"],
                    ((m.k, m.ratio_same_index, m.ratio_shifted_index)
                     for m in result.modes))
