"""Sampled estimates of the flow's condition constants and admissibility checks.

The two-sided derivative bound, the composed-derivative bound and the
derivative Lipschitz bound are certified here only on sampled directions;
the report carries seed and sample count so every estimate is reproducible.
The admissibility radius rho0 derived from the two-sided constants is the
perturbation budget under which a flow solve is guaranteed to converge
inside the working ball.

``estimate_constants`` evaluates its samples in (rows, n) blocks sized by
a memory budget, ``ESTIMATE_BLOCK_ELEMENTS`` grid values per function,
each a whole number of the samplers' product chunks and none padded: each
kind of point of a block is one batched call into the public sampling and
operator functions, and so is each norm of a function outside the
sampling span (an operator image or the distance u - v), which
``scale.sobolev_norm`` takes on the grid. The samplers normalise the sampled
points and directions from their coefficients, through the cached Gram
matrix of the sampling basis, and each direction q is a unit direction,
||q||_a = 1, so no ratio divides by a norm of q. With ``bracket_only`` it
computes the two-sided ratios alone, from the same draws, so its bracket
and rho0 equal the full estimate's bit for bit; its report's ``c_iso`` and
``c_lip`` are then None. It evaluates the point v on the grid only where
a bound from v's coefficients cannot show that v passes the guard.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .flow import residual
from .operators import ProblemSetup
from .sampling import (
    DIRECTION_DRAWS,
    POINT_DRAWS,
    _ball_reach,
    _chunk_rows,
    sample_in_ball,
    unit_direction,
)
from .scale import GridFunction, _require_one, ball_distance, sobolev_norm

# Grid values per function in one block of the constants estimate, a memory
# budget taken in whole chunks of the samplers' products, at least one: 320
# rows at n = 201, 32 at n = 2001, 14 at n = 4097, 2 at n = 20001.
ESTIMATE_BLOCK_ELEMENTS = 2 ** 16


class EstimationError(RuntimeError):
    """No usable samples survived the operator guard."""


@dataclass(frozen=True)
class ConstantsReport:
    """Sampled condition constants on the ball of radius ``radius``.

    Each sample's direction q is a unit direction, ||q||_a = 1.
    ``c0_lower``/``c0_upper`` bracket ||A(u)q||_{a+delta} over the samples;
    ``c_iso`` is the largest composed norm ||A^{-1}(v)A(w)q||_a and
    ``c_lip`` the largest derivative-difference ratio
    ||A^{-1}(u)(A(u) - A(v))q||_a / ||u - v||_a, both None on a bracket-only
    report. ``rho0`` is the admissibility radius derived from the bracket.
    """

    c0_lower: float
    c0_upper: float
    c_iso: float | None
    c_lip: float | None
    rho0: float
    radius: float
    sample_count: int
    seed: int
    skipped: int


@dataclass(frozen=True)
class AdmissibilityVerdict:
    """Outcome of checking one (u0, h) pair against a constants report."""

    rho0: float
    dist_u0: float
    dist_h: float
    r: float
    R_required: float
    admissible: bool
    margin: float
    radius_ok: bool


def rho_max(R: float, c0: float, c0_prime: float) -> float:
    """Admissibility radius R / (1 + (1 + c0') / c0)."""
    if R <= 0.0 or c0 <= 0.0 or c0_prime <= 0.0:
        raise ValueError("R, c0 and c0_prime must all be positive")
    return R / (1.0 + (1.0 + c0_prime) / c0)


def r_bound(g0: float, c0: float) -> float:
    """Trajectory drift bound g(0) / c0."""
    if g0 < 0.0:
        raise ValueError("g0 must be nonnegative")
    if c0 <= 0.0:
        raise ValueError("c0 must be positive")
    return g0 / c0


def estimate_constants(p: ProblemSetup, sample_count: int = 200, seed: int = 0,
                       bracket_only: bool = False) -> ConstantsReport:
    """Estimate the condition constants by sampling the working ball.

    Each sample draws points u, v, w from the ball and a unit direction q,
    then accumulates the min/max of the relevant norm ratios. Samples whose
    A^{-1} application trips the operator guard are skipped and counted.
    Draws are consumed in a fixed per-sample order, so for a fixed seed a
    longer run extends a shorter one sample for sample.

    Samples are evaluated a block at a time, each drawn by one
    ``Generator.random`` call that consumes the same numbers as drawing them
    one after another. A block holds H * max(1, ESTIMATE_BLOCK_ELEMENTS //
    (H * n)) rows, a whole number of the samplers' H-row product chunks
    (H = ``sampling._chunk_rows(n)``), and the last block only the samples
    left. So every sample sits at the same position of an H-row product in
    any run, and a longer run extends a shorter one exactly. Like the
    builtins min and max, the reductions pass over NaN ratios. A
    constant that comes out non-finite, because the ball's norms overflow,
    raises ``ValueError`` naming it.

    ``bracket_only`` skips w, both A^{-1} applications and the u - v
    distance: the report holds the same bracket, rho0 and skipped count,
    with ``c_iso`` and ``c_lip`` None, and no check on the skipped
    quantities can fail. It evaluates v, which the bracket reads only
    through the operator guard, only in a block where the certified bound
    min U - R xi sum |c_i| / ||c B||_a (``sampling._ball_reach``) cannot
    clear that guard for every row; so a ``LinearSmoothing`` bracket,
    which has no guard, never draws v.
    """
    if sample_count < 10:
        raise ValueError("sample_count must be at least 10")
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    rng = np.random.default_rng(seed)
    chunk = _chunk_rows(p.U.n)
    rows = chunk * max(1, ESTIMATE_BLOCK_ELEMENTS // (chunk * p.U.n))
    blocks = [
        _constants_ratios(
            p, rng.random((min(rows, sample_count - start), _CONSTANTS_DRAWS)), bracket_only)
        for start in range(0, sample_count, rows)
    ]
    ratios = [np.concatenate(parts) for parts in zip(*blocks)]
    two_sided = ratios[0]
    if two_sided.size == 0:
        raise EstimationError(f"all {sample_count} samples tripped the operator guard")
    constants = {"c0_lower": float(np.fmin.reduce(two_sided, initial=np.inf))}
    for name, r in zip(("c0_upper", "c_iso", "c_lip"), ratios):
        constants[name] = float(np.fmax.reduce(r, initial=-np.inf))
    for name, value in constants.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} is not finite: {value!r}")
    return ConstantsReport(
        **{"c_iso": None, "c_lip": None, **constants},
        rho0=rho_max(p.R, constants["c0_lower"], constants["c0_upper"]),
        radius=p.R,
        sample_count=sample_count,
        seed=seed,
        skipped=sample_count - two_sided.size,
    )


# Per sample: the ball points u, v, w, then the direction q.
_CONSTANTS_DRAWS = 3 * POINT_DRAWS + DIRECTION_DRAWS


def _constants_ratios(p: ProblemSetup, draws: np.ndarray, bracket_only: bool):
    """The two-sided, composed and Lipschitz ratios of a block of samples,
    one per row of `draws`, over the samples whose u and v pass the
    operator guard; the two-sided ratios alone if `bracket_only`.

    The bracket reads v only through its guard. So with `bracket_only`, v
    is drawn on the grid only where the bound min U - reach (see
    ``sampling._ball_reach``) cannot clear the guard for every row of the
    block; an operator without a guard clears every row."""
    op, a, n = p.operator, p.a, p.U.n

    def point(i):
        return sample_in_ball(draws[:, i * POINT_DRAWS:(i + 1) * POINT_DRAWS], p.U, p.R, a)

    # one product with the basis per point: stacked into one, the arrays
    # ran slower at n = 20001 and held more memory
    u = point(0)
    # ||q||_a = 1, so each ratio's denominator holds no norm of q
    q = unit_direction(draws[:, 3 * POINT_DRAWS:], n, a)
    a_u_q = op.apply_derivative(u, q)
    two_sided = sobolev_norm(a_u_q, a + p.delta)
    keep = ~op._below_guard(u.values)
    if bracket_only:
        floor = p.U.min() - _ball_reach(draws[:, POINT_DRAWS:2 * POINT_DRAWS], n, p.R, a)
        if not op._clears_guard(floor).all():
            keep &= ~op._below_guard(point(1).values)
        return (two_sided[keep],)
    v = point(1)
    v_ok = ~op._below_guard(v.values)
    keep &= v_ok
    w = point(2)
    # from the rounded values, not the coefficients: the points A(u) and
    # A(v) see may coincide although their coefficients differ
    lip_denom = ball_distance(u, v, a)
    # An overflowed distance measures nothing: its ratio is NaN, which the
    # reduction passes over, so a ball whose distances all overflow has no
    # finite c_lip.
    lip_denom[np.isinf(lip_denom)] = np.nan
    if (v_ok & (lip_denom == 0.0)).any():
        raise ValueError(f"ball radius {p.R!r} is too small: sampled points coincide")
    if not keep.all():
        u, v, w, q, a_u_q = (GridFunction._trusted(f.values[keep]) for f in (u, v, w, q, a_u_q))
    iso = sobolev_norm(op.solve_derivative(v, op.apply_derivative(w, q)), a)
    diff = a_u_q - op.apply_derivative(v, q)
    lip = sobolev_norm(op.solve_derivative(u, diff), a) / lip_denom[keep]
    return two_sided[keep], iso, lip


def admissibility_check(p: ProblemSetup, u0: GridFunction, h: GridFunction,
                        report: ConstantsReport) -> AdmissibilityVerdict:
    """Check whether (u0, h) lies within the admissibility budget.

    The effective perturbation is the larger of ||u0 - U||_a and
    ||h - f||_{a+delta}; the pair is admissible when it stays within rho0.
    The drift bound r uses the measured initial residual, which is sharper
    than its analytic cap, and ``radius_ok`` reports whether the working
    radius covers drift plus perturbation. A distance or residual that
    overflows raises ``ValueError`` naming it, as does a batch of
    functions, shape (rows, n), passed as u0 or h.
    """
    _require_one(u0=u0, h=h)
    dist_u0 = ball_distance(u0, p.U, p.a)
    dist_h = ball_distance(h, p.f, p.a + p.delta)
    g0 = residual(p, u0, h)
    for name, value in (("dist_u0", dist_u0), ("dist_h", dist_h), ("g0", g0)):
        if not math.isfinite(value):
            raise ValueError(f"{name} is not finite: {value!r}")
    r = r_bound(g0, report.c0_lower)
    rho_eff = max(dist_u0, dist_h)
    return AdmissibilityVerdict(
        rho0=report.rho0,
        dist_u0=dist_u0,
        dist_h=dist_h,
        r=r,
        R_required=r + rho_eff,
        admissible=rho_eff <= report.rho0,
        margin=report.rho0 - rho_eff,
        radius_ok=p.R >= r + rho_eff,
    )
