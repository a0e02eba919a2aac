"""Sampled estimates of the flow's condition constants and admissibility checks.

The two-sided derivative bound, the composed-derivative bound and the
derivative Lipschitz bound are certified here only on sampled directions;
the report carries seed and sample count so every estimate is reproducible.
The admissibility radius rho0 derived from the two-sided constants is the
perturbation budget under which a flow solve is guaranteed to converge
inside the working ball.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .flow import residual
from .operators import DegenerateCoefficient, ProblemSetup
from .sampling import sample_in_ball, unit_direction
from .scale import GridFunction, ball_distance, sobolev_norm


class EstimationError(RuntimeError):
    """No usable samples survived the operator guard."""


@dataclass(frozen=True)
class ConstantsReport:
    """Sampled condition constants on the ball of radius ``radius``.

    ``c0_lower``/``c0_upper`` bracket ||A(u)q||_{a+delta} / ||q||_a over the
    samples; ``c_iso`` is the largest composed ratio ||A^{-1}(v)A(w)q||_a /
    ||q||_a and ``c_lip`` the largest derivative-difference ratio. ``rho0``
    is the admissibility radius derived from the bracket.
    """

    c0_lower: float
    c0_upper: float
    c_iso: float
    c_lip: float
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


def estimate_constants(p: ProblemSetup, sample_count: int = 200,
                       seed: int = 0) -> ConstantsReport:
    """Estimate the condition constants by sampling the working ball.

    Each sample draws points u, v, w from the ball and a unit direction q,
    then accumulates the min/max of the relevant norm ratios. Samples whose
    A^{-1} application trips the operator guard are skipped and counted.
    Draws are consumed in a fixed per-sample order, so for a fixed seed a
    longer run extends a shorter one sample for sample.
    """
    if sample_count < 10:
        raise ValueError("sample_count must be at least 10")
    op = p.operator
    rng = np.random.default_rng(seed)
    c0_lower = np.inf
    c0_upper = -np.inf
    c_iso = -np.inf
    c_lip = -np.inf
    used = 0
    skipped = 0
    for _ in range(sample_count):
        u = sample_in_ball(rng, p.U, p.R, p.a)
        v = sample_in_ball(rng, p.U, p.R, p.a)
        w = sample_in_ball(rng, p.U, p.R, p.a)
        q = unit_direction(rng, p.U.n, p.a)
        try:
            q_norm = sobolev_norm(q, p.a)
            a_u_q = op.apply_derivative(u, q)
            two_sided = sobolev_norm(a_u_q, p.a + p.delta) / q_norm
            iso = sobolev_norm(
                op.solve_derivative(v, op.apply_derivative(w, q)), p.a) / q_norm
            diff = a_u_q - op.apply_derivative(v, q)
            lip = sobolev_norm(op.solve_derivative(u, diff), p.a) / (
                ball_distance(u, v, p.a) * q_norm)
        except DegenerateCoefficient:
            skipped += 1
            continue
        c0_lower = min(c0_lower, two_sided)
        c0_upper = max(c0_upper, two_sided)
        c_iso = max(c_iso, iso)
        c_lip = max(c_lip, lip)
        used += 1
    if used == 0:
        raise EstimationError(f"all {sample_count} samples tripped the operator guard")
    return ConstantsReport(
        c0_lower=float(c0_lower),
        c0_upper=float(c0_upper),
        c_iso=float(c_iso),
        c_lip=float(c_lip),
        rho0=rho_max(p.R, float(c0_lower), float(c0_upper)),
        radius=p.R,
        sample_count=sample_count,
        seed=seed,
        skipped=skipped,
    )


def admissibility_check(p: ProblemSetup, u0: GridFunction, h: GridFunction,
                        report: ConstantsReport) -> AdmissibilityVerdict:
    """Check whether (u0, h) lies within the admissibility budget.

    The effective perturbation is the larger of ||u0 - U||_a and
    ||h - f||_{a+delta}; the pair is admissible when it stays within rho0.
    The drift bound r uses the measured initial residual, which is sharper
    than its analytic cap, and ``radius_ok`` reports whether the working
    radius covers drift plus perturbation.
    """
    dist_u0 = ball_distance(u0, p.U, p.a)
    dist_h = ball_distance(h, p.f, p.a + p.delta)
    g0 = residual(p, u0, h)
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
