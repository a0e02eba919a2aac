"""Time integration of the Newton flow and residual-decay analysis.

The flow ``du/dt = -A(u)^{-1}(F(u) - h)`` drives the residual
``g(t) = ||F(u(t)) - h||_{a+delta}`` down like exp(-t); the integrator here
tracks that rate with fixed-step explicit schemes and records the trajectory
for later verification of the decay and drift bounds.

Failure modes (leaving the working ball, degenerate division coefficient)
are recorded in ``Trajectory.stop_reason`` rather than raised: experiments
need to witness both the guarantee inside the admissible region and its
breakdown outside.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .operators import DegenerateCoefficient, ProblemSetup, dsm_vector_field
from .sampling import sample_in_ball
from .scale import (
    GridFunction,
    _write_csv_rows,
    ball_distance,
    require_same_grid,
    sobolev_norm,
)

STOP_CONVERGED = "converged"
STOP_HORIZON = "horizon"
STOP_BALL_EXIT = "ball_exit"
STOP_DEGENERATE = "degenerate"

SCHEMES = ("euler", "rk4")

# Samples with g at or below this floor are ignored by decay_fit.
NOISE_FLOOR = 1e-12


@dataclass(frozen=True)
class FlowConfig:
    """Integration parameters for one flow solve.

    Defaults: rk4 at dt = 0.05 tracks the unit decay rate to ~1e-8 per unit
    time, and t_max = 30 leaves exp(-30) ~ 1e-13 of headroom below any
    realistic stopping tolerance.
    """

    scheme: str = "rk4"
    dt: float = 0.05
    t_max: float = 30.0
    eps_rel: float = 0.0
    eps_abs: float = 1e-8
    record_stride: int = 1
    enforce_ball: bool = False

    def __post_init__(self) -> None:
        for name in ("dt", "t_max", "eps_rel", "eps_abs"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}, expected one of {SCHEMES}")
        if not 0.0 < self.dt <= 0.5:
            raise ValueError("dt must lie in (0, 0.5] to track the decay rate")
        if not 0.0 <= self.eps_rel < 1.0:
            raise ValueError("eps_rel must lie in [0, 1)")
        if self.eps_abs < 0.0:
            raise ValueError("eps_abs must be nonnegative")
        if self.t_max < self.dt:
            raise ValueError("t_max must be at least one step")
        if self.record_stride < 1:
            raise ValueError("record_stride must be a positive integer")


@dataclass(frozen=True)
class TrajectorySample:
    t: float
    g: float
    dist_u0: float
    dist_U: float


@dataclass(frozen=True)
class Trajectory:
    """Recorded flow history plus the final iterate.

    ``recorded_u`` keeps the iterate at each recorded sample so drift bounds
    against the limit can be re-checked after the fact; ``a`` is the scale
    index those distances are measured in.
    """

    samples: tuple[TrajectorySample, ...]
    recorded_u: tuple[GridFunction, ...]
    final_u: GridFunction
    final_t: float
    stop_reason: str
    a: int

    @property
    def g0(self) -> float:
        return self.samples[0].g

    @property
    def g_final(self) -> float:
        return self.samples[-1].g


def residual(p: ProblemSetup, u: GridFunction, h: GridFunction) -> float:
    """Residual ||F(u) - h|| measured in the image norm H_{a+delta}."""
    require_same_grid(u, h)
    return sobolev_norm(p.operator.eval(u) - h, p.a + p.delta)


def euler_step(p: ProblemSetup, u: GridFunction, h: GridFunction, dt: float) -> GridFunction:
    """One explicit Euler step; with dt = 1 this is one Newton step."""
    return u + dt * dsm_vector_field(p, u, h)


def rk4_step(p: ProblemSetup, u: GridFunction, h: GridFunction, dt: float) -> GridFunction:
    k1 = dsm_vector_field(p, u, h)
    k2 = dsm_vector_field(p, u + (dt / 2.0) * k1, h)
    k3 = dsm_vector_field(p, u + (dt / 2.0) * k2, h)
    k4 = dsm_vector_field(p, u + dt * k3, h)
    return u + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


_STEPPERS = {"euler": euler_step, "rk4": rk4_step}


def integrate_flow(p: ProblemSetup, u0: GridFunction, h: GridFunction,
                   cfg: FlowConfig | None = None) -> Trajectory:
    """Integrate the Newton flow from u0 until convergence or failure.

    Stops with reason ``converged`` when g <= eps_rel * g(0) + eps_abs,
    ``horizon`` at t_max, ``ball_exit`` when ``enforce_ball`` is set and the
    iterate leaves the setup's ball, and ``degenerate`` when the operator
    guard trips or the residual stops being finite. Admissibility is not
    enforced here: callers may deliberately start outside the guaranteed
    region to observe the failure modes.
    """
    cfg = cfg or FlowConfig()
    require_same_grid(u0, p.U)
    require_same_grid(h, p.f)
    step = _STEPPERS[cfg.scheme]

    g0 = residual(p, u0, h)
    threshold = cfg.eps_rel * g0 + cfg.eps_abs
    samples = [TrajectorySample(0.0, g0, 0.0, ball_distance(u0, p.U, p.a))]
    recorded = [u0]
    if g0 <= threshold:
        return Trajectory(tuple(samples), tuple(recorded), u0, 0.0, STOP_CONVERGED, p.a)

    u = u0
    t = 0.0
    stop = STOP_HORIZON
    n_steps = max(1, int(round(cfg.t_max / cfg.dt)))
    for k in range(1, n_steps + 1):
        try:
            u_next = step(p, u, h, cfg.dt)
            g = residual(p, u_next, h)
        except DegenerateCoefficient:
            stop = STOP_DEGENERATE
            break
        if not math.isfinite(g):
            stop = STOP_DEGENERATE
            break
        t = k * cfg.dt
        u = u_next
        dist_U = ball_distance(u, p.U, p.a)
        converged = g <= threshold
        exited = cfg.enforce_ball and dist_U > p.R
        if k % cfg.record_stride == 0 or converged or exited or k == n_steps:
            samples.append(TrajectorySample(t, g, ball_distance(u, u0, p.a), dist_U))
            recorded.append(u)
        if converged:
            stop = STOP_CONVERGED
            break
        if exited:
            stop = STOP_BALL_EXIT
            break
    return Trajectory(tuple(samples), tuple(recorded), u, t, stop, p.a)


def decay_fit(traj: Trajectory) -> tuple[float, float]:
    """Least-squares slope of log g(t) against t, with the fit's r-squared.

    The first and last recorded samples and everything at or below the noise
    floor are excluded: startup transients and the floating-point tail would
    bias the slope.
    """
    usable = [(s.t, s.g) for s in traj.samples[1:-1] if s.g > NOISE_FLOOR]
    if len(usable) < 10:
        raise ValueError(
            f"decay fit needs at least 10 interior samples above {NOISE_FLOOR:g}, "
            f"got {len(usable)}"
        )
    t = np.array([s[0] for s in usable])
    logg = np.log([s[1] for s in usable])
    slope, intercept = np.polyfit(t, logg, 1)
    pred = slope * t + intercept
    ss_res = float(np.sum((logg - pred) ** 2))
    ss_tot = float(np.sum((logg - np.mean(logg)) ** 2))
    r_squared = 1.0 - ss_res / ss_tot if ss_tot > 0.0 else 1.0
    return float(slope), r_squared


@dataclass(frozen=True)
class BoundViolation:
    index: int
    t: float
    kind: str  # "drift" (distance to u0) or "tail" (distance to the limit)
    value: float
    limit: float


def verify_trajectory_bounds(traj: Trajectory, r: float,
                             tol: float = 0.05) -> list[BoundViolation]:
    """Check the drift and tail bounds along a converged trajectory.

    At every recorded sample, the distance to u0 must stay within r and the
    distance to the limit (identified with final_u) within r * exp(-t), both
    with fractional slack ``tol``. Returns the violating samples; an empty
    list is a pass.
    """
    if traj.stop_reason != STOP_CONVERGED:
        raise ValueError(f"need a converged trajectory, got {traj.stop_reason!r}")
    violations: list[BoundViolation] = []
    for i, s in enumerate(traj.samples):
        drift_limit = r * (1.0 + tol)
        if s.dist_u0 > drift_limit:
            violations.append(BoundViolation(i, s.t, "drift", s.dist_u0, drift_limit))
        tail = ball_distance(traj.recorded_u[i], traj.final_u, traj.a)
        tail_limit = r * math.exp(-s.t) * (1.0 + tol)
        if tail > tail_limit:
            violations.append(BoundViolation(i, s.t, "tail", tail, tail_limit))
    return violations


@dataclass(frozen=True)
class LipschitzProbeReport:
    """Sampled Lipschitz behaviour of the flow's vector field on the ball.

    ``max_ratio`` is the largest observed ||Phi(u) - Phi(v)|| / ||u - v||;
    ``max_split_ratio`` bounds it through the triangle-inequality splitting
    into the resolvent-difference and forward-difference terms.
    """

    max_ratio: float
    max_split_ratio: float
    pairs_used: int
    skipped: int


def pair_lipschitz_ratio(p: ProblemSetup, u: GridFunction, v: GridFunction,
                         h: GridFunction) -> tuple[float, float] | None:
    """Direct and split Lipschitz ratios for one pair, or None if skipped.

    A pair is skipped when the denominator vanishes or the operator guard
    rejects one of the points.
    """
    denom = ball_distance(u, v, p.a)
    if denom < 1e-14:
        return None
    op = p.operator
    try:
        direct = sobolev_norm(dsm_vector_field(p, u, h) - dsm_vector_field(p, v, h), p.a)
        resid_u = op.eval(u) - h
        i1 = sobolev_norm(op.solve_derivative(u, resid_u) - op.solve_derivative(v, resid_u), p.a)
        i2 = sobolev_norm(op.solve_derivative(v, op.eval(u) - op.eval(v)), p.a)
    except DegenerateCoefficient:
        return None
    return direct / denom, (i1 + i2) / denom


def lipschitz_probe(p: ProblemSetup, h: GridFunction, sample_count: int = 200,
                    seed: int = 0) -> LipschitzProbeReport:
    """Max Lipschitz ratio of the vector field over random pairs in the ball."""
    rng = np.random.default_rng(seed)
    max_ratio = 0.0
    max_split = 0.0
    used = 0
    skipped = 0
    for _ in range(sample_count):
        u = sample_in_ball(rng, p.U, p.R, p.a)
        v = sample_in_ball(rng, p.U, p.R, p.a)
        ratios = pair_lipschitz_ratio(p, u, v, h)
        if ratios is None:
            skipped += 1
            continue
        max_ratio = max(max_ratio, ratios[0])
        max_split = max(max_split, ratios[1])
        used += 1
    if used == 0:
        raise RuntimeError("every sampled pair was skipped")
    return LipschitzProbeReport(max_ratio, max_split, used, skipped)


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """Write recorded samples as `t,g,dist_u0,dist_U` rows."""
    _write_csv_rows(path, ["t", "g", "dist_u0", "dist_U"],
                    ((s.t, s.g, s.dist_u0, s.dist_U) for s in traj.samples))
