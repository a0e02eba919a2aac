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
from .scale import (
    GridFunction,
    _distance,
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

# Most steps one solve may ask for (t_max / dt); the defaults take 600.
MAX_STEPS = 100_000


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
        if self.t_max / self.dt > MAX_STEPS + 0.5:  # rounds to more steps
            raise ValueError(
                f"t_max {self.t_max!r} / dt {self.dt!r} asks for "
                f"{self.t_max / self.dt:.3g} steps, more than {MAX_STEPS}"
            )
        if self.record_stride < 1:
            raise ValueError("record_stride must be a positive integer")

    @property
    def steps(self) -> int:
        """Number of steps from t = 0 to t_max."""
        return max(1, round(self.t_max / self.dt))


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
    return _residual_field(p, u, h)[1]


def _residual_field(p: ProblemSetup, u: GridFunction,
                    h: GridFunction) -> tuple[GridFunction, float]:
    """F(u) - h together with its H_{a+delta} norm, for u and h on one grid."""
    r = GridFunction._trusted(p.operator._eval(u.values) - h.values)
    return r, sobolev_norm(r, p.a + p.delta)


def euler_step(p: ProblemSetup, u: GridFunction, h: GridFunction, dt: float,
               k1: GridFunction | None = None) -> GridFunction:
    """One explicit Euler step; with dt = 1 this is one Newton step.

    ``k1``, when given, is the velocity at u, as ``dsm_vector_field`` would
    compute it.
    """
    if k1 is None:
        k1 = dsm_vector_field(p, u, h)
    return GridFunction._trusted(u.values + dt * k1.values)


def rk4_step(p: ProblemSetup, u: GridFunction, h: GridFunction, dt: float,
             k1: GridFunction | None = None) -> GridFunction:
    """One classical Runge-Kutta step; ``k1`` as in ``euler_step``.

    The stage points and the final combination are formed on the value
    arrays, in the order u + (dt / 6) * (k1 + 2 k2 + 2 k3 + k4).
    """
    if k1 is None:
        k1 = dsm_vector_field(p, u, h)
    u, k1 = u.values, k1.values
    k2 = dsm_vector_field(p, GridFunction._trusted(u + (dt / 2.0) * k1), h).values
    k3 = dsm_vector_field(p, GridFunction._trusted(u + (dt / 2.0) * k2), h).values
    k4 = dsm_vector_field(p, GridFunction._trusted(u + dt * k3), h).values
    return GridFunction._trusted(u + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4))


_STEPPERS = {"euler": euler_step, "rk4": rk4_step}


def integrate_flow(p: ProblemSetup, u0: GridFunction, h: GridFunction,
                   cfg: FlowConfig | None = None) -> Trajectory:
    """Integrate the Newton flow from u0 until convergence or failure.

    Stops with reason ``converged`` when g <= eps_rel * g(0) + eps_abs,
    ``horizon`` at t_max, ``ball_exit`` when ``enforce_ball`` is set and the
    iterate leaves the setup's ball, and ``degenerate`` when the operator
    guard trips or the residual stops being finite. Admissibility is not
    enforced here: callers may deliberately start outside the guaranteed
    region to observe the failure modes. A non-finite g(0) raises
    ``ValueError``: the data overflow before the flow starts.

    Every accepted iterate has a finite residual, and so finite values. The
    residual F(u) - h of each accepted step also gives the next step's
    stage-one velocity -A(u)^{-1}(F(u) - h), so F is evaluated once less per
    step with the same arithmetic. The loop runs on value arrays; only each
    step's iterate is wrapped, as the ``GridFunction`` the trajectory records.
    """
    cfg = cfg or FlowConfig()
    require_same_grid(u0, p.U)
    require_same_grid(h, p.f)
    step = _STEPPERS[cfg.scheme]

    r, g0 = _residual_field(p, u0, h)
    if not math.isfinite(g0):
        raise ValueError(f"initial residual g(0) is not finite: {g0!r}")
    threshold = cfg.eps_rel * g0 + cfg.eps_abs
    U, start = p.U.values, u0.values
    samples = [TrajectorySample(0.0, g0, 0.0, _distance(start, U, p.a))]
    recorded = [u0]
    if g0 <= threshold:
        return Trajectory(tuple(samples), tuple(recorded), u0, 0.0, STOP_CONVERGED, p.a)

    u = u0
    t = 0.0
    stop = STOP_HORIZON
    n_steps = cfg.steps
    for k in range(1, n_steps + 1):
        try:
            u_next = step(p, u, h, cfg.dt, -p.operator.solve_derivative(u, r))
            r, g = _residual_field(p, u_next, h)
        except DegenerateCoefficient:
            stop = STOP_DEGENERATE
            break
        if not math.isfinite(g):
            stop = STOP_DEGENERATE
            break
        t = k * cfg.dt
        u = u_next
        dist_U = _distance(u.values, U, p.a)
        converged = g <= threshold
        exited = cfg.enforce_ball and dist_U > p.R
        if k % cfg.record_stride == 0 or converged or exited or k == n_steps:
            samples.append(TrajectorySample(t, g, _distance(u.values, start, p.a), dist_U))
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


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """Write recorded samples as `t,g,dist_u0,dist_U` rows."""
    _write_csv_rows(path, ["t", "g", "dist_u0", "dist_U"],
                    ((s.t, s.g, s.dist_u0, s.dist_U) for s in traj.samples))
