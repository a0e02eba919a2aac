"""Time integration of the Newton flow and residual-decay analysis.

The flow ``du/dt = A(u)^{-1}(h - F(u))`` drives the residual
``g(t) = ||F(u(t)) - h||_{a+delta}`` down like exp(-t); the integrator here
tracks that rate with explicit schemes, doubling the RK4 step while the
error estimate of its embedded third-order pair stays small against g, and
records the trajectory for later verification of the decay and drift bounds.

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
    Workspace,
    _derivative,
    _differenced,
    _norm,
    _require_one,
    _term_block,
    _write_csv_rows,
    require_same_grid,
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

# The next RK4 step doubles while the last step's local error estimate is
# at most this times its g; otherwise it halves. A negative value keeps every
# step at dt.
GROW_TOL = 1e-3

# Longest step: at dt = 1 an Euler step is a Newton step.
DT_MAX = 1.0


@dataclass(frozen=True)
class FlowConfig:
    """Integration parameters for one flow solve.

    The first step is dt. Each later RK4 step starts from the velocity k1'
    at the iterate the last step, of s, accepted. That is the last stage
    of RK4's embedded third-order companion (first same as last), u + s(k1
    + 2k2 + 2k3 + k1') / 6, so est = (s / 6) ||k4 - k1'|| estimates the last
    step's local error at no extra cost. The next step is 2s (at most the
    time left and the most whole steps of dt that 1 / dt rounds down to,
    see ``DT_MAX``) while est <= ``GROW_TOL`` * g_k, and s / 2 otherwise,
    never below dt. est is an L2 norm: in H1 the rounding in k4 - k1'
    swamps it on fine grids (59 steps instead of 31 on the canonical solve
    at n = 20001). Euler has no embedded pair, so its steps stay at dt. A
    step longer than dt that trips the operator guard, gives a non-finite g
    or one that does not fall, or leaves the ball under ``enforce_ball`` is
    retaken at dt from the same iterate, so the ``degenerate`` and
    ``ball_exit`` stops are decided at dt. Every step is a whole number of
    dt, and so is every time; no run passes t_max (see ``steps``).

    Defaults: rk4 at dt = 0.05 tracks the unit decay rate to ~1e-8 per unit
    time; on the canonical solve the steps grow to 0.8 and alternate
    between 0.4 and 0.8, 31 steps at n = 201, 2001 and 20001. Where g
    stalls, the estimate stays small and the steps grow to 1. t_max = 30
    leaves exp(-30) ~ 1e-13 of headroom below any realistic stopping
    tolerance.
    """

    scheme: str = "rk4"
    dt: float = 0.05
    t_max: float = 30.0
    eps_rel: float = 0.0
    eps_abs: float = 1e-8
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
        quotient = self.t_max / self.dt  # inf at dt = 5e-324: test it before the floor
        if quotient > MAX_STEPS + 1 or self.steps > MAX_STEPS:
            raise ValueError(
                f"t_max {self.t_max!r} / dt {self.dt!r} asks for "
                f"{quotient:.3g} steps, more than {MAX_STEPS}"
            )

    @property
    def steps(self) -> int:
        """Whole steps of dt in t_max, less 1e-12 of rounding (0.3 / 0.1 is 3)."""
        return math.floor(self.t_max / self.dt * (1.0 + 1e-12))


@dataclass(frozen=True)
class TrajectorySample:
    t: float
    g: float
    dist_u0: float
    dist_U: float


@dataclass(frozen=True)
class Trajectory:
    """Recorded flow history: a sample and an iterate at t = 0 and after
    each accepted step. The run ends at its last record, which gives
    ``final_u``, ``final_t``, ``g_final`` and ``steps``.

    ``recorded_u`` keeps the iterate of each sample so drift bounds against
    the limit can be re-checked after the fact; ``a`` is the scale index
    those distances are measured in. Each sample's ``dist_u0`` and
    ``dist_U`` equal ``ball_distance`` of its iterate from u0 and U, bit
    for bit. ``vf_evals`` counts the velocities of the steps that ran all
    their stages, accepted or retaken at dt (four per RK4 step, one per
    Euler step); a step the operator guard stopped, and the step that
    stopped the flow, count none.
    ``decay_ratio`` is the last accepted step's g_k / g_{k-1} over
    exp(-dt_k), a diagnostic the step size does not read: 1 on the exact
    flow, above 1 where g stalls; None when no step was accepted.
    """

    samples: tuple[TrajectorySample, ...]
    recorded_u: tuple[GridFunction, ...]
    stop_reason: str
    a: int
    vf_evals: int = 0
    decay_ratio: float | None = None

    @property
    def final_u(self) -> GridFunction:
        return self.recorded_u[-1]

    @property
    def final_t(self) -> float:
        return self.samples[-1].t

    @property
    def steps(self) -> int:
        return len(self.samples) - 1

    @property
    def g0(self) -> float:
        return self.samples[0].g

    @property
    def g_final(self) -> float:
        return self.samples[-1].g


def residual(p: ProblemSetup, u: GridFunction, h: GridFunction) -> float:
    """Residual ||F(u) - h|| measured in the image norm H_{a+delta}."""
    return _residual(p, u.values, h.values, Workspace.of(u, h))


def _residual(p: ProblemSetup, u: np.ndarray, h: np.ndarray, ws: Workspace):
    """``residual`` on values, with h - F(u) left in ``ws.res`` row 0, whose
    A(u)^{-1} is the flow's velocity, and its derivative D(h - F(u)), which
    that A(u)^{-1} divides, in row 1 (a + delta >= 1, see ``ProblemSetup``)."""
    res = ws.res
    r = res.rows[0]
    np.subtract(h, p.operator._eval(u, r, ws), r.values)
    return _norm(res, p.a + p.delta, ws.dx, ws.sq.values)


def _distance(u: np.ndarray, v: np.ndarray, a: int, ws: Workspace):
    """``ball_distance`` on values, in the workspace's ``gap``."""
    gap = ws.gap
    np.subtract(u, v, gap.rows[0].values)
    return _norm(gap, a, ws.dx, gap.values)


def _distances(points, center: np.ndarray, a: int, ws: Workspace) -> list[float]:
    """``ball_distance`` from ``center`` of each value array in ``points``,
    rows = max(1, ``BLOCK_ELEMENTS`` // n) of them at a time, in
    ``ws.dif``, so no call allocates scratch. A block of several rows is
    copied into ``ws.dif[0]`` by one ``np.concatenate`` into the flattened
    rows, differenced by one broadcast subtraction and measured by one
    ``_norm``, which squares its terms in place; the last block takes only
    the rows it has left, the first ones of ``ws.dif``. Where ``ws.dif``
    has one row (n >= 8193), each distance is a ``_distance`` in
    ``ws.gap``, that row. The kernels work row by row, so each distance
    equals that of its point alone, bit for bit."""
    rows = ws.dif.shape[1]
    if rows == 1:
        return [_distance(point, center, a, ws) for point in points]
    flat = ws.dif[0].reshape(-1)  # a view, as ``ws.dif`` is C-contiguous
    dist = []
    for start in range(0, len(points), rows):
        block = points[start:start + rows]
        terms = _term_block(ws.dif[:, :len(block)])
        diff = terms.values[0]
        np.concatenate(block, out=flat[:diff.size])
        np.subtract(diff, center, diff)
        dist.extend(_norm(terms, a, ws.dx, terms.values).tolist())
    return dist


def euler_step(p: ProblemSetup, u, h, dt: float, ws: Workspace | None = None):
    """One explicit Euler step, u + dt k1; with dt = 1 this is one Newton
    step.

    ``integrate_flow`` passes its workspace: then u and h are value arrays,
    ``ws.k1`` holds the velocity A(u)^{-1}(h - F(u)), ``ws.dh`` the
    derivative D h that RK4's later stage velocities read, and the new
    iterate is returned as a fresh array. Without one, u and h are grid
    functions, and k1 is computed first, as ``integrate_flow`` computes it,
    in a workspace of the step's own (see ``_stage_one``); a public RK4 step
    derives D h there too.
    """
    public = ws is None
    if public:
        u, h, ws = _stage_one(p, u, h)
    u_next = np.add(u, np.multiply(ws.k1.values, dt, ws.stage))
    return GridFunction._trusted(u_next) if public else u_next


def rk4_step(p: ProblemSetup, u, h, dt: float, ws: Workspace | None = None):
    """One classical Runge-Kutta step; ``ws`` as in ``euler_step``.

    The stage points and the final combination are computed in the
    workspace, in the order u + (dt / 6) * (k1 + 2 k2 + 2 k3 + k4), the sum
    built up in ``ws.k1`` as each stage velocity arrives in ``ws.k2``. k1
    is A(u)^{-1} of the residual h - F(u); k2, k3 and k4 come from
    ``dsm_vector_field``, which needs D h but no F.
    """
    public = ws is None
    if public:
        u, h, ws = _stage_one(p, u, h)
        _derivative(_differenced(h), ws.dx, ws.dh)  # D h, for k2, k3 and k4
    k, total, stage = ws.k2, ws.k1.values, ws.stage
    kv = k.values
    np.add(u, np.multiply(total, dt / 2.0, stage), stage)   # u + dt/2 k1
    dsm_vector_field(p, stage, h, ws, k)                    # k2
    np.add(u, np.multiply(kv, dt / 2.0, stage), stage)      # u + dt/2 k2
    kv *= 2.0
    total += kv                                             # k1 + 2 k2
    dsm_vector_field(p, stage, h, ws, k)                    # k3
    np.add(u, np.multiply(kv, dt, stage), stage)            # u + dt k3
    kv *= 2.0
    total += kv                                             # ... + 2 k3
    dsm_vector_field(p, stage, h, ws, k)                    # k4
    total += kv
    total *= dt / 6.0
    u_next = np.add(u, total)
    return GridFunction._trusted(u_next) if public else u_next


_STEPPERS = {"euler": euler_step, "rk4": rk4_step}
_VELOCITIES_PER_STEP = {"euler": 1, "rk4": 4}


def _stage_one(p: ProblemSetup, u: GridFunction, h: GridFunction):
    """The values of u and h and a workspace of their own, holding k1 as
    ``integrate_flow`` computes it, for a public step. The residual h - F(u)
    and its derivative D(h - F(u)) go where ``_residual`` leaves them, but
    no norm is taken, as a step reads none."""
    ws = Workspace.of(u, h)
    uv, hv = u.values, h.values
    r, slope = ws.res.rows[:2]
    np.subtract(hv, p.operator._eval(uv, r, ws), r.values)
    _derivative(r, ws.dx, slope)
    p.operator.solve_derivative(uv, slope, ws, ws.k1)
    return uv, hv, ws


def integrate_flow(p: ProblemSetup, u0: GridFunction, h: GridFunction,
                   cfg: FlowConfig | None = None) -> Trajectory:
    """Integrate the Newton flow from u0 until convergence or failure.

    Stops with reason ``converged`` when g <= eps_rel * g(0) + eps_abs,
    ``horizon`` at t_max, ``ball_exit`` when ``enforce_ball`` is set and the
    iterate leaves the setup's ball, and ``degenerate`` when the operator
    guard trips or the residual stops being finite. Admissibility is not
    enforced here: callers may deliberately start outside the guaranteed
    region to observe the failure modes. A non-finite g(0) raises
    ``ValueError``: the data overflow before the flow starts. So does a
    batch of functions, shape (rows, n), passed as u0 or h.

    Every accepted iterate has a finite residual, and so finite values. The
    residual h - F(u) of each accepted step also gives the next step's
    stage-one velocity A(u)^{-1}(h - F(u)): g's norm takes the derivative
    D(h - F(u)) in ``ws.res`` row 1, and the operator's
    ``solve_derivative``, handed it, only divides it, so a step takes that
    derivative once, not twice. RK4's later stage velocities are computed
    from D h, derived once per flow whatever the scheme, and D F(u), which
    needs no integral (see ``dsm_vector_field``). So F is evaluated once
    per accepted step, for g; a step retaken at dt (see
    ``FlowConfig``) evaluates it once more. The stage-one velocity is
    computed before the step's size is chosen, and the error estimate that
    chooses it costs one difference and one L2 norm; a guard trip there
    stops the flow ``degenerate``.
    Everything runs in one ``Workspace``: the only array each step allocates
    is its new iterate, which the trajectory records with its sample; the
    last record is where the run ended. The workspace binds the slices its
    kernels read once per array, and the loop reads the views each step
    uses (D(h - F(u)), k1, k2 and ``gap``) once, before its first step: a
    step takes no slice.

    The steps measure no distance, but under ``enforce_ball``, where each
    step's distance to U decides ``ball_exit``. Once the run has ended, the
    ``dist_u0`` column, and the ``dist_U`` column when the ball is not
    enforced, are taken over the recorded iterates in blocks of
    max(1, ``BLOCK_ELEMENTS`` // n) rows (40 at n = 201, 4 at n = 2001, 1
    at n = 20001), in the workspace's (3, rows, n) block ``dif``, whose row
    0 the steps use; the last block fills only the rows it has left (see
    ``_distances``). A flow started at U itself (the same array) takes one
    column and reports it as both.
    """
    cfg = cfg or FlowConfig()
    _require_one(u0=u0, h=h)
    require_same_grid(u0, p.U)
    require_same_grid(h, p.f)
    step = _STEPPERS[cfg.scheme]
    solve = p.operator.solve_derivative
    ws = Workspace(u0.values.shape)
    a, hv, U, start = p.a, h.values, p.U.values, u0.values
    _derivative(_differenced(hv), ws.dx, ws.dh)
    # the workspace arrays each step reads, with their bound views
    slope, k1, gap = ws.res.rows[1], ws.k1, ws.gap
    k1_values, k2_values, gap_values = k1.values, ws.k2.values, gap.rows[0].values

    g0 = _residual(p, start, hv, ws)
    if not math.isfinite(g0):
        raise ValueError(f"initial residual g(0) is not finite: {g0!r}")
    threshold = cfg.eps_rel * g0 + cfg.eps_abs
    times, gs, recorded = [0.0], [g0], [u0]
    # under enforce_ball, dist_U decides ball_exit step by step
    dist_U = [_distance(start, U, a, ws)] if cfg.enforce_ball else None

    u, g_prev = start, g0
    ratio = None
    retaken = 0
    done = 0  # steps of dt taken: the time is done * cfg.dt
    units = 1
    estimate = False  # ws.k2 holds the k4 of the step just accepted
    stop = STOP_HORIZON
    n_steps, max_units = cfg.steps, int(DT_MAX / cfg.dt)
    if g0 <= threshold:
        stop, n_steps = STOP_CONVERGED, 0
    while done < n_steps:
        try:
            # k1 divides D(h - F(u)), which g's norm has just taken
            solve(u, slope, ws, k1)
        except DegenerateCoefficient:
            stop = STOP_DEGENERATE
            break
        if estimate:
            # k1 at u is the last step's FSAL stage: its local error is about
            # (s / 6) ||k4 - k1||, measured in L2 (see FlowConfig)
            np.subtract(k2_values, k1_values, gap_values)
            if size / 6.0 * _norm(gap, 0, ws.dx, gap.values) <= GROW_TOL * g_prev:
                units = min(2 * units, max_units)
            else:
                units = max(units // 2, 1)
        units = min(units, n_steps - done)
        size = units * cfg.dt
        try:
            u_next = step(p, u, hv, size, ws)
            g = _residual(p, u_next, hv, ws)
        except DegenerateCoefficient:
            u_next, g = None, math.nan
        failed = not math.isfinite(g)
        exited = False
        if cfg.enforce_ball and not failed:
            dist_next = _distance(u_next, U, a, ws)
            exited = dist_next > p.R
        if units > 1 and (failed or g >= g_prev or exited):
            retaken += u_next is not None
            units = 1
            estimate = False
            _residual(p, u, hv, ws)  # D(h - F(u)) again, for the retaken step's k1
            continue
        if failed:
            stop = STOP_DEGENERATE
            break
        ratio = g / g_prev * math.exp(size)
        done += units
        estimate = cfg.scheme == "rk4"  # Euler has no embedded error estimate
        u, g_prev = u_next, g
        times.append(done * cfg.dt)
        gs.append(g)
        recorded.append(GridFunction._trusted(u))
        if cfg.enforce_ball:
            dist_U.append(dist_next)
        if g <= threshold:
            stop = STOP_CONVERGED
            break
        if exited:
            stop = STOP_BALL_EXIT
            break

    # the other distance columns decide nothing, so they are taken in blocks
    points = [f.values for f in recorded]
    if dist_U is None:
        dist_U = _distances(points, U, a, ws)
    # from u0 = U, as the CLI starts without --u0-file, the columns are equal
    dist_u0 = dist_U if start is U else _distances(points, start, a, ws)
    samples = map(TrajectorySample, times, gs, dist_u0, dist_U)
    return Trajectory(tuple(samples), tuple(recorded), stop, a,
                      (len(times) - 1 + retaken) * _VELOCITIES_PER_STEP[cfg.scheme], ratio)


def decay_fit(traj: Trajectory) -> tuple[float, float]:
    """Least-squares slope of log g(t) against t, with the fit's r-squared.

    The first and last recorded samples and everything at or below the noise
    floor are excluded: startup transients and the floating-point tail would
    bias the slope.
    """
    usable = [s for s in traj.samples[1:-1] if s.g > NOISE_FLOOR]
    if len(usable) < 10:
        raise ValueError(
            f"decay fit needs at least 10 interior samples above {NOISE_FLOOR:g}, "
            f"got {len(usable)}"
        )
    # the least-squares line in closed form, from sums centred on the means
    t = [float(s.t) for s in usable]
    logg = [math.log(s.g) for s in usable]
    t_mean, logg_mean = sum(t) / len(t), sum(logg) / len(logg)
    dt = [ti - t_mean for ti in t]
    dlog = [yi - logg_mean for yi in logg]
    slope = sum(a * b for a, b in zip(dt, dlog)) / sum(a * a for a in dt)
    ss_res = sum((b - slope * a) ** 2 for a, b in zip(dt, dlog))
    ss_tot = sum(b * b for b in dlog)
    r_squared = 1.0 - ss_res / ss_tot if ss_tot > 0.0 else 1.0
    return slope, r_squared


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
    list is a pass. The distances to the limit are taken in blocks, as
    ``integrate_flow`` takes its distance columns, in the (3, rows, n)
    ``dif`` of a ``Workspace`` of their own. A negative or non-finite r or
    tol raises ``ValueError``, as no distance would fail a NaN bound; r = 0
    is a bound, the one of a start at the solution.
    """
    for name, value in (("r", r), ("tol", tol)):
        if not (math.isfinite(value) and value >= 0.0):
            raise ValueError(f"{name} must be nonnegative and finite, got {value!r}")
    if traj.stop_reason != STOP_CONVERGED:
        raise ValueError(f"need a converged trajectory, got {traj.stop_reason!r}")
    points = [f.values for f in traj.recorded_u]
    tails = _distances(points, points[-1], traj.a, Workspace(points[-1].shape))
    violations: list[BoundViolation] = []
    for i, (s, tail) in enumerate(zip(traj.samples, tails)):
        drift_limit = r * (1.0 + tol)
        if s.dist_u0 > drift_limit:
            violations.append(BoundViolation(i, s.t, "drift", s.dist_u0, drift_limit))
        tail_limit = r * math.exp(-s.t) * (1.0 + tol)
        if tail > tail_limit:
            violations.append(BoundViolation(i, s.t, "tail", tail, tail_limit))
    return violations


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """Write recorded samples as `t,g,dist_u0,dist_U` rows."""
    _write_csv_rows(path, ["t", "g", "dist_u0", "dist_U"],
                    ((s.t, s.g, s.dist_u0, s.dist_U) for s in traj.samples))
