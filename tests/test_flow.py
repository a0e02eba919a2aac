import math

import numpy as np
import pytest

import dsmflow.flow as flow_module
from dsmflow.flow import (
    MAX_STEPS,
    STOP_BALL_EXIT,
    STOP_CONVERGED,
    STOP_DEGENERATE,
    STOP_HORIZON,
    FlowConfig,
    Trajectory,
    TrajectorySample,
    decay_fit,
    euler_step,
    integrate_flow,
    residual,
    rk4_step,
    verify_trajectory_bounds,
    write_trajectory_csv,
)
from dsmflow.newton_lab import newton_step
from dsmflow.operators import (
    DegenerateCoefficient,
    LinearSmoothing,
    ProblemSetup,
    QuadraticVolterra,
    dsm_vector_field,
)
from dsmflow.sampling import sample_in_ball
from dsmflow.scale import GridFunction, ball_distance, sobolev_norm

from oracles import heron_sqrt


@pytest.fixture
def setup201():
    return ProblemSetup.from_reference(
        QuadraticVolterra(), GridFunction.constant(1.0, 201), 0.05)


def scaled_linear_h(n, lam):
    x = GridFunction.constant(0.0, n).x
    return GridFunction(lam * lam * x)


# --- config validation -------------------------------------------------------

@pytest.mark.parametrize("kwargs", [
    dict(dt=0.6),
    dict(dt=0.0),
    dict(eps_rel=1.0),
    dict(eps_rel=-0.1),
    dict(eps_abs=-1e-9),
    dict(t_max=0.01, dt=0.05),
    dict(record_stride=0),
    dict(scheme="rk45"),
])
def test_flow_config_validation(kwargs):
    with pytest.raises(ValueError):
        FlowConfig(**kwargs)


@pytest.mark.parametrize("dt", [1e-300, 5e-324, 30.0 / (MAX_STEPS + 1)])
def test_flow_config_caps_the_step_count(dt):
    with pytest.raises(ValueError, match=r"^t_max 30\.0 / dt .* steps, more than"):
        FlowConfig(dt=dt, t_max=30.0)


def test_flow_config_at_the_step_cap_is_valid():
    assert FlowConfig(dt=30.0 / MAX_STEPS, t_max=30.0).steps == MAX_STEPS
    assert FlowConfig().steps == 600


# --- residual ----------------------------------------------------------------

def test_residual_zero_at_solution(setup201):
    assert residual(setup201, setup201.U, setup201.f) <= 1e-12


def test_residual_sine_perturbation_closed_form(setup201):
    x = setup201.U.x
    h = GridFunction(x + 0.1 * np.sin(np.pi * x))
    expected = 0.1 * math.sqrt((1.0 + math.pi**2 + math.pi**4) / 2.0)
    assert residual(setup201, setup201.U, h) == pytest.approx(expected, rel=2e-4)


def test_residual_constant_shift(setup201):
    h = setup201.f + 0.37
    assert residual(setup201, setup201.U, h) == pytest.approx(0.37, rel=1e-12)


# --- integration -------------------------------------------------------------

def test_flow_stops_immediately_at_solution(setup201):
    traj = integrate_flow(setup201, setup201.U, setup201.f, FlowConfig())
    assert traj.stop_reason == STOP_CONVERGED
    assert traj.final_t == 0.0
    assert len(traj.samples) == 1
    assert traj.samples[0] == TrajectorySample(0.0, 0.0, 0.0, 0.0)
    assert np.array_equal(traj.final_u.values, setup201.U.values)


def test_flow_reaches_scaled_constant_solution(setup201):
    h = scaled_linear_h(201, 1.1)
    traj = integrate_flow(setup201, setup201.U, h, FlowConfig())
    assert traj.stop_reason == STOP_CONVERGED
    target = GridFunction.constant(heron_sqrt(1.21), 201)
    assert ball_distance(traj.final_u, target, 1) <= 1e-4


def test_trajectory_time_strictly_increasing(setup201):
    h = scaled_linear_h(201, 1.1)
    traj = integrate_flow(setup201, setup201.U, h, FlowConfig(record_stride=7))
    ts = [s.t for s in traj.samples]
    assert ts[0] == 0.0
    assert all(b > a for a, b in zip(ts, ts[1:]))
    assert len(traj.recorded_u) == len(traj.samples)


def test_converged_stop_satisfies_threshold_independently(setup201):
    h = scaled_linear_h(201, 1.1)
    cfg = FlowConfig(eps_rel=1e-6, eps_abs=1e-9)
    traj = integrate_flow(setup201, setup201.U, h, cfg)
    assert traj.stop_reason == STOP_CONVERGED
    g0 = residual(setup201, setup201.U, h)
    assert residual(setup201, traj.final_u, h) <= cfg.eps_rel * g0 + cfg.eps_abs


def test_monotone_residual_along_trajectory(setup201):
    h = scaled_linear_h(201, 1.1)
    traj = integrate_flow(setup201, setup201.U, h, FlowConfig())
    gs = [s.g for s in traj.samples]
    assert all(b <= a + 1e-10 for a, b in zip(gs, gs[1:]))


def test_rk4_tracks_exact_decay_rate_per_step(setup201):
    h = scaled_linear_h(201, 1.1)
    cfg = FlowConfig()
    traj = integrate_flow(setup201, setup201.U, h, cfg)
    lo = math.exp(-cfg.dt) * (1.0 - 10.0 * cfg.dt**4)
    hi = math.exp(-cfg.dt) * (1.0 + 10.0 * cfg.dt**4)
    for a, b in zip(traj.samples, traj.samples[1:]):
        if a.g > 1e-10 and b.g > 1e-10:
            assert lo <= b.g / a.g <= hi


def test_newton_step_is_unit_euler_step(setup201):
    rng = np.random.default_rng(11)
    for _ in range(10):
        u = sample_in_ball(rng, setup201.U, 0.1, 1)
        h = setup201.f + sample_in_ball(rng, GridFunction.zeros(201), 0.05, 2)
        assert np.array_equal(newton_step(setup201, u, h).values,
                              euler_step(setup201, u, h, 1.0).values)


def test_euler_and_rk4_agree_as_dt_shrinks(setup201):
    h = scaled_linear_h(201, 1.1)
    gaps = {}
    for dt in (0.1, 0.05):
        te = integrate_flow(setup201, setup201.U, h,
                            FlowConfig(scheme="euler", dt=dt, t_max=3.0, eps_abs=0.0))
        tr = integrate_flow(setup201, setup201.U, h,
                            FlowConfig(scheme="rk4", dt=dt, t_max=3.0, eps_abs=0.0))
        gaps[dt] = ball_distance(te.final_u, tr.final_u, 1)
    assert gaps[0.1] <= 0.02 * 0.1
    assert gaps[0.05] <= 0.02 * 0.05
    assert 1.6 <= gaps[0.1] / gaps[0.05] <= 2.4


def test_ball_exit_recorded_not_raised(setup201):
    x = setup201.U.x
    h = GridFunction(x - 2.0 * x * x)  # h' crosses zero
    traj = integrate_flow(setup201, setup201.U, h, FlowConfig(enforce_ball=True))
    assert traj.stop_reason in (STOP_BALL_EXIT, STOP_DEGENERATE)


def test_degenerate_coefficient_recorded_not_raised(setup201):
    x = setup201.U.x
    h = GridFunction(x - 2.0 * x * x)
    traj = integrate_flow(setup201, setup201.U, h, FlowConfig())
    assert traj.stop_reason in (STOP_DEGENERATE, STOP_HORIZON)
    assert all(math.isfinite(s.g) for s in traj.samples)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_initial_residual_raises(setup201):
    h = scaled_linear_h(201, 1e80)  # h = 1e160 x: its H_2 norm overflows
    with pytest.raises(ValueError, match=r"g\(0\)"):
        integrate_flow(setup201, setup201.U, h, FlowConfig())


# --- work per step (exact counts, never timed) -------------------------------

def test_grid_function_checks_do_not_grow_with_steps(setup201, monkeypatch):
    calls = []
    original = GridFunction.__post_init__

    def counting(self):
        calls.append(None)
        original(self)

    h = scaled_linear_h(201, 1.1)
    monkeypatch.setattr(GridFunction, "__post_init__", counting)
    counts = {}
    for t_max in (1.0, 5.0):
        calls.clear()
        traj = integrate_flow(setup201, setup201.U, h, FlowConfig(t_max=t_max))
        assert traj.stop_reason == STOP_HORIZON
        counts[t_max] = len(calls)
    assert counts[1.0] == counts[5.0]


def test_rk4_step_reuses_the_residual_as_k1(setup201, monkeypatch):
    vf_calls = []
    eval_calls = []
    original_vf = flow_module.dsm_vector_field
    original_eval = QuadraticVolterra._eval

    def counting_vf(*args):
        vf_calls.append(None)
        return original_vf(*args)

    # F is evaluated on values by `_eval`, which the public `eval` wraps
    def counting_eval(self, u):
        eval_calls.append(None)
        return original_eval(self, u)

    monkeypatch.setattr(flow_module, "dsm_vector_field", counting_vf)
    monkeypatch.setattr(QuadraticVolterra, "_eval", counting_eval)
    h = scaled_linear_h(201, 1.1)
    traj = integrate_flow(setup201, setup201.U, h, FlowConfig(t_max=1.0))
    steps = 20
    assert traj.stop_reason == STOP_HORIZON and len(traj.samples) == steps + 1
    assert len(vf_calls) == 3 * steps
    assert len(eval_calls) == 4 * steps + 1  # one more for g(0)


@pytest.mark.parametrize("scheme, step", [("rk4", rk4_step), ("euler", euler_step)])
def test_flow_iterates_equal_a_plain_step_loop(setup201, scheme, step):
    rng = np.random.default_rng(12)
    u0 = sample_in_ball(rng, setup201.U, 0.02, 1)
    h = scaled_linear_h(201, 1.1)
    cfg = FlowConfig(scheme=scheme, t_max=1.0)
    traj = integrate_flow(setup201, u0, h, cfg)
    u = u0
    for recorded in traj.recorded_u[1:]:
        u = step(setup201, u, h, cfg.dt)
        assert np.array_equal(recorded.values, u.values)
    assert len(traj.recorded_u) == 21
    assert np.array_equal(traj.final_u.values, u.values)


# --- bit identity with GridFunction arithmetic ---------------------------------

def reference_flow(p, u0, h, cfg):
    """``integrate_flow`` written in GridFunction arithmetic: the stage
    points, the RK4 combination, each velocity -A(u)^{-1}(F(u) - h), g and
    the distances through the public operators, norms and distances."""
    op = p.operator

    def residual_field(u):
        r = op.eval(u) - h
        return r, sobolev_norm(r, p.a + p.delta)

    def velocity(u):
        return -op.solve_derivative(u, op.eval(u) - h)

    dt = cfg.dt
    r, g = residual_field(u0)
    threshold = cfg.eps_rel * g + cfg.eps_abs
    samples = [TrajectorySample(0.0, g, 0.0, ball_distance(u0, p.U, p.a))]
    recorded = [u0]
    if g <= threshold:
        return samples, recorded, u0, STOP_CONVERGED
    u = u0
    for k in range(1, cfg.steps + 1):
        try:
            k1 = -op.solve_derivative(u, r)
            if cfg.scheme == "euler":
                u_next = u + dt * k1
            else:
                k2 = velocity(u + (dt / 2.0) * k1)
                k3 = velocity(u + (dt / 2.0) * k2)
                k4 = velocity(u + dt * k3)
                u_next = u + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            r, g = residual_field(u_next)
        except DegenerateCoefficient:
            return samples, recorded, u, STOP_DEGENERATE
        if not math.isfinite(g):
            return samples, recorded, u, STOP_DEGENERATE
        u = u_next
        dist_U = ball_distance(u, p.U, p.a)
        converged = g <= threshold
        exited = cfg.enforce_ball and dist_U > p.R
        if k % cfg.record_stride == 0 or converged or exited or k == cfg.steps:
            samples.append(TrajectorySample(k * dt, g, ball_distance(u, u0, p.a), dist_U))
            recorded.append(u)
        if converged:
            return samples, recorded, u, STOP_CONVERGED
        if exited:
            return samples, recorded, u, STOP_BALL_EXIT
    return samples, recorded, u, STOP_HORIZON


def assert_flow_matches_reference(p, u0, h, cfg):
    traj = integrate_flow(p, u0, h, cfg)
    samples, recorded, final_u, stop = reference_flow(p, u0, h, cfg)
    assert traj.stop_reason == stop
    assert len(traj.samples) == len(samples) == len(traj.recorded_u) == len(recorded)
    for got, want in zip(traj.samples, samples):
        assert np.array_equal([got.t, got.g, got.dist_u0, got.dist_U],
                              [want.t, want.g, want.dist_u0, want.dist_U])
    for got, want in zip(traj.recorded_u, recorded):
        assert np.array_equal(got.values, want.values)
    assert np.array_equal(traj.final_u.values, final_u.values)
    return traj


@pytest.mark.parametrize("scheme", ["rk4", "euler"])
@pytest.mark.parametrize("operator", [pytest.param(QuadraticVolterra(), id="volterra"),
                                      pytest.param(LinearSmoothing(), id="linear")])
@pytest.mark.parametrize("n", [201, 2001])
def test_flow_is_bit_identical_to_grid_function_arithmetic(operator, scheme, n):
    p = ProblemSetup.from_reference(operator, GridFunction.constant(1.0, n), 0.05)
    u0 = sample_in_ball(np.random.default_rng(n), p.U, 0.02, 1)
    cfg = FlowConfig(scheme=scheme, eps_rel=1e-3, record_stride=3)
    traj = assert_flow_matches_reference(p, u0, scaled_linear_h(n, 1.1), cfg)
    assert traj.stop_reason == STOP_CONVERGED


@pytest.mark.parametrize("scheme", ["rk4", "euler"])
@pytest.mark.parametrize("enforce_ball, stop", [(False, STOP_DEGENERATE),
                                                (True, STOP_BALL_EXIT)])
def test_flow_failures_are_bit_identical_to_grid_function_arithmetic(
        setup201, scheme, enforce_ball, stop):
    x = setup201.U.x
    h = GridFunction(x - 2.0 * x * x)  # h' = 1 - 4x crosses zero
    cfg = FlowConfig(scheme=scheme, enforce_ball=enforce_ball)
    traj = assert_flow_matches_reference(setup201, setup201.U, h, cfg)
    assert traj.stop_reason == stop


# --- decay fit -----------------------------------------------------------------

def synthetic_trajectory(ts, gs):
    u = GridFunction.zeros(11)
    samples = tuple(TrajectorySample(t, g, 0.0, 0.0) for t, g in zip(ts, gs))
    return Trajectory(samples, (u,) * len(samples), u, ts[-1], STOP_CONVERGED, 1)


def test_decay_fit_unit_rate():
    ts = np.arange(0.0, 2.05, 0.1)
    traj = synthetic_trajectory(ts, np.exp(-ts))
    slope, r2 = decay_fit(traj)
    assert slope == pytest.approx(-1.0, abs=1e-9)
    assert r2 >= 1.0 - 1e-12


def test_decay_fit_constant_residual():
    ts = np.arange(0.0, 2.05, 0.1)
    traj = synthetic_trajectory(ts, np.full(ts.size, 0.5))
    slope, r2 = decay_fit(traj)
    assert slope == pytest.approx(0.0, abs=1e-12)
    assert r2 == 1.0


def test_decay_fit_half_rate():
    ts = np.arange(0.0, 4.05, 0.2)
    traj = synthetic_trajectory(ts, 2.0 * np.exp(-0.5 * ts))
    slope, _ = decay_fit(traj)
    assert slope == pytest.approx(-0.5, abs=1e-9)


def test_decay_fit_needs_enough_samples():
    ts = np.arange(0.0, 0.55, 0.1)
    traj = synthetic_trajectory(ts, np.exp(-ts))
    with pytest.raises(ValueError):
        decay_fit(traj)


def test_decay_fit_ignores_noise_floor():
    ts = np.arange(0.0, 3.05, 0.1)
    gs = np.exp(-ts)
    gs[-5:] = 1e-13  # below the floor: excluded, not log-degenerate
    traj = synthetic_trajectory(ts, gs)
    slope, _ = decay_fit(traj)
    assert slope == pytest.approx(-1.0, abs=1e-9)


# --- trajectory bounds -------------------------------------------------------

def test_bounds_hold_on_converged_run(setup201):
    h = scaled_linear_h(201, 1.1)
    traj = integrate_flow(setup201, setup201.U, h, FlowConfig())
    r = traj.g0 / 1.9  # measured lower constant is near 2
    assert verify_trajectory_bounds(traj, r) == []


def test_bounds_trivial_single_sample(setup201):
    traj = integrate_flow(setup201, setup201.U, setup201.f, FlowConfig())
    assert verify_trajectory_bounds(traj, 0.0) == []


def test_bounds_report_constructed_violation():
    u = GridFunction.zeros(11)
    samples = (
        TrajectorySample(0.0, 1.0, 0.0, 0.0),
        TrajectorySample(1.0, 0.4, 0.2, 0.0),  # dist_u0 = 2r
        TrajectorySample(2.0, 0.1, 0.05, 0.0),
    )
    traj = Trajectory(samples, (u, u, u), u, 2.0, STOP_CONVERGED, 1)
    violations = verify_trajectory_bounds(traj, 0.1)
    assert len(violations) == 1
    assert violations[0].index == 1
    assert violations[0].kind == "drift"


def test_bounds_require_converged_trajectory():
    u = GridFunction.zeros(11)
    samples = (TrajectorySample(0.0, 1.0, 0.0, 0.0),)
    traj = Trajectory(samples, (u,), u, 0.0, STOP_HORIZON, 1)
    with pytest.raises(ValueError):
        verify_trajectory_bounds(traj, 1.0)


# --- Lipschitz behaviour of the vector field ---------------------------------

def field_ratios(p, u, v, h):
    """||Phi(u) - Phi(v)||_a / ||u - v||_a for the velocity Phi and its
    triangle-inequality split bound, or None for coinciding or guarded points."""
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


def sampled_field_ratios(p, h, sample_count, seed):
    """The ratios of `field_ratios` over random pairs in the ball, and the
    number of pairs skipped."""
    rng = np.random.default_rng(seed)
    ratios = []
    for _ in range(sample_count):
        u = sample_in_ball(rng, p.U, p.R, p.a)
        v = sample_in_ball(rng, p.U, p.R, p.a)
        pair = field_ratios(p, u, v, h)
        if pair is not None:
            ratios.append(pair)
    return ratios, sample_count - len(ratios)


def test_linear_smoothing_field_difference_is_identity_map():
    setup = ProblemSetup.from_reference(
        LinearSmoothing(), GridFunction.constant(1.0, 201), 0.5)
    h = GridFunction(setup.U.x)
    ratios, skipped = sampled_field_ratios(setup, h, 50, 42)
    max_ratio = max(r[0] for r in ratios)
    assert abs(max_ratio - 1.0) <= 5e-3
    assert skipped == 0
    other, _ = sampled_field_ratios(setup, setup.f + 0.3, 50, 42)
    assert abs(max_ratio - max(r[0] for r in other)) <= 1e-10


def test_volterra_probe_stable_across_seeds():
    setup = ProblemSetup.from_reference(
        QuadraticVolterra(), GridFunction.constant(1.0, 201), 0.1)
    h = GridFunction(setup.U.x + 0.05 * setup.U.x**2)
    r1, _ = sampled_field_ratios(setup, h, 200, 42)
    r2, _ = sampled_field_ratios(setup, h, 200, 43)
    max1, max2 = max(r[0] for r in r1), max(r[0] for r in r2)
    assert math.isfinite(max1)
    assert abs(max1 - max2) <= 0.25 * max(max1, max2)
    assert max(r[1] for r in r1) >= max1 - 1e-12


def test_pair_ratio_matches_the_per_pair_math(setup201):
    rng = np.random.default_rng(3)
    h = setup201.f + 0.01
    pairs = [(sample_in_ball(rng, setup201.U, 0.05, 1), sample_in_ball(rng, setup201.U, 0.05, 1))
             for _ in range(5)]
    u = GridFunction._trusted(np.stack([pu.values for pu, _ in pairs]))
    v = GridFunction._trusted(np.stack([pv.values for _, pv in pairs]))
    op, a = setup201.operator, setup201.a
    denom = ball_distance(u, v, a)
    direct = sobolev_norm(dsm_vector_field(setup201, u, h) - dsm_vector_field(setup201, v, h), a)
    resid_u = op.eval(u) - h
    i1 = sobolev_norm(op.solve_derivative(u, resid_u) - op.solve_derivative(v, resid_u), a)
    i2 = sobolev_norm(op.solve_derivative(v, op.eval(u) - op.eval(v)), a)
    assert direct.shape == denom.shape == (5,)
    for row, (pu, pv) in enumerate(pairs):
        got = (direct[row] / denom[row], (i1[row] + i2[row]) / denom[row])
        assert got == pytest.approx(field_ratios(setup201, pu, pv, h), rel=1e-12)


# --- CSV ----------------------------------------------------------------------

def test_trajectory_csv_format(tmp_path, setup201):
    h = scaled_linear_h(201, 1.1)
    traj = integrate_flow(setup201, setup201.U, h, FlowConfig(record_stride=20))
    path = tmp_path / "traj.csv"
    write_trajectory_csv(traj, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,g,dist_u0,dist_U"
    assert len(lines) == len(traj.samples) + 1
    first = [float(tok) for tok in lines[1].split(",")]
    assert first == [0.0, traj.g0, 0.0, 0.0]
