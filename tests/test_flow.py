import math
import re
from contextlib import contextmanager
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dsmflow.flow as flow_module
import dsmflow.operators as operators_module
from dsmflow.flow import (
    MAX_STEPS,
    SCHEMES,
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
from dsmflow.conditions import admissibility_check, estimate_constants
from dsmflow.newton_lab import newton_solve, newton_step
from dsmflow.operators import (
    DegenerateCoefficient,
    LinearSmoothing,
    ProblemSetup,
    QuadraticVolterra,
    dsm_vector_field,
)
from dsmflow.sampling import sample_in_ball
from dsmflow.scale import (
    GridFunction,
    GridMismatchError,
    Workspace,
    ball_distance,
    derivative,
    sobolev_norm,
)

from oracles import heron_sqrt


@pytest.fixture
def setup201():
    return ProblemSetup.from_reference(
        QuadraticVolterra(), GridFunction.constant(1.0, 201), 0.05)


def scaled_linear_h(n, lam):
    x = GridFunction.constant(0.0, n).x
    return GridFunction(lam * lam * x)


@contextmanager
def fixed_steps(on=True):
    """Every step of the flows run inside is dt: no error estimate is at
    most a negative GROW_TOL times g, so no step grows."""
    with pytest.MonkeyPatch.context() as patch:
        if on:
            patch.setattr(flow_module, "GROW_TOL", -1.0)
        yield


# --- config validation -------------------------------------------------------

@pytest.mark.parametrize("kwargs", [
    dict(dt=0.6),
    dict(dt=0.0),
    dict(eps_rel=1.0),
    dict(eps_rel=-0.1),
    dict(eps_abs=-1e-9),
    dict(t_max=0.01, dt=0.05),
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


@pytest.mark.parametrize("dt, t_max, steps", [
    (0.5, 0.75, 1),  # rounding 1.5 steps to 2 would end at t = 1.0
    (0.3, 0.45, 1),
    (0.4, 1.0, 2),
    (0.1, 0.3, 3),  # 0.3 / 0.1 = 2.9999999999999996
])
def test_flow_config_takes_the_whole_steps_that_fit_in_t_max(setup201, dt, t_max, steps):
    cfg = FlowConfig(dt=dt, t_max=t_max, eps_abs=0.0)
    assert cfg.steps == steps
    with fixed_steps():
        traj = integrate_flow(setup201, setup201.U, scaled_linear_h(201, 1.1), cfg)
    assert traj.stop_reason == STOP_HORIZON and traj.steps == steps
    assert traj.final_t <= t_max * (1.0 + 1e-12)


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
    traj = integrate_flow(setup201, setup201.U, h, FlowConfig())
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
    with fixed_steps():
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


# --- growing steps --------------------------------------------------------------

def test_growing_steps_cut_velocities_and_keep_the_canonical_checks(setup201):
    # the canonical run of c01-c04: h = x + 0.05 x^2 from U = 1
    x = setup201.U.x
    h = GridFunction(x + 0.05 * x * x)
    with fixed_steps():
        fixed = integrate_flow(setup201, setup201.U, h, FlowConfig())
    grown = integrate_flow(setup201, setup201.U, h, FlowConfig())
    assert (fixed.steps, fixed.vf_evals) == (326, 1304)
    assert grown.stop_reason == STOP_CONVERGED
    assert 3 * grown.vf_evals <= fixed.vf_evals
    oracle = GridFunction(np.sqrt(1.0 + 0.1 * x))
    assert ball_distance(grown.final_u, oracle, 1) <= 1e-3  # c01
    slope, r_squared = decay_fit(grown)
    assert abs(slope + 1.0) <= 0.01 and r_squared >= 0.999  # c02, tightened
    c0_lower = estimate_constants(setup201, 200, 42).c0_lower
    assert verify_trajectory_bounds(grown, grown.g0 / c0_lower) == []  # c03
    gs = [s.g for s in grown.samples]
    assert all(b <= a + 1e-10 for a, b in zip(gs, gs[1:]))  # c04
    # steps grow to 0.8, whose error estimate exceeds GROW_TOL * g, and then
    # alternate between 0.4 and 0.8
    assert grown.decay_ratio == pytest.approx(1.00537, abs=1e-5)
    assert {round(b.t - a.t, 9) for a, b in zip(grown.samples[5:], grown.samples[6:])} == {
        0.4, 0.8}


@pytest.mark.parametrize("dt, steps", [
    (0.05, [0.05, 0.1, 0.2, 0.4, 0.8, 1.0, 1.0, 1.0, 1.0, 0.45]),
    (0.3, [0.3, 0.6, 0.9, 0.9, 0.9, 0.9, 0.9, 0.6]),  # 1 / 0.3 rounds down to 3
])
def test_steps_grow_to_the_most_whole_steps_of_dt_within_one(setup201, monkeypatch, dt,
                                                             steps):
    monkeypatch.setattr(flow_module, "GROW_TOL", math.inf)  # every step doubles
    h = scaled_linear_h(201, 1.1)
    traj = integrate_flow(setup201, setup201.U, h, FlowConfig(dt=dt, t_max=6.0, eps_abs=0.0))
    assert traj.stop_reason == STOP_HORIZON and traj.final_t == pytest.approx(6.0)
    assert [round(b.t - a.t, 9) for a, b in zip(traj.samples, traj.samples[1:])] == steps


@pytest.mark.parametrize("family, enforce_ball, stop, t, counts", [
    # steps of 0.05, 0.1, 0.05 and 0.05; the three longer steps retaken were
    # stopped by the guard and count no velocities
    ("degenerate", False, STOP_DEGENERATE, 0.25, [(5, 20), (4, 16)]),
    ("degenerate", True, STOP_BALL_EXIT, 0.05, [(1, 4), (1, 4)]),
    # u = 1.1 lies 0.1 from U and the flow leaves the ball of 0.05 at t = 0.7;
    # the steps of 0.4, 0.2 and 0.2 that would leave it earlier are retaken
    ("scaled-linear", True, STOP_BALL_EXIT, 0.7, [(14, 56), (8, 44)]),
])
def test_grown_steps_stop_where_fixed_steps_stop(family, enforce_ball, stop, t, counts):
    p, h = flow_problem(QuadraticVolterra(), 201, family, 0.1)
    runs = []
    for fixed in (True, False):
        with fixed_steps(fixed):
            runs.append(integrate_flow(p, p.U, h, FlowConfig(enforce_ball=enforce_ball)))
    for traj in runs:
        assert traj.stop_reason == stop
        assert traj.final_t == pytest.approx(t, abs=1e-12)
        assert all(math.isfinite(s.g) for s in traj.samples)
    assert [(traj.steps, traj.vf_evals) for traj in runs] == counts


@pytest.mark.parametrize("n", [201, 2001, 20001])
def test_canonical_solve_takes_the_same_steps_on_every_grid(n):
    # the paper's flow lives in function space, so its step count should not
    # depend on the grid; at n = 20001 g is within a factor of a few of its
    # rounding floor. (The random h = F(V) half of this check waits for an
    # exact A(u)^{-1}: at n = 201 that solve stalls above eps_abs.)
    p, h = flow_problem(QuadraticVolterra(), n, "quadratic-perturb", 0.05)
    traj = integrate_flow(p, p.U, h, FlowConfig())
    assert traj.stop_reason == STOP_CONVERGED
    assert (traj.steps, traj.vf_evals) == (31, 124)
    assert traj.final_t == pytest.approx(17.15, abs=1e-12)


def test_a_longer_step_whose_g_does_not_fall_is_retaken(setup201, monkeypatch):
    h = scaled_linear_h(201, 1.1)
    with fixed_steps():
        fixed = integrate_flow(setup201, setup201.U, h, FlowConfig())
    rk4 = flow_module.rk4_step

    def backwards_when_long(p, u, h, dt, ws=None):
        u_next = rk4(p, u, h, dt, ws=ws)
        return u_next if dt == 0.05 else 2.0 * u - u_next  # g rises

    monkeypatch.setitem(flow_module._STEPPERS, "rk4", backwards_when_long)
    grown = integrate_flow(setup201, setup201.U, h, FlowConfig())
    # every accepted step is a step of 0.05, after the first each one retaking
    # a step of 0.1
    assert (grown.steps, grown.vf_evals) == (341, 4 * (2 * 341 - 1))
    assert (grown.samples, grown.decay_ratio) == (fixed.samples, fixed.decay_ratio)
    assert np.array_equal(grown.final_u.values, fixed.final_u.values)


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
    calls = {"_eval": [], "_eval_slope": []}
    original_vf = flow_module.dsm_vector_field

    def counting_vf(*args):
        vf_calls.append(None)
        return original_vf(*args)

    # F and D F are evaluated on values, into the flow's workspace, by
    # `_eval` and `_eval_slope`
    def counting(name):
        original = getattr(QuadraticVolterra, name)

        def method(self, *args):
            calls[name].append(None)
            return original(self, *args)

        return method

    monkeypatch.setattr(flow_module, "dsm_vector_field", counting_vf)
    for name in calls:
        monkeypatch.setattr(QuadraticVolterra, name, counting(name))
    h = scaled_linear_h(201, 1.1)
    with fixed_steps():
        traj = integrate_flow(setup201, setup201.U, h, FlowConfig(t_max=1.0))
    steps = 20
    assert traj.stop_reason == STOP_HORIZON and len(traj.samples) == steps + 1
    assert len(vf_calls) == 3 * steps
    # F once per step, for g (one more for g(0)); the stage velocities take D F
    assert len(calls["_eval"]) == steps + 1
    assert len(calls["_eval_slope"]) == 3 * steps


def test_the_error_estimate_costs_no_velocity(monkeypatch):
    vf_calls, solve_calls, steps_run = [], [], []
    original_vf = flow_module.dsm_vector_field
    original_solve = QuadraticVolterra.solve_derivative
    rk4 = flow_module.rk4_step

    def counting_step(*args, **kwargs):
        u_next = rk4(*args, **kwargs)
        steps_run.append(None)
        return u_next

    def counting_vf(*args):
        vf_calls.append(None)
        return original_vf(*args)

    # k1 reaches A(u)^{-1} through the operator's own `solve_derivative`;
    # the stage velocities do not
    def counting_solve(self, *args, **kwargs):
        solve_calls.append(None)
        return original_solve(self, *args, **kwargs)

    monkeypatch.setattr(flow_module, "dsm_vector_field", counting_vf)
    monkeypatch.setattr(QuadraticVolterra, "solve_derivative", counting_solve)
    monkeypatch.setitem(flow_module._STEPPERS, "rk4", counting_step)
    # the solution u = 1.1 lies 0.1 from U, outside the ball of 0.05: longer
    # steps that would leave the ball early are retaken at dt
    p, h = flow_problem(QuadraticVolterra(), 201, "scaled-linear", 0.1)
    traj = integrate_flow(p, p.U, h, FlowConfig(enforce_ball=True))
    ran = len(steps_run)
    assert traj.stop_reason == STOP_BALL_EXIT and ran > traj.steps  # some were retaken
    assert traj.vf_evals == 4 * ran
    assert len(vf_calls) == 3 * ran  # stages two to four
    assert len(solve_calls) == ran  # one k1 per step that ran


@pytest.mark.parametrize("scheme, steps", [("rk4", 341), ("euler", 332)])
def test_trajectory_counts_steps_and_velocities(setup201, scheme, steps):
    h = scaled_linear_h(201, 1.1)
    with fixed_steps():
        traj = integrate_flow(setup201, setup201.U, h, FlowConfig(scheme=scheme))
    assert traj.stop_reason == STOP_CONVERGED
    assert traj.steps == steps == round(traj.final_t / 0.05)
    assert traj.vf_evals == {"rk4": 4, "euler": 1}[scheme] * steps


def test_trajectory_counts_only_accepted_steps(setup201):
    x = setup201.U.x
    h = GridFunction(x - 2.0 * x * x)  # stops `degenerate` inside step 6
    with fixed_steps():
        traj = integrate_flow(setup201, setup201.U, h, FlowConfig())
    assert traj.stop_reason == STOP_DEGENERATE and traj.final_t == 0.25
    assert (traj.steps, traj.vf_evals) == (5, 20)
    assert traj.samples[-1].t == 0.25  # step 5 is the last record
    at_solution = integrate_flow(setup201, setup201.U, setup201.f)
    assert (at_solution.steps, at_solution.vf_evals) == (0, 0)


# --- distance columns, taken in blocks after the run --------------------------

def assert_distances_are_ball_distances(p, u0, traj):
    for s, u in zip(traj.samples, traj.recorded_u, strict=True):
        assert s.dist_u0 == ball_distance(u, u0, p.a)
        assert s.dist_U == ball_distance(u, p.U, p.a)


@pytest.mark.parametrize("enforce_ball", [False, True])
@pytest.mark.parametrize("n", [201, 2001, 20001])
def test_each_sample_distance_is_the_ball_distance_of_its_iterate(n, enforce_ball):
    # 20 samples, or 11 up to the exit from the ball: one block at n = 201,
    # blocks of 4 rows at n = 2001 (the exit's last one padded from 3), and
    # one-row blocks at n = 20001
    p = ProblemSetup.from_reference(QuadraticVolterra(), GridFunction.constant(1.0, n), 0.05)
    x = p.U.x
    u0 = sample_in_ball(np.random.default_rng(n), p.U, 0.02, 1)
    traj = integrate_flow(p, u0, GridFunction(x + 0.05 * x * x),
                          FlowConfig(eps_rel=1e-4, enforce_ball=enforce_ball))
    assert (traj.stop_reason, len(traj.samples)) == (
        (STOP_BALL_EXIT, 11) if enforce_ball else (STOP_CONVERGED, 20))
    assert_distances_are_ball_distances(p, u0, traj)


def test_distances_of_a_multi_block_run_are_ball_distances(setup201):
    # 231 samples: five blocks of 40 rows and a last one of 31
    u0 = sample_in_ball(np.random.default_rng(5), setup201.U, 0.02, 1)
    traj = integrate_flow(setup201, u0, scaled_linear_h(201, 1.1),
                          FlowConfig(scheme="euler", eps_rel=1e-5))
    assert (traj.stop_reason, len(traj.samples)) == (STOP_CONVERGED, 231)
    assert_distances_are_ball_distances(setup201, u0, traj)
    # the bounds take their tail distances in the same blocks
    assert_tails_are_ball_distances(traj, 1e-3, 230)
    # and in blocks of 4 rows (the last of 3) and of one row
    for n in (2001, 20001):
        p = ProblemSetup.from_reference(QuadraticVolterra(), GridFunction.constant(1.0, n), 0.05)
        x = p.U.x
        u0 = sample_in_ball(np.random.default_rng(n), p.U, 0.02, 1)
        traj = integrate_flow(p, u0, GridFunction(x + 0.05 * x * x), FlowConfig(eps_rel=1e-4))
        assert (traj.stop_reason, len(traj.samples)) == (STOP_CONVERGED, 20)
        # at r = 1e-12 every tail but the limit's own is a violation
        assert_tails_are_ball_distances(traj, 1e-12, 19)


def assert_tails_are_ball_distances(traj, r, count):
    tails = [v for v in verify_trajectory_bounds(traj, r) if v.kind == "tail"]
    assert len(tails) == count
    for v in tails:
        assert v.value == ball_distance(traj.recorded_u[v.index], traj.final_u, traj.a)


@pytest.mark.parametrize("enforce_ball", [False, True])
@pytest.mark.parametrize("scheme, samples", [("rk4", 32), ("euler", 333)])
def test_only_enforce_ball_measures_distances_inside_the_step_loop(
        monkeypatch, scheme, samples, enforce_ball):
    p = ProblemSetup.from_reference(QuadraticVolterra(), GridFunction.constant(1.0, 201), 1.0)
    x = p.U.x
    h = GridFunction(x + 0.05 * x * x) if scheme == "rk4" else scaled_linear_h(201, 1.1)
    distance_calls, block_terms, passes = [], [], []
    distance, l2, distances = flow_module._distance, flow_module._l2_squared, flow_module._distances

    def counting_distance(*args):
        distance_calls.append(args)
        return distance(*args)

    def counting_l2(values, dx, sq=None):
        if values.ndim == 2:  # one term of a block
            block_terms.append(values.shape)
        return l2(values, dx, sq)

    def counting_distances(points, center, a, terms):
        passes.append(len(points))
        return distances(points, center, a, terms)

    monkeypatch.setattr(flow_module, "_distance", counting_distance)
    monkeypatch.setattr(flow_module, "_l2_squared", counting_l2)
    monkeypatch.setattr(flow_module, "_distances", counting_distances)
    traj = integrate_flow(p, p.U, h, FlowConfig(scheme=scheme, enforce_ball=enforce_ball))
    assert traj.stop_reason == STOP_CONVERGED and len(traj.samples) == samples
    assert traj.vf_evals == {"rk4": 4, "euler": 1}[scheme] * (samples - 1)  # none retaken
    # under enforce_ball, u0 and every tried step; from u0 = U the dist_U
    # column is also dist_u0, so a block pass takes it only when not enforced
    assert len(distance_calls) == (samples if enforce_ball else 0)
    assert passes == ([] if enforce_ball else [samples])
    # the H1 norms of each block: two terms of 40 rows each, the last
    # block's of the rows it has left
    live = [40] * (samples // 40) + [samples % 40] * (samples % 40 > 0)
    assert block_terms == [(rows, 201) for rows in live for _ in range(2)] * len(passes)


@pytest.mark.parametrize("n, rows", [(201, 40), (2001, 4), (20001, 1)])
def test_flow_scratch_lives_in_its_workspace(monkeypatch, n, rows):
    workspaces, blocks, passes = [], [], []
    distances, l2 = flow_module._distances, flow_module._l2_squared

    class Recording(Workspace):
        def __init__(self, shape):
            super().__init__(shape)
            workspaces.append(self)

    def recording_distances(points, center, a, ws):
        passes.append(ws)
        return distances(points, center, a, ws)

    def recording_l2(values, dx, sq=None):
        if passes:  # the terms of a block, after the step loop
            blocks.append(values)
        return l2(values, dx, sq)

    monkeypatch.setattr(flow_module, "Workspace", Recording)
    monkeypatch.setattr(flow_module, "_distances", recording_distances)
    monkeypatch.setattr(flow_module, "_l2_squared", recording_l2)
    p = ProblemSetup.from_reference(QuadraticVolterra(), GridFunction.constant(1.0, n), 0.05)
    x = p.U.x
    h = GridFunction(x + 0.05 * x * x)
    sampled = sample_in_ball(np.random.default_rng(5), p.U, 0.01, 1)
    # from U itself the dist_U column is the dist_u0 column: one pass
    for scheme, (u0, n_passes) in product(SCHEMES, ((sampled, 2), (p.U, 1))):
        for log in (workspaces, blocks, passes):
            log.clear()
        traj = integrate_flow(p, u0, h, FlowConfig(scheme=scheme, t_max=1.0))
        [ws] = workspaces
        # one (3, rows, n) block serves the steps' row 0 and the blocks:
        # two H1 terms per block, in each pass
        assert ws.dif.shape == (3, rows, n)
        assert passes == [ws] * n_passes
        m = len(traj.samples)
        live = [rows] * (m // rows) + [m % rows] * (m % rows > 0)
        assert [b.shape for b in blocks] == [(k, n) for k in live for _ in range(2)] * n_passes
        assert all(np.shares_memory(b, ws.dif) for b in blocks)
        if u0 is p.U:
            assert all(s.dist_u0 == s.dist_U for s in traj.samples)
        # D h is written for every scheme
        assert np.array_equal(ws.dh.values, derivative(h).values)


@pytest.mark.parametrize("scheme, step", [("rk4", rk4_step), ("euler", euler_step)])
def test_flow_iterates_equal_a_plain_step_loop(setup201, scheme, step):
    rng = np.random.default_rng(12)
    u0 = sample_in_ball(rng, setup201.U, 0.02, 1)
    h = scaled_linear_h(201, 1.1)
    cfg = FlowConfig(scheme=scheme, t_max=1.0)
    with fixed_steps():
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
    points, the RK4 combination, each k1 -A(u)^{-1}(F(u) - h), g, the
    distances and the error estimate through the public operators, norms
    and distances, with the step-size rule restated from the ``FlowConfig``
    docstring and the module's current ``GROW_TOL`` and ``DT_MAX``. RK4's
    later stage velocities (D h - D F(u)) / (2u) are restated in numpy.

    Records every accepted step. Returns the samples, the recorded iterates,
    the final iterate, the stop reason and the trajectory's (final_t, steps,
    vf_evals, decay_ratio).
    """
    op = p.operator

    def residual_field(u):
        r = op.eval(u) - h
        return r, sobolev_norm(r, p.a + p.delta)

    dh = derivative(h).values
    volterra = isinstance(op, QuadraticVolterra)

    def velocity(u):
        """A stage velocity from D h and D F(u), the local average of u^2
        (or u) taken from the neighbour sums."""
        w = u.values * u.values if volterra else u.values
        pairs = w[1:] + w[:-1]
        slope = np.empty_like(w)
        slope[1:-1] = (pairs[1:] + pairs[:-1]) * 0.25
        slope[0] = (3.0 * pairs[0] - pairs[1]) * 0.25
        slope[-1] = (3.0 * pairs[-1] - pairs[-2]) * 0.25
        if not volterra:
            return GridFunction._trusted(dh - slope)
        if u.min() < op.u_min:
            raise DegenerateCoefficient("below the guard")
        return GridFunction._trusted((dh - slope) / (2.0 * u.values))

    def advance(u, k1, dt):
        """The next iterate and, for RK4, the step's last stage k4."""
        if cfg.scheme == "euler":
            return u + dt * k1, None
        k2 = velocity(u + (dt / 2.0) * k1)
        k3 = velocity(u + (dt / 2.0) * k2)
        k4 = velocity(u + dt * k3)
        return u + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4), k4

    r, g = residual_field(u0)
    threshold = cfg.eps_rel * g + cfg.eps_abs
    samples = [TrajectorySample(0.0, g, 0.0, ball_distance(u0, p.U, p.a))]
    recorded = [u0]
    u = u0
    stop = STOP_CONVERGED if g <= threshold else STOP_HORIZON
    elapsed = 0  # in steps of cfg.dt
    span = 1  # the next step, in steps of cfg.dt
    longest = int(flow_module.DT_MAX / cfg.dt)
    accepted = retaken = 0
    ratio = None
    k4 = None  # the last stage of the step just accepted, if RK4
    while stop == STOP_HORIZON and elapsed < cfg.steps:
        try:
            k1 = -op.solve_derivative(u, r)
        except DegenerateCoefficient:
            stop = STOP_DEGENERATE
            break
        if k4 is not None:
            # k1 is the FSAL stage of the step just accepted, of length s:
            # the embedded third-order pair differs from it by (s / 6)(k4 - k1)
            s = span * cfg.dt
            if (s / 6.0) * sobolev_norm(k4 - k1, 0) <= flow_module.GROW_TOL * g:
                span = min(2 * span, longest)
            else:
                span = max(span // 2, 1)
        span = min(span, cfg.steps - elapsed)
        ran = False
        try:
            u_next, k4 = advance(u, k1, span * cfg.dt)
            ran = True
            r_next, g_next = residual_field(u_next)
        except DegenerateCoefficient:
            g_next = math.nan
        usable = math.isfinite(g_next)
        outside = usable and cfg.enforce_ball and ball_distance(u_next, p.U, p.a) > p.R
        if span > 1 and not (usable and g_next < g and not outside):
            retaken += ran
            span = 1
            k4 = None
            continue
        if not usable:
            stop = STOP_DEGENERATE
            break
        ratio = g_next / g * math.exp(span * cfg.dt)
        elapsed += span
        accepted += 1
        u, r, g = u_next, r_next, g_next
        if g <= threshold:
            stop = STOP_CONVERGED
        elif outside:
            stop = STOP_BALL_EXIT
        samples.append(TrajectorySample(elapsed * cfg.dt, g, ball_distance(u, u0, p.a),
                                        ball_distance(u, p.U, p.a)))
        recorded.append(u)
    vf_evals = (accepted + retaken) * (1 if cfg.scheme == "euler" else 4)
    return samples, recorded, u, stop, (elapsed * cfg.dt, accepted, vf_evals, ratio)


def assert_flow_matches_reference(p, u0, h, cfg):
    traj = integrate_flow(p, u0, h, cfg)
    samples, recorded, final_u, stop, counts = reference_flow(p, u0, h, cfg)
    assert traj.stop_reason == stop
    assert (traj.final_t, traj.steps, traj.vf_evals, traj.decay_ratio) == counts
    assert len(traj.samples) == len(samples) == len(traj.recorded_u) == len(recorded)
    # one record per accepted step, and the run ends at the last one
    assert len(traj.samples) == len(traj.recorded_u) == traj.steps + 1
    assert traj.samples[-1].t == traj.final_t
    assert traj.recorded_u[-1] is traj.final_u
    assert traj.g_final == residual(p, traj.final_u, h)
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
@pytest.mark.parametrize("n", [201, 2001, 20001])
def test_flow_is_bit_identical_to_grid_function_arithmetic(operator, scheme, n):
    p = ProblemSetup.from_reference(operator, GridFunction.constant(1.0, n), 0.05)
    u0 = sample_in_ball(np.random.default_rng(n), p.U, 0.02, 1)
    t_max, stop = (1.0, STOP_HORIZON) if n == 20001 else (30.0, STOP_CONVERGED)
    cfg = FlowConfig(scheme=scheme, t_max=t_max, eps_rel=1e-3)
    for fixed in (True, False):
        with fixed_steps(fixed):
            traj = assert_flow_matches_reference(p, u0, scaled_linear_h(n, 1.1), cfg)
        assert traj.stop_reason == stop


def flow_problem(operator, n, family, param=0.0):
    p = ProblemSetup.from_reference(operator, GridFunction.constant(1.0, n), 0.05)
    x = p.U.x
    h = {"scaled-linear": (1.0 + param) ** 2 * x,
         "quadratic-perturb": x + param * x * x,
         "degenerate": x - 2.0 * x * x}[family]  # h' = 1 - 4x crosses zero
    return p, GridFunction(h)


@settings(max_examples=60, deadline=None)
@given(operator=st.sampled_from([QuadraticVolterra(), LinearSmoothing()]),
       scheme=st.sampled_from(SCHEMES), dt=st.floats(0.02, 0.5),
       fixed=st.booleans(), t_max=st.floats(0.5, 6.0),
       enforce_ball=st.booleans(), radius=st.floats(0.0, 0.1),
       family=st.sampled_from(["scaled-linear", "quadratic-perturb", "degenerate"]),
       param=st.floats(-0.3, 0.3), n=st.sampled_from([21, 201]), seed=st.integers(0, 2**16))
def test_flow_equals_the_reference_flow_on_drawn_problems(
        operator, scheme, dt, fixed, t_max, enforce_ball, radius, family,
        param, n, seed):
    p, h = flow_problem(operator, n, family, param)
    u0 = sample_in_ball(np.random.default_rng(seed), p.U, radius, 1)
    cfg = FlowConfig(scheme=scheme, dt=dt, t_max=max(t_max, dt), eps_rel=1e-2,
                     enforce_ball=enforce_ball)
    with fixed_steps(fixed):
        assert_flow_matches_reference(p, u0, h, cfg)


@pytest.mark.parametrize("scheme", ["rk4", "euler"])
@pytest.mark.parametrize("enforce_ball, stop", [(False, STOP_DEGENERATE),
                                                (True, STOP_BALL_EXIT)])
def test_flow_failures_are_bit_identical_to_grid_function_arithmetic(
        setup201, scheme, enforce_ball, stop):
    x = setup201.U.x
    h = GridFunction(x - 2.0 * x * x)  # h' = 1 - 4x crosses zero
    cfg = FlowConfig(scheme=scheme, enforce_ball=enforce_ball)
    for fixed in (True, False):
        with fixed_steps(fixed):
            traj = assert_flow_matches_reference(setup201, setup201.U, h, cfg)
        assert traj.stop_reason == stop


# --- workspaces ----------------------------------------------------------------

def assert_same_trajectory(got, want):
    assert (got.stop_reason, got.final_t, got.steps, got.vf_evals, got.samples) == (
        want.stop_reason, want.final_t, want.steps, want.vf_evals, want.samples)
    assert len(got.recorded_u) == len(want.recorded_u)
    for a, b in zip(got.recorded_u + (got.final_u,), want.recorded_u + (want.final_u,)):
        assert np.array_equal(a.values, b.values)


def test_interleaved_flows_equal_the_same_flows_run_alone(monkeypatch):
    runs = []
    for operator in (QuadraticVolterra(), LinearSmoothing()):
        for n, family in ((201, "scaled-linear"), (41, "quadratic-perturb")):
            p, h = flow_problem(operator, n, family, 0.1)
            runs.append((p, p.U, h, FlowConfig(t_max=3.0)))
    # stops `degenerate` inside an RK4 stage, from U = 1 at t = 0.25
    p, h = flow_problem(QuadraticVolterra(), 201, "degenerate")
    runs.insert(1, (p, p.U, h, FlowConfig()))
    alone = [integrate_flow(*run) for run in runs]
    assert alone[1].stop_reason == STOP_DEGENERATE

    # each flow starts inside the first stage velocity of the one before it
    # and runs to its end there, between that flow's stages
    original = flow_module.dsm_vector_field
    pending, nested = list(runs[1:]), []

    def interleaving(*args):
        if pending:
            run = pending.pop(0)
            index = len(nested)
            nested.append(None)
            nested[index] = integrate_flow(*run)
        return original(*args)

    monkeypatch.setattr(flow_module, "dsm_vector_field", interleaving)
    first = integrate_flow(*runs[0])
    for got, want in zip([first] + nested, alone):
        assert_same_trajectory(got, want)


@pytest.mark.parametrize("call", [
    residual,
    lambda p, u, v: p.operator.solve_derivative(u, v),
    dsm_vector_field,
    lambda p, u, v: euler_step(p, u, v, 0.05),
    lambda p, u, v: rk4_step(p, u, v, 0.05),
    newton_step,
    newton_solve,
], ids=["residual", "solve_derivative", "dsm_vector_field", "euler_step", "rk4_step",
        "newton_step", "newton_solve"])
@pytest.mark.parametrize("operator", [QuadraticVolterra(), LinearSmoothing()],
                         ids=["volterra", "linear"])
def test_every_one_off_call_checks_its_grids(call, operator):
    p = ProblemSetup.from_reference(operator, GridFunction.constant(1.0, 201), 0.05)
    with pytest.raises(GridMismatchError, match=r"^grid sizes differ: 201 vs 101$"):
        call(p, p.U, GridFunction.constant(0.5, 101))


def test_public_step_results_are_their_own(setup201, monkeypatch):
    workspaces = []

    class Recording(Workspace):
        def __init__(self, shape):
            super().__init__(shape)
            workspaces.append(self)

    for module in (flow_module, operators_module):
        monkeypatch.setattr(module, "Workspace", Recording)
    rng = np.random.default_rng(5)
    u = sample_in_ball(rng, setup201.U, 0.02, 1)
    h = scaled_linear_h(201, 1.1)
    results = [rk4_step(setup201, u, h, 0.05), euler_step(setup201, u, h, 0.05),
               dsm_vector_field(setup201, u, h)]
    copies = [f.values.copy() for f in results]
    # later calls, a flow among them, reuse nothing the results hold
    integrate_flow(setup201, u, h, FlowConfig(t_max=1.0))
    for f in results:
        rk4_step(setup201, f, h, 0.05)
        euler_step(setup201, f, h, 0.05)
        dsm_vector_field(setup201, f, h)
    assert len(workspaces) > len(results)
    # a slot is a bare array, or the `values` of its bound views
    slots = [getattr(slot, "values", slot) for ws in workspaces for slot in vars(ws).values()]
    slots = [array for array in slots if isinstance(array, np.ndarray)]
    assert len(slots) > len(workspaces)
    for f, copy in zip(results, copies):
        assert not f.values.flags.writeable
        assert not any(np.shares_memory(f.values, array) for array in slots)
        assert np.array_equal(f.values, copy)


# --- decay fit -----------------------------------------------------------------

def synthetic_trajectory(ts, gs):
    u = GridFunction.zeros(11)
    samples = tuple(TrajectorySample(t, g, 0.0, 0.0) for t, g in zip(ts, gs))
    return Trajectory(samples, (u,) * len(samples), STOP_CONVERGED, 1)


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


def polyfit_decay(traj):
    """decay_fit's line by numpy's least squares, the fit it replaces."""
    usable = [s for s in traj.samples[1:-1] if s.g > flow_module.NOISE_FLOOR]
    t = np.array([s.t for s in usable])
    logg = np.log([s.g for s in usable])
    slope, intercept = np.polyfit(t, logg, 1)
    ss_res = np.sum((logg - (slope * t + intercept)) ** 2)
    return slope, 1.0 - ss_res / np.sum((logg - logg.mean()) ** 2)


def test_decay_fit_agrees_with_a_polyfit_line(setup201):
    x = setup201.U.x
    canonical = integrate_flow(setup201, setup201.U, GridFunction(x + 0.05 * x * x))
    assert len(canonical.samples) == 32
    rng = np.random.default_rng(24)
    lines = []
    for _ in range(50):
        ts = np.sort(rng.uniform(0.0, 8.0, rng.integers(12, 60)))
        logg = rng.uniform(-3.0, 3.0) + rng.uniform(-2.0, -0.1) * ts
        lines.append(synthetic_trajectory(ts, np.exp(logg + rng.normal(0.0, 0.3, ts.size))))
    for traj in [canonical] + lines:
        slope, r2 = decay_fit(traj)
        want_slope, want_r2 = polyfit_decay(traj)
        assert type(slope) is float and type(r2) is float
        assert slope == pytest.approx(want_slope, rel=1e-12, abs=0.0)
        assert r2 == pytest.approx(want_r2, rel=0.0, abs=1e-12)


# --- trajectory bounds -------------------------------------------------------

def test_bounds_hold_on_converged_run(setup201):
    h = scaled_linear_h(201, 1.1)
    traj = integrate_flow(setup201, setup201.U, h, FlowConfig())
    r = traj.g0 / 1.9  # measured lower constant is near 2
    assert verify_trajectory_bounds(traj, r) == []


def test_bounds_report_tail_violations_on_the_canonical_run(setup201):
    # with r = g0 / c0_lower (seed 42) the canonical run has no violation (c03);
    # at r / 2 the tail bound fails first, from t = 0, and drift from index 5
    x = setup201.U.x
    traj = integrate_flow(setup201, setup201.U, GridFunction(x + 0.05 * x * x), FlowConfig())
    r = traj.g0 / estimate_constants(setup201, 200, 42).c0_lower / 2.0
    violations = verify_trajectory_bounds(traj, r)
    assert [(v.index, v.kind) for v in violations[:6]] == [
        (0, "tail"), (1, "tail"), (2, "tail"), (3, "tail"), (4, "tail"), (5, "drift")]
    for v in violations:
        bound = r * math.exp(-v.t) if v.kind == "tail" else r
        assert v.limit == pytest.approx(bound * 1.05, rel=1e-15)
        assert v.limit < v.value


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
    traj = Trajectory(samples, (u, u, u), STOP_CONVERGED, 1)
    violations = verify_trajectory_bounds(traj, 0.1)
    assert len(violations) == 1
    assert violations[0].index == 1
    assert violations[0].kind == "drift"


@pytest.mark.parametrize("r, tol, message", [
    (math.nan, 0.05, "r must be nonnegative and finite, got nan"),
    (math.inf, 0.05, "r must be nonnegative and finite, got inf"),
    (-1e-12, 0.05, "r must be nonnegative and finite, got -1e-12"),
    (1.0, math.nan, "tol must be nonnegative and finite, got nan"),
    (1.0, -0.01, "tol must be nonnegative and finite, got -0.01"),
])
def test_bounds_reject_a_negative_or_non_finite_bound(setup201, r, tol, message):
    x = setup201.U.x
    traj = integrate_flow(setup201, setup201.U, GridFunction(x + 0.05 * x * x), FlowConfig())
    # a finite bound this small fails the canonical run; a NaN one would pass it
    assert len(verify_trajectory_bounds(traj, 1e-12)) == 62
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        verify_trajectory_bounds(traj, r, tol)


def test_bounds_require_converged_trajectory():
    u = GridFunction.zeros(11)
    samples = (TrajectorySample(0.0, 1.0, 0.0, 0.0),)
    traj = Trajectory(samples, (u,), STOP_HORIZON, 1)
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
    traj = integrate_flow(setup201, setup201.U, h, FlowConfig())
    path = tmp_path / "traj.csv"
    write_trajectory_csv(traj, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,g,dist_u0,dist_U"
    assert len(lines) == len(traj.samples) + 1
    first = [float(tok) for tok in lines[1].split(",")]
    assert first == [0.0, traj.g0, 0.0, 0.0]


# --- batches ---------------------------------------------------------------------

def test_a_batch_passed_as_one_function_raises_a_value_error_naming_its_shape(setup201):
    # a (2, 18) array of draws gives a (2, 201) batch, one point per row
    batch = sample_in_ball(np.random.default_rng(3).random((2, 18)), setup201.U, 0.02, 1)
    assert batch.values.shape == (2, 201)
    report = estimate_constants(setup201, 10, 0)
    one_u, one_h = setup201.U, setup201.f
    for u0, h in ((batch, one_h), (one_u, setup201.f + (batch - setup201.U))):
        name = "u0" if u0 is batch else "h"
        for call in (lambda: integrate_flow(setup201, u0, h),
                     lambda: admissibility_check(setup201, u0, h, report),
                     lambda: newton_solve(setup201, u0, h)):
            with pytest.raises(ValueError, match=rf"^{name} .* shape \(2, 201\)$"):
                call()


def batch_rows(n):
    """Rows of values near U = 1: two drawn rows, a row with a NaN inside,
    one whose squares overflow, and last a row that dips below the guard."""
    rng = np.random.default_rng(n)
    rows = rng.uniform(0.8, 1.2, (5, n))
    rows[1, n // 2] = math.nan
    rows[2] = 1e200
    rows[4, -1] = 0.05
    return rows


@pytest.mark.parametrize("n", [3, 4, 5, 201])
def test_batched_kernels_equal_their_rows_computed_alone(n):
    # At n = 3 and 4 the interiors the views bind are one or two nodes
    # long, and the neighbour sums' interior is empty at n = 3.
    p = ProblemSetup.from_reference(QuadraticVolterra(), GridFunction.constant(1.0, n), 0.05)
    op = p.operator
    rows = batch_rows(n)
    # h = lam^2 x, one lam a row, whose solutions are the constants lam
    hs = np.random.default_rng(n + 1).uniform(0.9, 1.1, (5, 1)) ** 2 * np.linspace(0.0, 1.0, n)
    kernels = {
        "rk4_step": lambda u, h: rk4_step(p, u, h, 0.05).values,
        "euler_step": lambda u, h: euler_step(p, u, h, 0.05).values,
        "dsm_vector_field": lambda u, h: dsm_vector_field(p, u, h).values,
        "solve_derivative": lambda u, h: op.solve_derivative(u, h).values,
        "residual": lambda u, h: residual(p, u, h),
    }
    guarded = {"rk4_step", "euler_step", "dsm_vector_field", "solve_derivative"}
    with np.errstate(all="ignore"):
        for name, kernel in kernels.items():
            alone = []
            for u, h in zip(rows, hs):
                one_u, one_h = GridFunction._trusted(u.copy()), GridFunction._trusted(h.copy())
                try:
                    alone.append(kernel(one_u, one_h))
                except DegenerateCoefficient:
                    alone.append(None)
            # only the row that dips trips the guard, and only where A(u)^{-1} is taken
            assert [a is None for a in alone] == [name in guarded and r == 4 for r in range(5)]
            for live in (4, 5):  # the batch without and with the dipping row
                u = GridFunction._trusted(rows[:live].copy())
                h = GridFunction._trusted(hs[:live].copy())
                if name in guarded and live == 5:
                    with pytest.raises(DegenerateCoefficient):
                        kernel(u, h)
                    continue
                got = kernel(u, h)
                assert len(got) == live
                for row, want in zip(got, alone):
                    assert np.array_equal(row, want, equal_nan=True), name
