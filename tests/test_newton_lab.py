import math

import numpy as np
import pytest

from dsmflow.flow import STOP_HORIZON, FlowConfig, integrate_flow, residual
from dsmflow.newton_lab import (
    ClassicalIFTConfig,
    ContractionEscapeError,
    ConvergenceError,
    contraction_solve,
    newton_solve,
    newton_step,
    smoothing_loss_probe,
    write_iteration_csv,
    write_loss_probe_csv,
)
from dsmflow.operators import LinearSmoothing, ProblemSetup, QuadraticVolterra
from dsmflow.scale import GridFunction, derivative, sobolev_norm

from oracles import heron_iterates, quadratic_formula_root


@pytest.fixture
def setup201():
    return ProblemSetup.from_reference(
        QuadraticVolterra(), GridFunction.constant(1.0, 201), 0.05)


# --- Newton steps -----------------------------------------------------------

def test_newton_step_is_pointwise_heron_update(setup201):
    h = GridFunction(4.0 * setup201.U.x)
    u1 = newton_step(setup201, setup201.U, h)
    assert np.max(np.abs(u1.values - 2.5)) <= 1e-12
    u2 = newton_step(setup201, u1, h)
    assert np.max(np.abs(u2.values - 2.05)) <= 1e-12


def test_newton_step_fixes_exact_solution(setup201):
    u_star = GridFunction.constant(1.1, 201)
    h = setup201.operator.eval(u_star)
    out = newton_step(setup201, u_star, h)
    assert np.max(np.abs(out.values - u_star.values)) <= 1e-12


def test_newton_one_step_solves_linear_operator():
    setup = ProblemSetup.from_reference(
        LinearSmoothing(), GridFunction.constant(1.0, 201), 0.5)
    x = setup.U.x
    h = GridFunction(x + 0.05 * x * x)
    u0 = GridFunction(1.0 + 0.1 * np.sin(2.0 * np.pi * x))
    u1 = newton_step(setup, u0, h)
    # exact up to the grid-smoothing residue of the initial iterate
    assert np.max(np.abs(u1.values - derivative(h).values)) <= 1e-3


# --- Newton iteration ---------------------------------------------------------

def test_newton_quadratic_convergence_on_constant_target(setup201):
    h = GridFunction(1.21 * setup201.U.x)
    oracle = GridFunction.constant(heron_iterates(1.21, 1.0, 40)[-1], 201)
    record = newton_solve(setup201, setup201.U, h, max_iter=10, tol=1e-10,
                          oracle=oracle)
    assert record.converged
    assert record.steps[-1].k <= 6
    res = [s.residual for s in record.steps]
    ratios = [b / a**2 for a, b in zip(res, res[1:]) if a >= 1e-6]
    assert ratios and all(r <= 1.0 for r in ratios)
    assert [s.k for s in record.steps] == list(range(len(record.steps)))
    assert all(s.dist_to_oracle is not None for s in record.steps)


def test_newton_iterates_match_scalar_heron(setup201):
    h = GridFunction(1.21 * setup201.U.x)
    record = newton_solve(setup201, setup201.U, h, max_iter=10, tol=1e-10)
    heron = heron_iterates(1.21, 1.0, len(record.steps))
    u = setup201.U
    for k in range(len(record.steps)):
        assert np.max(np.abs(u.values - heron[k])) <= 1e-12
        if k < len(record.steps) - 1:
            u = newton_step(setup201, u, h)


def test_newton_converges_at_zero_iterations_from_solution(setup201):
    record = newton_solve(setup201, setup201.U, setup201.f)
    assert record.converged
    assert len(record.steps) == 1
    assert record.steps[0].k == 0


def test_newton_divergence_recorded_not_raised(setup201):
    x = setup201.U.x
    h = GridFunction(x - 2.0 * x * x)  # no positive square-root target
    record = newton_solve(setup201, setup201.U, h, max_iter=25, tol=1e-10)
    assert not record.converged
    assert record.diverged_at is not None
    assert all(math.isfinite(s.residual) for s in record.steps)


def test_newton_budget_must_be_nonnegative(setup201):
    with pytest.raises(ValueError, match="^max_iter must be nonnegative"):
        newton_solve(setup201, setup201.U, setup201.f, max_iter=-1)
    record = newton_solve(setup201, setup201.U, setup201.f + 0.01, max_iter=0)
    assert [s.k for s in record.steps] == [0] and not record.converged


def test_newton_takes_no_step_past_its_budget(setup201):
    x = setup201.U.x
    # the step after k = 1 would trip the guard on this target
    h = GridFunction(x - 2.0 * x * x)
    record = newton_solve(setup201, setup201.U, h, max_iter=1)
    assert [s.k for s in record.steps] == [0, 1]
    assert record.diverged_at is None and not record.converged
    # the returned iterate is the one the last record measures
    h = GridFunction(1.21 * x)
    record = newton_solve(setup201, setup201.U, h, max_iter=2)
    assert residual(setup201, record.final_u, h) == record.steps[-1].residual


def test_negative_tolerance_is_rejected(setup201):
    # a negative tolerance can never be met: it would run out the budget
    with pytest.raises(ValueError, match=r"^tol must be nonnegative, got -1\.0$"):
        newton_solve(setup201, setup201.U, setup201.f, tol=-1.0)
    with pytest.raises(ValueError, match=r"^tol must be nonnegative, got -1\.0$"):
        ClassicalIFTConfig(tol=-1.0)
    assert newton_solve(setup201, setup201.U, setup201.f, tol=0.0).converged


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_newton_non_finite_initial_residual_raises(setup201):
    h = GridFunction(1e160 * setup201.U.x)
    with pytest.raises(ValueError, match=r"g\(0\)"):
        newton_solve(setup201, setup201.U, h)


def test_rough_target_stalls_newton_but_not_the_flow():
    # near-grid-frequency content in h: plain Newton stagnates, the flow
    # keeps the residual monotone and finite (observational comparison)
    n = 41
    setup = ProblemSetup.from_reference(
        QuadraticVolterra(), GridFunction.constant(1.0, n), 0.05)
    x = setup.U.x
    h = GridFunction(x + 0.001 * np.sin(39.0 * np.pi * x))
    record = newton_solve(setup, setup.U, h, max_iter=25, tol=1e-10)
    assert not record.converged
    assert min(s.residual for s in record.steps) >= 1e-2
    traj = integrate_flow(setup, setup.U, h, FlowConfig(dt=0.01, t_max=10.0))
    assert traj.stop_reason == STOP_HORIZON
    gs = [s.g for s in traj.samples]
    assert all(b <= a * (1.0 + 1e-9) for a, b in zip(gs, gs[1:]))
    assert traj.g_final < traj.g0


# --- contraction solver ---------------------------------------------------------

def pointwise_quadratic(z: GridFunction) -> GridFunction:
    return z + z * z


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_contraction_rejects_rhs_whose_norm_overflows():
    # the norm of a 1e160 constant is NaN, which must not pass the smallness check
    with pytest.raises(ValueError, match="too large"):
        contraction_solve(pointwise_quadratic, GridFunction.constant(1e160, 51),
                          ClassicalIFTConfig())


def test_contraction_zero_rhs_returns_zero():
    z = contraction_solve(pointwise_quadratic, GridFunction.zeros(51),
                          ClassicalIFTConfig())
    assert np.all(z.values == 0.0)


def test_contraction_constant_rhs_matches_quadratic_formula():
    p = GridFunction.constant(0.1, 51)
    z = contraction_solve(pointwise_quadratic, p, ClassicalIFTConfig())
    assert np.max(np.abs(z.values - quadratic_formula_root(0.1))) <= 1e-10


def test_contraction_linear_rhs_pointwise_roots():
    n = 101
    x = GridFunction.zeros(n).x
    p = GridFunction(0.05 * x)
    z = contraction_solve(pointwise_quadratic, p, ClassicalIFTConfig())
    expected = [quadratic_formula_root(0.05 * xi) for xi in x]
    assert np.max(np.abs(z.values - expected)) <= 1e-10


def test_contraction_rejects_large_rhs():
    p = GridFunction.constant(0.2, 51)  # m * ||p|| = 0.2 >= eps / 2
    with pytest.raises(ValueError, match="too large"):
        contraction_solve(pointwise_quadratic, p, ClassicalIFTConfig(epsilon=0.25))


def test_contraction_iterates_respect_a_priori_bound():
    cfg = ClassicalIFTConfig(epsilon=0.2)
    p = GridFunction.constant(0.09, 51)
    seen = []

    def recording(z):
        seen.append(z)
        return pointwise_quadratic(z)

    contraction_solve(recording, p, cfg)
    norm_p = sobolev_norm(p, 0)
    for z in seen:
        eta = pointwise_quadratic(z) - z  # the quadratic remainder
        bound = cfg.m * sobolev_norm(eta, 0) + cfg.m * norm_p
        next_norm = sobolev_norm(z - (pointwise_quadratic(z) - p), 0)
        assert next_norm <= bound + 1e-15
        assert bound < cfg.epsilon


def test_contraction_factor_below_half():
    cfg = ClassicalIFTConfig(epsilon=0.2)
    p = GridFunction.constant(0.09, 51)
    seen = []

    def recording(z):
        seen.append(z)
        return pointwise_quadratic(z)

    contraction_solve(recording, p, cfg)
    dists = [sobolev_norm(b - a, 0) for a, b in zip(seen, seen[1:])]
    ratios = [b / a for a, b in zip(dists, dists[1:]) if a > 1e-14]
    assert ratios and max(ratios) <= 0.5


def test_contraction_escape_raises():
    def drifting(z):
        return GridFunction.zeros(z.n)  # B(z) = z + p walks out of the ball

    p = GridFunction.constant(0.1, 51)
    with pytest.raises(ContractionEscapeError):
        contraction_solve(drifting, p, ClassicalIFTConfig(epsilon=0.25))


def test_contraction_budget_exhaustion_raises():
    p = GridFunction.constant(0.1, 51)
    with pytest.raises(ConvergenceError):
        contraction_solve(pointwise_quadratic, p,
                          ClassicalIFTConfig(max_iter=2, tol=1e-12))


def test_ift_config_validation():
    with pytest.raises(ValueError):
        ClassicalIFTConfig(m=0.0)
    with pytest.raises(ValueError):
        ClassicalIFTConfig(epsilon=-1.0)
    with pytest.raises(ValueError):
        ClassicalIFTConfig(max_iter=0)


# --- loss-of-derivatives probe ---------------------------------------------------

@pytest.fixture(scope="module")
def probe401():
    setup = ProblemSetup.from_reference(
        QuadraticVolterra(), GridFunction.constant(1.0, 401), 0.05)
    return smoothing_loss_probe(setup, setup.U, 32)


def test_probe_constant_mode_maps_to_zero(probe401):
    assert probe401.modes[0].k == 0
    assert probe401.modes[0].ratio_same_index == 0.0
    assert probe401.modes[0].ratio_shifted_index == 0.0


def test_probe_same_index_growth_is_linear(probe401):
    assert 0.9 <= probe401.exponent <= 1.1
    # mode k maps to (k pi / 2) cos(k pi x): same-index ratio ~ k pi / 2
    assert probe401.modes[1].ratio_same_index == pytest.approx(math.pi / 2.0, rel=1e-3)


def test_probe_shifted_index_ratio_stays_bounded(probe401):
    shifted = [m.ratio_shifted_index for m in probe401.modes if m.k >= 1]
    assert max(shifted) <= 1.1 * shifted[0]
    assert min(shifted) >= 0.9 * shifted[0]
    # bounded by the inverse of the two-sided lower constant (about 1/2 here)
    assert max(shifted) <= 1.0 / 1.9


def test_probe_requires_resolved_modes():
    setup = ProblemSetup.from_reference(
        QuadraticVolterra(), GridFunction.constant(1.0, 201), 0.05)
    with pytest.raises(ValueError, match="under-resolved"):
        smoothing_loss_probe(setup, setup.U, 100)


def test_probe_rejects_zero_modes():
    setup = ProblemSetup.from_reference(
        QuadraticVolterra(), GridFunction.constant(1.0, 201), 0.05)
    with pytest.raises(ValueError):
        smoothing_loss_probe(setup, setup.U, 0)


# --- CSV writers -----------------------------------------------------------------

def test_iteration_csv_with_and_without_oracle(tmp_path, setup201):
    h = GridFunction(1.21 * setup201.U.x)
    record = newton_solve(setup201, setup201.U, h)
    path = tmp_path / "iters.csv"
    write_iteration_csv(record, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "k,residual,dist_to_oracle"
    assert lines[1].endswith(",")  # no oracle supplied

    oracle = GridFunction.constant(1.1, 201)
    record = newton_solve(setup201, setup201.U, h, oracle=oracle)
    write_iteration_csv(record, path)
    lines = path.read_text().strip().splitlines()
    assert not lines[1].endswith(",")


def test_loss_probe_csv(tmp_path, probe401):
    path = tmp_path / "probe.csv"
    write_loss_probe_csv(probe401, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "k,ratio_same_index,ratio_shifted_index"
    assert len(lines) == len(probe401.modes) + 1
    assert lines[1].startswith("0,0,")
