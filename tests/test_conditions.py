import numpy as np
import pytest

from dsmflow.conditions import (
    ConstantsReport,
    EstimationError,
    admissibility_check,
    estimate_constants,
    r_bound,
    rho_max,
)
from dsmflow.flow import STOP_CONVERGED, FlowConfig, integrate_flow
from dsmflow.operators import LinearSmoothing, ProblemSetup, QuadraticVolterra
from dsmflow.sampling import sample_in_ball, trig_polynomial, unit_direction
from dsmflow.scale import GridFunction, sobolev_norm


@pytest.fixture(scope="module")
def setup201():
    return ProblemSetup.from_reference(
        QuadraticVolterra(), GridFunction.constant(1.0, 201), 0.05)


@pytest.fixture(scope="module")
def report42(setup201):
    return estimate_constants(setup201, 200, 42)


# --- smallness arithmetic ----------------------------------------------------

def test_rho_max_unit_case_is_exact():
    assert rho_max(1.0, 1.0, 1.0) == 1.0 / 3.0


def test_rho_max_direct_quotient():
    assert rho_max(0.5, 2.0, 1.0) == 0.25


def test_rho_max_approaches_radius_for_large_c0():
    assert rho_max(1.0, 1e12, 1.0) == pytest.approx(1.0, rel=1e-11)


def test_rho_max_rejects_nonpositive_inputs():
    for args in [(0.0, 1.0, 1.0), (1.0, 0.0, 1.0), (1.0, 1.0, -1.0)]:
        with pytest.raises(ValueError):
            rho_max(*args)


def test_rho_max_monotonicity_grid():
    grid = (0.5, 1.0, 2.0)
    for c0 in grid:
        for cp in grid:
            values = [rho_max(R, c0, cp) for R in grid]
            assert values == sorted(values)
    for R in grid:
        for cp in grid:
            values = [rho_max(R, c0, cp) for c0 in grid]
            assert values == sorted(values)
    for R in grid:
        for c0 in grid:
            values = [rho_max(R, c0, cp) for cp in grid]
            assert values == sorted(values, reverse=True)


def test_r_bound_values():
    assert r_bound(0.0, 1.5) == 0.0
    assert r_bound(0.3, 1.5) == pytest.approx(0.2, rel=1e-15)
    # at the analytic cap g0 = (1 + c0') * rho the bound equals its ceiling
    c0, c0p, rho = 1.7, 2.4, 0.01
    assert r_bound((1.0 + c0p) * rho, c0) == pytest.approx((1.0 + c0p) * rho / c0, rel=1e-15)


def test_r_bound_rejects_bad_inputs():
    with pytest.raises(ValueError):
        r_bound(-1.0, 1.0)
    with pytest.raises(ValueError):
        r_bound(1.0, 0.0)


# --- sampling helpers ----------------------------------------------------------

def test_sampler_prefix_property():
    rng1 = np.random.default_rng(5)
    rng2 = np.random.default_rng(5)
    first = [trig_polynomial(rng1, 21).values for _ in range(3)]
    second = [trig_polynomial(rng2, 21).values for _ in range(5)]
    for a, b in zip(first, second):
        assert np.array_equal(a, b)


def test_ball_sample_stays_in_ball():
    rng = np.random.default_rng(6)
    center = GridFunction.constant(1.0, 101)
    for _ in range(20):
        u = sample_in_ball(rng, center, 0.05, 1)
        assert sobolev_norm(u - center, 1) <= 0.05 * (1.0 + 1e-12)


def test_unit_direction_has_unit_norm():
    rng = np.random.default_rng(7)
    for a in (0, 1, 2):
        q = unit_direction(rng, 101, a)
        assert sobolev_norm(q, a) == pytest.approx(1.0, rel=1e-12)


# --- constants estimation ------------------------------------------------------

def test_volterra_constants_within_analytic_brackets(report42):
    # brackets pre-computed by brute force against the closed-form ratios at
    # the reference point (see the analytic bound 2 <= ratio <= 2*sqrt(2))
    assert 1.7 <= report42.c0_lower <= 2.0
    assert 2.0 <= report42.c0_upper <= 2.9
    assert report42.c0_lower <= report42.c0_upper
    assert report42.skipped == 0
    assert report42.c_lip > 0.0


def test_report_rho0_recomputable(report42):
    assert report42.rho0 == rho_max(report42.radius, report42.c0_lower,
                                    report42.c0_upper)


def test_linear_smoothing_constants_are_degenerate():
    setup = ProblemSetup.from_reference(
        LinearSmoothing(), GridFunction.constant(1.0, 201), 0.05)
    report = estimate_constants(setup, 100, 7)
    assert report.c_lip == 0.0
    assert abs(report.c_iso - 1.0) <= 5e-3


def test_linear_smoothing_c_iso_deviation_shrinks_with_grid():
    devs = {}
    for n in (201, 401):
        setup = ProblemSetup.from_reference(
            LinearSmoothing(), GridFunction.constant(1.0, n), 0.05)
        devs[n] = abs(estimate_constants(setup, 100, 7).c_iso - 1.0)
    assert devs[401] <= devs[201] / 3.0


def test_sample_monotonicity_under_extension(setup201):
    small = estimate_constants(setup201, 50, 5)
    large = estimate_constants(setup201, 100, 5)
    assert large.c0_lower <= small.c0_lower
    assert large.c0_upper >= small.c0_upper
    assert large.c_iso >= small.c_iso
    assert large.c_lip >= small.c_lip


def test_sample_count_floor(setup201):
    with pytest.raises(ValueError):
        estimate_constants(setup201, 9, 0)


def test_radius_too_small_to_separate_samples_raises():
    setup = ProblemSetup.from_reference(
        QuadraticVolterra(), GridFunction.constant(1.0, 21), 1e-300)
    with pytest.raises(ValueError, match="too small"):
        estimate_constants(setup, 10, 0)


def test_all_guarded_samples_raise():
    # reference point below the division guard: every sample is rejected
    op = QuadraticVolterra(u_min=0.1)
    setup = ProblemSetup.from_reference(op, GridFunction.constant(0.05, 101), 0.01)
    with pytest.raises(EstimationError):
        estimate_constants(setup, 20, 0)


# --- admissibility --------------------------------------------------------------

def test_trivial_pair_is_admissible(setup201, report42):
    verdict = admissibility_check(setup201, setup201.U, setup201.f, report42)
    assert verdict.admissible
    assert verdict.r == 0.0
    assert verdict.margin == report42.rho0
    assert verdict.radius_ok


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("u0_scale, h_scale, name", [
    (1e160, 0.0, "dist_u0"),
    (0.0, 1e160, "dist_h"),
    (1e100, 0.0, "g0"),  # both distances finite, but ||F(u0) - h|| overflows
])
def test_admissibility_rejects_overflowing_data(setup201, report42, u0_scale, h_scale, name):
    u0 = setup201.U + GridFunction.constant(u0_scale, 201)
    h = setup201.f + GridFunction(h_scale * setup201.U.x)
    with pytest.raises(ValueError, match=f"^{name} is not finite"):
        admissibility_check(setup201, u0, h, report42)


def test_admissibility_margin_arithmetic(setup201, report42):
    rng = np.random.default_rng(8)
    crafted = ConstantsReport(
        c0_lower=2.0, c0_upper=2.0, c_iso=1.0, c_lip=0.2,
        rho0=0.2, radius=setup201.R, sample_count=10, seed=0, skipped=0)
    u0 = setup201.U + 0.1 * unit_direction(rng, 201, 1)
    h = setup201.f + 0.05 * unit_direction(rng, 201, 2)
    verdict = admissibility_check(setup201, u0, h, crafted)
    assert verdict.dist_u0 == pytest.approx(0.1, rel=1e-12)
    assert verdict.dist_h == pytest.approx(0.05, rel=1e-12)
    assert verdict.admissible
    assert verdict.margin == pytest.approx(0.1, rel=1e-9)
    assert verdict.R_required == pytest.approx(verdict.r + 0.1, rel=1e-12)


def test_inadmissible_when_rho0_small(setup201, report42):
    rng = np.random.default_rng(9)
    crafted = ConstantsReport(
        c0_lower=2.0, c0_upper=2.0, c_iso=1.0, c_lip=0.2,
        rho0=0.05, radius=setup201.R, sample_count=10, seed=0, skipped=0)
    u0 = setup201.U + 0.1 * unit_direction(rng, 201, 1)
    verdict = admissibility_check(setup201, u0, setup201.f, crafted)
    assert not verdict.admissible
    assert verdict.margin < 0.0


def test_admissible_affine_pairs_converge_at_defaults(setup201, report42):
    # data in the stencil-exact family: the default tolerance is attainable
    rng = np.random.default_rng(10)
    x = setup201.U.x
    for _ in range(5):
        du = GridFunction(rng.uniform(-1, 1) + rng.uniform(-1, 1) * x)
        u0 = setup201.U + du * (report42.rho0 * rng.uniform(0, 1) / sobolev_norm(du, 1))
        dh = GridFunction(rng.uniform(-1, 1) * x + rng.uniform(-1, 1) * x * x)
        h = setup201.f + dh * (report42.rho0 * rng.uniform(0, 1) / sobolev_norm(dh, 2))
        verdict = admissibility_check(setup201, u0, h, report42)
        assert verdict.admissible
        traj = integrate_flow(setup201, u0, h, FlowConfig(enforce_ball=True))
        assert traj.stop_reason == STOP_CONVERGED
