import collections
import math
import re
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dsmflow.conditions as conditions_module
import dsmflow.operators
import dsmflow.sampling
import dsmflow.scale
from dsmflow.conditions import (
    ConstantsReport,
    EstimationError,
    admissibility_check,
    estimate_constants,
    r_bound,
    rho_max,
)
from dsmflow.flow import STOP_CONVERGED, FlowConfig, integrate_flow
from dsmflow.operators import (
    DegenerateCoefficient,
    LinearSmoothing,
    ProblemSetup,
    QuadraticVolterra,
    ScaleOperator,
)
from dsmflow.sampling import (
    DIRECTION_DRAWS,
    POINT_DRAWS,
    _ball_reach,
    sample_in_ball,
    trig_polynomial,
    unit_direction,
)
from dsmflow.scale import (
    BLOCK_ELEMENTS,
    GridFunction,
    Workspace,
    _derivative_of_integral,
    _derived,
    _pairs,
    _summed,
    sobolev_norm,
)


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
        # a batch of draws, as the constants estimate passes them
        q = unit_direction(rng.random((4, DIRECTION_DRAWS)), 20001, a)
        np.testing.assert_allclose(sobolev_norm(q, a), 1.0, rtol=1e-12, atol=0.0)


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


def test_a_second_estimate_builds_no_new_span_gram():
    setup = ProblemSetup.from_reference(
        QuadraticVolterra(), GridFunction.constant(1.0, 203), 0.05)
    misses = dsmflow.sampling._span_gram.cache_info().misses
    first = estimate_constants(setup, 10, 0)
    # one Gram matrix, for the ball's index a, serves points and directions alike
    assert dsmflow.sampling._span_gram.cache_info().misses == misses + 1
    assert estimate_constants(setup, 10, 0) == first
    assert dsmflow.sampling._span_gram.cache_info().misses == misses + 1


def test_sample_count_floor(setup201):
    with pytest.raises(ValueError):
        estimate_constants(setup201, 9, 0)


def test_negative_seed_is_named(setup201):
    with pytest.raises(ValueError, match="^seed must be a non-negative integer, got -1$"):
        estimate_constants(setup201, 10, -1)


def test_radius_too_small_to_separate_samples_raises():
    # At 1e-20 the sampled points round to U although their coefficients
    # differ: only a distance taken from the rounded values sees them coincide.
    for n, radius in ((21, 1e-300), (201, 1e-20)):
        setup = ProblemSetup.from_reference(
            QuadraticVolterra(), GridFunction.constant(1.0, n), radius)
        message = f"ball radius {radius!r} is too small: sampled points coincide"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
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


# --- block evaluation against the per-sample loop --------------------------------

def fused_slope(op, u, q):
    """D A(u)q by the fused stencil M = ``scale._derivative_of_integral``:
    2 M(u q) for ``QuadraticVolterra``, M(q) for ``LinearSmoothing``."""
    values = (u * q).values if isinstance(op, QuadraticVolterra) else q.values
    out = np.empty_like(values)
    pairs = np.empty(values.shape[:-1] + (values.shape[-1] - 1,))
    slope = _derivative_of_integral(_summed(values), _derived(out), _pairs(pairs))
    return 2.0 * slope if isinstance(op, QuadraticVolterra) else slope


def solved(op, u, slope):
    """A(u)^{-1} of the function whose derivative is ``slope``, by the
    workspace form of ``solve_derivative``, which raises at the guard."""
    out = _derived(slope)
    return GridFunction(op.solve_derivative(u.values, out, Workspace(slope.shape), out))


def reference_estimate_constants(p, sample_count, seed):
    """One sample at a time, each drawing u, v, w and q from the generator;
    c_iso and c_lip from the fused slopes D A(.)q."""
    op = p.operator
    rng = np.random.default_rng(seed)
    two_sided_all, iso_all, lip_all = [], [], []
    for _ in range(sample_count):
        u = sample_in_ball(rng, p.U, p.R, p.a)
        v = sample_in_ball(rng, p.U, p.R, p.a)
        w = sample_in_ball(rng, p.U, p.R, p.a)
        q = unit_direction(rng, p.U.n, p.a)
        try:
            q_norm = sobolev_norm(q, p.a)
            two_sided = sobolev_norm(op.apply_derivative(u, q), p.a + p.delta) / q_norm
            iso = sobolev_norm(solved(op, v, fused_slope(op, w, q)), p.a) / q_norm
            diff = fused_slope(op, u, q) - fused_slope(op, v, q)
            lip = sobolev_norm(solved(op, u, diff), p.a) / (
                sobolev_norm(u - v, p.a) * q_norm)
        except DegenerateCoefficient:
            continue
        two_sided_all.append(two_sided)
        iso_all.append(iso)
        lip_all.append(lip)
    return (min(two_sided_all), max(two_sided_all), max(iso_all), max(lip_all),
            sample_count - len(two_sided_all))


OPERATORS = [pytest.param(QuadraticVolterra(), id="volterra"),
             pytest.param(LinearSmoothing(), id="linear")]


@pytest.mark.parametrize("operator", OPERATORS)
@pytest.mark.parametrize("n, samples", [
    (201, 50),    # one block; product chunks of 40 rows: 40 + 10
    (2001, 10),   # one block; chunks of 4 rows: 4 + 4 + 2
    (4097, 11),   # one block; chunks of 2 rows: five of 2, then 1
    (20001, 11),  # the grid of verify-large and sweep-large: six blocks,
                  # five of 2 rows and one of 1, each one chunk
])
def test_block_estimate_matches_per_sample_loop(operator, n, samples):
    rows = max(2, BLOCK_ELEMENTS // n)
    assert samples % rows != 0  # the last product chunk is zero-padded
    setup = ProblemSetup.from_reference(operator, GridFunction.constant(1.0, n), 0.05)
    report = estimate_constants(setup, samples, 3)
    *want, skipped = reference_estimate_constants(setup, samples, 3)
    got = (report.c0_lower, report.c0_upper, report.c_iso, report.c_lip)
    for g, w in zip(got, want):
        assert g == pytest.approx(w, rel=1e-12)
    assert report.skipped == skipped == 0
    assert report.sample_count == samples


def test_block_estimate_skips_the_same_samples():
    # u_min = 0.95 inside a ball of radius 0.5 around U = 1: some samples trip
    setup = ProblemSetup.from_reference(
        QuadraticVolterra(u_min=0.95), GridFunction.constant(1.0, 201), 0.5)
    report = estimate_constants(setup, 60, 4)
    *want, skipped = reference_estimate_constants(setup, 60, 4)
    assert report.skipped == skipped == 20
    got = (report.c0_lower, report.c0_upper, report.c_iso, report.c_lip)
    for g, w in zip(got, want):
        assert g == pytest.approx(w, rel=1e-12)


def test_block_estimate_consumes_71_scalar_draws_per_sample(setup201, monkeypatch):
    created = []
    default_rng = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng",
                        lambda seed: created.append(default_rng(seed)) or created[-1])
    estimate_constants(setup201, 50, 9)
    monkeypatch.undo()
    ref = np.random.default_rng(9)
    for _ in range(50 * 71):
        ref.uniform(0.0, 1.0)
    assert created[0].bit_generator.state == ref.bit_generator.state


def _recording_ratios(monkeypatch, record):
    """Make estimate_constants hand each block's draws and ratios to
    ``record``."""
    original = conditions_module._constants_ratios

    def recording(p, draws, *rest):
        ratios = original(p, draws, *rest)
        record(draws, ratios)
        return ratios

    monkeypatch.setattr(conditions_module, "_constants_ratios", recording)


def test_a_sample_evaluates_the_same_in_a_longer_run(monkeypatch):
    runs = []
    _recording_ratios(monkeypatch, lambda draws, ratios: runs[-1].append(ratios))
    # blocks of 40 rows at n = 201 and of 2 rows at n = 4097
    for n, short, long in ((201, 50, 100), (4097, 11, 24)):
        setup = ProblemSetup.from_reference(
            QuadraticVolterra(), GridFunction.constant(1.0, n), 0.05)
        for samples in (short, long):
            runs.append([])
            estimate_constants(setup, samples, 5)
        first, second = ([np.concatenate(parts) for parts in zip(*run)] for run in runs[-2:])
        for a, b in zip(first, second):
            assert a.size == short and b.size == long
            assert np.array_equal(a, b[:short])


BRACKET_CASES = [
    pytest.param(operator, n, samples, 0.05, id=f"{name}-{n}")
    for operator, name in ((QuadraticVolterra(), "volterra"), (LinearSmoothing(), "linear"))
    for n, samples in (
        (21, 400),    # blocks of 390 rows: 390 + 10
        (201, 50),    # blocks of 40 rows: 40 + 10
        (2001, 10),   # blocks of 4 rows: 4 + 4 + 2
        (4097, 11),   # blocks of 2 rows: five of 2, then 1
    )
] + [
    # u_min = 0.95 inside a ball of radius 0.5 around U = 1: some samples trip
    pytest.param(QuadraticVolterra(u_min=0.95), 201, 60, 0.5, id="volterra-201-guarded"),
]


@pytest.mark.parametrize("operator, n, samples, radius", BRACKET_CASES)
def test_bracket_only_equals_the_full_estimate(operator, n, samples, radius, monkeypatch):
    rows = max(2, BLOCK_ELEMENTS // n)
    assert samples % rows != 0  # the last product chunk is zero-padded
    setup = ProblemSetup.from_reference(operator, GridFunction.constant(1.0, n), radius)
    runs = []
    _recording_ratios(monkeypatch, lambda draws, ratios: runs[-1].append(ratios[0]))
    reports = []
    for count, bracket_only in ((samples, False), (samples, True), (samples + rows, True)):
        runs.append([])
        reports.append(estimate_constants(setup, count, 3, bracket_only=bracket_only))
    full, bracket, longer = reports
    for name in ("c0_lower", "c0_upper", "rho0", "skipped", "sample_count", "seed"):
        assert getattr(bracket, name) == getattr(full, name)
    assert full.c_iso is not None and full.c_lip is not None
    assert bracket.c_iso is None and bracket.c_lip is None
    assert (full.skipped > 0) == (radius == 0.5)
    # the same two-sided ratio per sample, and a longer run extends a shorter one
    full_ratios, bracket_ratios, longer_ratios = (np.concatenate(run) for run in runs)
    assert np.array_equal(bracket_ratios, full_ratios)
    assert np.array_equal(longer_ratios[:bracket_ratios.size], bracket_ratios)
    assert longer.c0_lower <= bracket.c0_lower <= bracket.c0_upper <= longer.c0_upper


@pytest.mark.parametrize("operator, n, samples, radius", [
    pytest.param(QuadraticVolterra(), 20001, 11, 0.05, id="volterra-20001"),
    pytest.param(LinearSmoothing(), 20001, 11, 0.05, id="linear-20001"),
    # u_min = 0.95 inside a ball of radius 0.5 around U = 1: some samples trip
    pytest.param(QuadraticVolterra(u_min=0.95), 2001, 40, 0.5, id="volterra-2001-guarded"),
])
def test_full_estimate_keeps_the_bracket_bits(operator, n, samples, radius):
    # the fused composed and Lipschitz ratios leave the two-sided path alone
    setup = ProblemSetup.from_reference(operator, GridFunction.constant(1.0, n), radius)
    full = estimate_constants(setup, samples, 3)
    bracket = estimate_constants(setup, samples, 3, bracket_only=True)
    for name in ("c0_lower", "c0_upper", "rho0", "skipped"):
        assert getattr(full, name) == getattr(bracket, name)
    assert (full.skipped > 0) == (radius == 0.5)


# --- the fused composed and Lipschitz ratios against long double ---------------

def _long_fused(v):
    """``scale._derivative_of_integral`` of each row of v, in its dtype."""
    p = v[:, 1:] + v[:, :-1]
    out = np.empty_like(v)
    out[:, 1:-1] = (p[:, :-1] + p[:, 1:]) / 4
    out[:, 0] = (3 * p[:, 0] - p[:, 1]) / 4
    out[:, -1] = (3 * p[:, -1] - p[:, -2]) / 4
    return out


def _long_norm(f, a, dx):
    """``sobolev_norm`` of each row of f, in its dtype."""
    total = 0
    for j in range(a + 1):
        if j:
            d = np.empty_like(f)
            d[:, 1:-1] = (f[:, 2:] - f[:, :-2]) / (2 * dx)
            d[:, 0] = (4 * (f[:, 1] - f[:, 0]) - (f[:, 2] - f[:, 0])) / (2 * dx)
            d[:, -1] = (4 * (f[:, -1] - f[:, -2]) - (f[:, -1] - f[:, -3])) / (2 * dx)
            f = d
        sq = f * f
        total = total + dx * (sq.sum(-1) - (sq[:, 0] + sq[:, -1]) / 2)
    return np.sqrt(total)


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="long double is no wider than double here")
@pytest.mark.parametrize("operator", OPERATORS)
@pytest.mark.parametrize("n, samples", [(2001, 40), (20001, 11)])
def test_fused_ratios_match_long_double(operator, n, samples, monkeypatch):
    # The block's own sample points, taken to long double, through the same
    # discrete formula: D A(w)q = 2 M(w q) (M(q) for LinearSmoothing), with
    # M the fused stencil of the cumulative trapezoid integral.
    setup = ProblemSetup.from_reference(operator, GridFunction.constant(1.0, n), 0.05)
    blocks = []
    _recording_ratios(monkeypatch, lambda draws, ratios: blocks.append((draws, ratios)))
    estimate_constants(setup, samples, 3)
    a, ld = setup.a, np.longdouble
    dx = ld(1) / (n - 1)
    volterra = isinstance(operator, QuadraticVolterra)

    def slope(x, q):
        return 2 * _long_fused(x * q) if volterra else _long_fused(q)

    def divided(x, psi):
        return psi / (2 * x) if volterra else psi

    for draws, (_, iso, lip) in blocks:
        u, v, w = (sample_in_ball(draws[:, i * POINT_DRAWS:(i + 1) * POINT_DRAWS],
                                  setup.U, setup.R, a).values.astype(ld) for i in range(3))
        q = unit_direction(draws[:, 3 * POINT_DRAWS:], n, a).values.astype(ld)
        assert iso.shape == lip.shape == (len(draws),)  # no sample skipped
        want_iso = _long_norm(divided(v, slope(w, q)), a, dx)
        want_lip = (_long_norm(divided(u, slope(u, q) - slope(v, q)), a, dx)
                    / _long_norm(u - v, a, dx))
        np.testing.assert_allclose(iso, want_iso.astype(float), rtol=1e-12, atol=0)
        np.testing.assert_allclose(lip, want_lip.astype(float), rtol=1e-12, atol=0)
    assert sum(len(draws) for draws, _ in blocks) == samples


# --- the coefficient bound on v's guard ------------------------------------------

def _bracket_equals_full(setup, count, seed):
    """Assert the bracket-only report equals the full estimate's bracket,
    where the full estimate returns; False where it raises."""
    try:
        full = estimate_constants(setup, count, seed)
    except (EstimationError, ValueError):
        return False
    bracket = estimate_constants(setup, count, seed, bracket_only=True)
    for name in ("c0_lower", "c0_upper", "rho0", "skipped"):
        assert getattr(bracket, name) == getattr(full, name)
    return True


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.sampled_from([3, 201, 4097]),
       radius=st.sampled_from([1e-300, 0.05, 0.5, 1e300]),
       reach=st.floats(0.0, 2.0), ulps=st.integers(-2, 2), rows=st.integers(1, 64))
def test_the_guard_bound_is_sound(seed, n, radius, reach, ulps, rows):
    # U = 1, whose min every node holds, and u_min near min U - R (a few
    # ulps off min U itself at R = 1e-300, clamped positive at 1e300)
    U = GridFunction.constant(1.0, n)
    u_min = max(1.0 - radius * reach, 1e-3)
    for _ in range(abs(ulps)):
        u_min = float(np.nextafter(u_min, math.copysign(np.inf, ulps)))
    op = QuadraticVolterra(u_min=u_min)
    draws = np.random.default_rng(seed).random((rows, POINT_DRAWS))
    v = sample_in_ball(draws, U, radius, 1).values
    floor = U.min() - _ball_reach(draws, n, radius, 1)
    # no node lies below the floor, so a row the bound clears never trips
    assert not (v.min(-1) < floor).any()
    assert not (op._clears_guard(floor) & op._below_guard(v)).any()
    _bracket_equals_full(ProblemSetup.from_reference(op, U, radius), 10 + rows, seed)


@pytest.mark.parametrize("u_min, cleared", [
    (0.9, "every row"), (0.99, "some rows"), (1.0, "no row")])
def test_bracket_equals_the_full_estimate_wherever_the_bound_clears(u_min, cleared):
    # one block of 60 samples around U = 1 + x, whose min 1 lies at x = 0
    U = GridFunction.from_callable(lambda x: 1.0 + x, 201)
    setup = ProblemSetup.from_reference(QuadraticVolterra(u_min=u_min), U, 0.05)
    v_draws = np.random.default_rng(3).random((60, 71))[:, POINT_DRAWS:2 * POINT_DRAWS]
    clears = setup.operator._clears_guard(U.min() - _ball_reach(v_draws, 201, 0.05, 1))
    assert {60: "every row", 0: "no row"}.get(int(clears.sum()), "some rows") == cleared
    assert _bracket_equals_full(setup, 60, 3)


# --- the coefficient screen of the two-sided ratios --------------------------

def _estimate_or_error(setup, count, seed, bracket_only):
    try:
        return estimate_constants(setup, count, seed, bracket_only=bracket_only)
    except (EstimationError, ValueError) as exc:
        return type(exc), str(exc)


def _unscreened(setup, count, seed, bracket_only):
    """The estimate with the screen off: every kept row is a candidate and
    takes its two-sided ratio on the grid."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(conditions_module, "_screen", lambda *args: None)
        return _estimate_or_error(setup, count, seed, bracket_only)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.sampled_from([3, 21, 201, 4097]),
       radius=st.sampled_from([1e-300, 0.05, 0.5, 1e150]), u_min=st.floats(1e-3, 1.0),
       linear=st.booleans(), bracket_only=st.booleans(), count=st.integers(10, 40))
def test_the_screen_changes_no_estimate(seed, n, radius, u_min, linear, bracket_only, count):
    # U = 1; at n = 4097 the samples span blocks of 14 rows, so the bracket
    # also runs from one block into the next
    op = LinearSmoothing() if linear else QuadraticVolterra(u_min=u_min)
    setup = ProblemSetup.from_reference(op, GridFunction.constant(1.0, n), radius)
    assert _estimate_or_error(setup, count, seed, bracket_only) == _unscreened(
        setup, count, seed, bracket_only)


@pytest.mark.parametrize("n", [21, 201, 2001, 20001])
def test_screened_ratios_match_the_grid(n):
    # the screen's margin is a thousand times its largest error
    rows = 20 if n == 20001 else 200
    worst = 0.0
    for op in (QuadraticVolterra(), LinearSmoothing()):
        for center, radius in ((1.0, 0.05), (1.0, 0.5), (2.5, 3.0)):
            setup = ProblemSetup.from_reference(op, GridFunction.constant(center, n), radius)
            draws = np.random.default_rng([n, int(radius * 100)]).random((rows, 71))
            screened = conditions_module._screen(setup, center, draws)
            u = sample_in_ball(draws[:, :POINT_DRAWS], setup.U, radius, setup.a)
            q = unit_direction(draws[:, 3 * POINT_DRAWS:], n, setup.a)
            grid = sobolev_norm(op.apply_derivative(u, q), setup.a + setup.delta)
            worst = max(worst, np.max(np.abs(screened / grid - 1.0)))
    assert worst <= conditions_module.SCREEN_TOLERANCE / 1000


@dataclass(frozen=True)
class UnscreenedSmoothing(ScaleOperator):
    """``LinearSmoothing`` less its screen: a subclass that states no
    A(u)q in the images' basis."""

    a: int = 1
    delta: int = 1
    eval = LinearSmoothing.eval
    apply_derivative = LinearSmoothing.apply_derivative
    _eval = LinearSmoothing._eval
    _eval_slope = LinearSmoothing._eval_slope
    _apply_slope = LinearSmoothing._apply_slope


@pytest.mark.parametrize("bracket_only", [False, True])
@pytest.mark.parametrize("operator, U, reference", [
    # U not constant: u = U + s c B lies outside the sampling basis
    pytest.param(QuadraticVolterra(), GridFunction.from_callable(lambda x: 1.0 + 0.2 * x, 201),
                 None, id="volterra-U-not-constant"),
    pytest.param(UnscreenedSmoothing(), GridFunction.constant(1.0, 201), LinearSmoothing(),
                 id="operator-without-screen"),
])
def test_without_a_screen_every_kept_row_is_taken_on_the_grid(operator, U, reference,
                                                                bracket_only, monkeypatch):
    setup = ProblemSetup.from_reference(operator, U, 0.05)
    rows = []
    apply = type(operator).apply_derivative
    monkeypatch.setattr(type(operator), "apply_derivative",
                        lambda self, u, q: rows.append(len(u.values)) or apply(self, u, q))
    report = estimate_constants(setup, 60, 3, bracket_only=bracket_only)
    assert sum(rows) == 60 - report.skipped
    monkeypatch.undo()
    assert report == _unscreened(setup, 60, 3, bracket_only)
    if reference is not None:  # the same numbers as the built-in, screened
        screened = estimate_constants(ProblemSetup.from_reference(reference, U, 0.05), 60, 3,
                                      bracket_only=bracket_only)
        assert report == screened


# 11 samples: blocks of 14 rows (7 chunks of 2) at n = 4097, of 2 rows at
# n = 20001, the last block holding only the samples left
LARGE_GRID_BLOCKS = {4097: [(11, 71)], 20001: [(2, 71)] * 5 + [(1, 71)]}


@pytest.mark.parametrize("n", [4097, 20001])
def test_large_grids_run_one_block_at_4097_and_two_row_blocks_at_20001(n, monkeypatch):
    setup = ProblemSetup.from_reference(LinearSmoothing(), GridFunction.constant(1.0, n), 0.05)
    shapes = []
    _recording_ratios(monkeypatch, lambda draws, ratios: shapes.append(draws.shape))
    estimate_constants(setup, 11, 2)
    assert shapes == LARGE_GRID_BLOCKS[n]


def test_estimate_passes_over_nan_and_uses_each_draw_once(setup201, monkeypatch):
    rows = 320  # 8 chunks of 40 rows at n = 201
    blocks, grid = [], []

    def record(draws, ratios):
        for r in ratios[1:]:
            r[0] = np.nan  # the reductions pass over it
        blocks.append((draws, ratios))

    _recording_ratios(monkeypatch, record)
    norm = conditions_module.sobolev_norm

    def first_nan(f, a):
        # the two-sided ratios the bracket takes on the grid, the first NaN
        ratios = norm(f, a)
        ratios[0] = np.nan
        grid.append(ratios)
        return ratios

    monkeypatch.setattr(conditions_module, "sobolev_norm", first_nan)
    report = estimate_constants(setup201, rows + 5, 17)
    draws, ratios = zip(*blocks)
    assert [d.shape for d in draws] == [(rows, 71), (5, 71)]
    # every draw reaches one row, in the order of one-at-a-time draws
    assert np.array_equal(np.concatenate(draws),
                          np.random.default_rng(17).random((rows + 5, 71)))
    screened, iso, lip = (np.concatenate(parts) for parts in zip(*ratios))
    two_sided = np.concatenate(grid)
    assert screened.size == rows + 5 and np.isnan(two_sided).sum() == len(grid)
    assert (report.c0_lower, report.c0_upper, report.c_iso, report.c_lip) == (
        np.nanmin(two_sided), np.nanmax(two_sided), np.nanmax(iso), np.nanmax(lip))
    assert report.skipped == 0


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_constant_raises_naming_it():
    # ||u - v|| overflows on a ball this large, so no finite c_lip exists
    setup = ProblemSetup.from_reference(
        LinearSmoothing(), GridFunction.constant(1.0, 21), 1e300)
    with pytest.raises(ValueError, match="^c_lip is not finite"):
        estimate_constants(setup, 10, 0)


# --- call path: the batch goes through the public layers ------------------------

def _count_calls(monkeypatch, counts, name, owners):
    for owner in owners:
        if name not in vars(owner):
            continue
        original = vars(owner)[name]

        def counting(*args, _original=original, **kwargs):
            counts[name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)


# Per block: the full estimate draws u, v, w and q and takes the u - v
# distance with sobolev_norm, and divides the fused slopes D A(.)q in the
# block's scratch; the bracket draws u and v only where the coefficient
# bound cannot clear their guard, as at u_min = 0.99, and never q. The
# samples' own norms come from their coefficients.
FULL_CALLS = {"trig_polynomial": 4, "sample_in_ball": 3, "unit_direction": 1,
              "solve_derivative": 2, "sobolev_norm": 1}
GUARDED_BRACKET_CALLS = {"trig_polynomial": 2, "sample_in_ball": 2}
# Per block that holds a candidate for the bracket's min or max: its
# two-sided ratios on the grid, through apply_derivative and sobolev_norm,
# from the block's u and q, or from the candidates' chunks drawn again.
FULL_CANDIDATE_CALLS = {"apply_derivative": 1, "sobolev_norm": 1}
BRACKET_CANDIDATE_CALLS = {"trig_polynomial": 2, "sample_in_ball": 1, "unit_direction": 1,
                           "apply_derivative": 1, "sobolev_norm": 1}


@pytest.mark.parametrize("operator, bracket_only, per_block, per_candidate_block", [
    pytest.param(QuadraticVolterra(), False, FULL_CALLS, FULL_CANDIDATE_CALLS, id="volterra"),
    pytest.param(LinearSmoothing(), False, FULL_CALLS, FULL_CANDIDATE_CALLS, id="linear"),
    pytest.param(QuadraticVolterra(), True, {}, BRACKET_CANDIDATE_CALLS, id="volterra-bracket"),
    pytest.param(LinearSmoothing(), True, {}, BRACKET_CANDIDATE_CALLS, id="linear-bracket"),
    pytest.param(QuadraticVolterra(u_min=0.99), True, GUARDED_BRACKET_CALLS,
                 BRACKET_CANDIDATE_CALLS, id="volterra-bracket-guarded"),
])
def test_estimate_calls_each_layer_once_per_block(operator, bracket_only, per_block,
                                                  per_candidate_block, monkeypatch):
    setup = ProblemSetup.from_reference(operator, GridFunction.constant(1.0, 201), 0.05)
    counts = collections.Counter()
    modules = (dsmflow.scale, dsmflow.sampling, conditions_module, dsmflow.operators)
    for name in ("trig_polynomial", "sample_in_ball", "unit_direction", "sobolev_norm"):
        _count_calls(monkeypatch, counts, name, modules)
    for name in ("apply_derivative", "solve_derivative"):
        _count_calls(monkeypatch, counts, name, (type(operator),))
    # blocks of 320 rows at n = 201; at seed 1 no screened ratio of the
    # second block of 330 samples comes near the first block's bracket
    for samples, blocks in ((20, 1), (320, 1), (330, 2)):
        counts.clear()
        estimate_constants(setup, samples, 1, bracket_only=bracket_only)
        want = collections.Counter({name: blocks * c for name, c in per_block.items()})
        want.update(per_candidate_block)
        assert dict(counts) == dict(want)


def test_guarded_coinciding_samples_are_skipped_not_too_small():
    # every sample sits at U = 0.05, below the guard: skipped before the
    # zero-distance check, as one sample at a time would skip it
    setup = ProblemSetup.from_reference(
        QuadraticVolterra(u_min=0.1), GridFunction.constant(0.05, 21), 1e-300)
    with pytest.raises(EstimationError):
        estimate_constants(setup, 10, 0)
