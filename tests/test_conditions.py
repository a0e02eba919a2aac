import collections
import re

import numpy as np
import pytest

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
)
from dsmflow.sampling import DIRECTION_DRAWS, sample_in_ball, trig_polynomial, unit_direction
from dsmflow.scale import BLOCK_ELEMENTS, GridFunction, sobolev_norm


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

def reference_estimate_constants(p, sample_count, seed):
    """One sample at a time, each drawing u, v, w and q from the generator."""
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
            a_u_q = op.apply_derivative(u, q)
            two_sided = sobolev_norm(a_u_q, p.a + p.delta) / q_norm
            iso = sobolev_norm(
                op.solve_derivative(v, op.apply_derivative(w, q)), p.a) / q_norm
            diff = a_u_q - op.apply_derivative(v, q)
            lip = sobolev_norm(op.solve_derivative(u, diff), p.a) / (
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
    (201, 50),    # blocks of 40 rows: 40 + 10
    (2001, 10),   # blocks of 4 rows: 4 + 4 + 2
    (4097, 11),   # blocks of 2 rows: five of 2, then 1
    (20001, 11),  # the grid of verify-large and sweep-large, as at 4097
])
def test_block_estimate_matches_per_sample_loop(operator, n, samples):
    rows = max(2, BLOCK_ELEMENTS // n)
    assert samples % rows != 0  # the last block is padded
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
    assert samples % rows != 0  # the last block is padded
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


# 11 samples: blocks of 14 rows (7 chunks of 2) at n = 4097, of 2 rows at
# n = 20001, the last block holding only the samples left
LARGE_GRID_BLOCKS = {4097: [(11, 71)], 20001: [(2, 71)] * 5 + [(1, 71)]}


@pytest.mark.parametrize("n", [4097, 20001])
def test_large_grids_evaluate_blocks_of_two_rows(n, monkeypatch):
    setup = ProblemSetup.from_reference(LinearSmoothing(), GridFunction.constant(1.0, n), 0.05)
    shapes = []
    _recording_ratios(monkeypatch, lambda draws, ratios: shapes.append(draws.shape))
    estimate_constants(setup, 11, 2)
    assert shapes == LARGE_GRID_BLOCKS[n]


def test_estimate_passes_over_nan_and_uses_each_draw_once(setup201, monkeypatch):
    rows = 320  # 8 chunks of 40 rows at n = 201
    blocks = []

    def record(draws, ratios):
        for r in ratios:
            r[0] = np.nan  # the reductions pass over it
        blocks.append((draws, ratios))

    _recording_ratios(monkeypatch, record)
    report = estimate_constants(setup201, rows + 5, 17)
    draws, ratios = zip(*blocks)
    assert [d.shape for d in draws] == [(rows, 71), (5, 71)]
    # every draw reaches one row, in the order of one-at-a-time draws
    assert np.array_equal(np.concatenate(draws),
                          np.random.default_rng(17).random((rows + 5, 71)))
    two_sided, iso, lip = (np.concatenate(parts) for parts in zip(*ratios))
    assert np.isnan(two_sided).sum() == 2
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


# sobolev_norm only off the sampling span: A(u)q, the u - v distance and the
# two A^{-1} images; the samples' own norms come from their coefficients
FULL_CALLS = {"trig_polynomial": 4, "sample_in_ball": 3, "unit_direction": 1,
              "apply_derivative": 3, "solve_derivative": 2, "sobolev_norm": 4}
# no w, no A^{-1}, no u - v distance
BRACKET_CALLS = {"trig_polynomial": 3, "sample_in_ball": 2, "unit_direction": 1,
                 "apply_derivative": 1, "solve_derivative": 0, "sobolev_norm": 1}


@pytest.mark.parametrize("operator, bracket_only, per_block", [
    pytest.param(QuadraticVolterra(), False, FULL_CALLS, id="volterra"),
    pytest.param(LinearSmoothing(), False, FULL_CALLS, id="linear"),
    pytest.param(QuadraticVolterra(), True, BRACKET_CALLS, id="volterra-bracket"),
    pytest.param(LinearSmoothing(), True, BRACKET_CALLS, id="linear-bracket"),
])
def test_estimate_calls_each_layer_once_per_block(operator, bracket_only, per_block,
                                                  monkeypatch):
    setup = ProblemSetup.from_reference(operator, GridFunction.constant(1.0, 201), 0.05)
    counts = collections.Counter()
    modules = (dsmflow.scale, dsmflow.sampling, conditions_module, dsmflow.operators)
    for name in ("trig_polynomial", "sample_in_ball", "unit_direction", "sobolev_norm"):
        _count_calls(monkeypatch, counts, name, modules)
    for name in ("apply_derivative", "solve_derivative"):
        _count_calls(monkeypatch, counts, name, (type(operator),))
    # blocks of 320 rows at n = 201
    for samples, blocks in ((20, 1), (320, 1), (330, 2)):
        counts.clear()
        estimate_constants(setup, samples, 1, bracket_only=bracket_only)
        assert dict(counts) == {name: blocks * c for name, c in per_block.items() if c}


def test_guarded_coinciding_samples_are_skipped_not_too_small():
    # every sample sits at U = 0.05, below the guard: skipped before the
    # zero-distance check, as one sample at a time would skip it
    setup = ProblemSetup.from_reference(
        QuadraticVolterra(u_min=0.1), GridFunction.constant(0.05, 21), 1e-300)
    with pytest.raises(EstimationError):
        estimate_constants(setup, 10, 0)
