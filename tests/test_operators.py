import math
from dataclasses import dataclass

import numpy as np
import pytest

from dsmflow.operators import (
    DegenerateCoefficient,
    LinearSmoothing,
    ProblemSetup,
    QuadraticVolterra,
    dsm_vector_field,
    make_operator,
)
from dsmflow.sampling import sample_in_ball, unit_direction
from dsmflow.scale import GridFunction, GridMismatchError, Workspace, sobolev_norm


@pytest.fixture
def setup201():
    op = QuadraticVolterra()
    return ProblemSetup.from_reference(op, GridFunction.constant(1.0, 201), 0.05)


def random_cubic(rng, x):
    c = rng.uniform(-1.0, 1.0, size=4)
    return GridFunction(c[0] + c[1] * x + c[2] * x**2 + c[3] * x**3)


# --- forward map -----------------------------------------------------------

def test_eval_of_unit_constant_is_x(setup201):
    out = setup201.operator.eval(setup201.U)
    assert np.max(np.abs(out.values - out.x)) <= 1e-12


def test_eval_of_zero_is_zero():
    op = QuadraticVolterra()
    out = op.eval(GridFunction.zeros(101))
    assert np.all(out.values == 0.0)


def test_eval_of_linear_is_cubic_over_three():
    op = QuadraticVolterra()
    u = GridFunction.from_callable(lambda x: x, 201)
    out = op.eval(u)
    assert np.max(np.abs(out.values - u.x**3 / 3.0)) <= u.dx**2


# --- derivative application ------------------------------------------------

def test_apply_derivative_units(setup201):
    op = setup201.operator
    one = setup201.U
    out = op.apply_derivative(one, one)
    assert np.max(np.abs(out.values - 2.0 * one.x)) <= 1e-12


def test_apply_derivative_on_linear_direction(setup201):
    op = setup201.operator
    q = GridFunction.from_callable(lambda x: x, 201)
    out = op.apply_derivative(setup201.U, q)
    assert np.max(np.abs(out.values - q.x**2)) <= 1e-12


def test_derivative_applied_to_u_matches_twice_eval(setup201):
    rng = np.random.default_rng(4)
    u = sample_in_ball(rng, setup201.U, 0.3, 1)
    lhs = setup201.operator.apply_derivative(u, u)
    rhs = 2.0 * setup201.operator.eval(u)
    assert np.array_equal(lhs.values, rhs.values)


def test_apply_derivative_linear_in_direction(setup201):
    op = setup201.operator
    rng = np.random.default_rng(5)
    u = sample_in_ball(rng, setup201.U, 0.1, 1)
    q1 = unit_direction(rng, 201, 1)
    q2 = unit_direction(rng, 201, 1)
    alpha, beta = 0.7, -1.3
    lhs = op.apply_derivative(u, alpha * q1 + beta * q2)
    rhs = alpha * op.apply_derivative(u, q1) + beta * op.apply_derivative(u, q2)
    scale = sobolev_norm(lhs, 2)
    assert sobolev_norm(lhs - rhs, 2) <= 1e-12 * scale


def test_apply_derivative_rejects_mismatched_grids(setup201):
    with pytest.raises(GridMismatchError):
        setup201.operator.apply_derivative(setup201.U, GridFunction.zeros(11))


# --- derivative inversion --------------------------------------------------

def test_solve_derivative_linear_psi(setup201):
    out = setup201.operator.solve_derivative(
        setup201.U, GridFunction.from_callable(lambda x: x, 201))
    assert np.max(np.abs(out.values - 0.5)) <= 1e-13


def test_solve_derivative_quadratic_psi(setup201):
    psi = GridFunction.from_callable(lambda x: x * x, 201)
    out = setup201.operator.solve_derivative(setup201.U, psi)
    assert np.max(np.abs(out.values - psi.x)) <= 1e-12


def test_solve_derivative_guard_trips():
    op = QuadraticVolterra(u_min=0.1)
    low = GridFunction.constant(0.05, 101)
    with pytest.raises(DegenerateCoefficient):
        op.solve_derivative(low, GridFunction.constant(1.0, 101))


def test_divide_raises_exactly_when_some_row_dips_below_the_guard():
    op = QuadraticVolterra(u_min=0.1)
    rng = np.random.default_rng(5)
    u = rng.uniform(0.5, 1.5, (4, 21))
    v = rng.uniform(-1.0, 1.0, (4, 21))
    ws = Workspace(u.shape)
    got = op._divide(u, v.copy(), ws)
    assert np.array_equal(got, v / (2.0 * u))
    u[2, 7] = 0.1  # at the guard is not below it
    op._divide(u, v.copy(), ws)
    op._divide(u[2], v[2].copy(), Workspace((21,)))
    for row in range(4):
        dipped = u.copy()
        dipped[row, 20] = np.nextafter(0.1, 0.0)
        with pytest.raises(DegenerateCoefficient):
            op._divide(dipped, v.copy(), ws)
        with pytest.raises(DegenerateCoefficient):
            op._divide(dipped[row], v[row].copy(), Workspace((21,)))
        assert list(op._below_guard(dipped)) == [r == row for r in range(4)]
    # a NaN row trips nothing, and hides no other row's dip
    u[1, 3] = math.nan
    with np.errstate(invalid="ignore"):
        op._divide(u, v.copy(), ws)
        u[3, 0] = 0.05
        with pytest.raises(DegenerateCoefficient):
            op._divide(u, v.copy(), ws)
    # a batch of zero rows trips nothing
    empty = np.empty((0, 21))
    assert op._divide(empty, empty.copy(), Workspace(empty.shape)).shape == (0, 21)


def test_roundtrip_second_order_under_refinement():
    op = QuadraticVolterra()
    errors = {}
    for n in (101, 201, 401):
        rng = np.random.default_rng(3)
        worst = 0.0
        center = GridFunction.constant(1.0, n)
        for _ in range(10):
            u = sample_in_ball(rng, center, 0.1, 1)
            q = sample_in_ball(rng, GridFunction.zeros(n), 1.0, 1)
            back = op.solve_derivative(u, op.apply_derivative(u, q))
            worst = max(worst, float(np.max(np.abs(back.values - q.values))))
        errors[n] = worst
    assert math.log2(errors[101] / errors[201]) >= 1.9
    assert math.log2(errors[201] / errors[401]) >= 1.9


# --- vector field ----------------------------------------------------------

def test_vector_field_vanishes_at_solution(setup201):
    vf = dsm_vector_field(setup201, setup201.U, setup201.f)
    assert np.max(np.abs(vf.values)) <= 1e-12


def test_vector_field_constant_for_scaled_linear_h(setup201):
    eps = 0.1
    h = GridFunction((1.0 + eps) ** 2 * setup201.U.x)
    vf = dsm_vector_field(setup201, setup201.U, h)
    expected = eps + eps * eps / 2.0
    assert np.max(np.abs(vf.values - expected)) <= 1e-12


def test_vector_field_checks_grids_and_guard(setup201):
    with pytest.raises(GridMismatchError):
        dsm_vector_field(setup201, setup201.U, GridFunction.constant(1.0, 101))
    with pytest.raises(DegenerateCoefficient):
        dsm_vector_field(setup201, GridFunction.constant(0.05, 201), setup201.f)


@pytest.mark.parametrize("operator", [pytest.param(QuadraticVolterra(), id="volterra"),
                                      pytest.param(LinearSmoothing(), id="linear")])
def test_results_are_read_only_and_unshared(operator):
    p = ProblemSetup.from_reference(operator, GridFunction.constant(1.0, 51), 0.05)
    u = GridFunction.from_callable(lambda x: 1.0 + 0.1 * x, 51)
    psi = GridFunction.from_callable(lambda x: x * x, 51)
    for out in (operator.eval(u), operator.solve_derivative(u, psi),
                dsm_vector_field(p, u, psi)):
        assert out.values.dtype == np.float64
        assert not out.values.flags.writeable
        assert not np.shares_memory(out.values, u.values)
        assert not np.shares_memory(out.values, psi.values)


# --- the velocity ------------------------------------------------------------

def long_double_velocity(operator, u, h):
    """A(u)^{-1}(h - F(u)) = D(h - F(u)) / (2u) in np.longdouble: F by the
    cumulative trapezoid rule, D by the second-order stencils."""
    u, h = (np.asarray(v.values, dtype=np.longdouble) for v in (u, h))
    dx = np.longdouble(1.0) / (u.shape[-1] - 1)
    w = u * u if isinstance(operator, QuadraticVolterra) else u
    f = np.zeros(np.broadcast(w, h).shape, dtype=np.longdouble)
    f[..., 1:] = np.cumsum((w[..., 1:] + w[..., :-1]) * (dx / 2), axis=-1)
    r = h - f
    d = np.empty_like(r)
    d[..., 1:-1] = (r[..., 2:] - r[..., :-2]) / (2 * dx)
    d[..., 0] = (-3 * r[..., 0] + 4 * r[..., 1] - r[..., 2]) / (2 * dx)
    d[..., -1] = (3 * r[..., -1] - 4 * r[..., -2] + r[..., -3]) / (2 * dx)
    return d / (2 * u) if isinstance(operator, QuadraticVolterra) else d


def assert_velocity_near_long_double(p, u, h, rel=1e-13):
    got = dsm_vector_field(p, u, h).values
    want = long_double_velocity(p.operator, u, h)
    error = np.max(np.abs(got - want), axis=-1) / np.max(np.abs(want), axis=-1)
    assert np.all(error <= rel), error


@pytest.mark.parametrize("operator", [pytest.param(QuadraticVolterra(), id="volterra"),
                                      pytest.param(LinearSmoothing(), id="linear")])
@pytest.mark.parametrize("shape", [(3,), (201,), (7, 201)], ids=["n3", "n201", "batch"])
def test_velocity_is_the_inverse_of_h_minus_f_exactly(operator, shape):
    # the flow stores A(u)^{-1}(h - F(u)) with its own sign; IEEE negation is
    # exact, so A(u)^{-1} commutes with it bit for bit
    rng = np.random.default_rng(17)
    p = ProblemSetup.from_reference(operator, GridFunction.constant(1.0, shape[-1]), 0.05)
    u, psi, h = (GridFunction._trusted(v) for v in (
        1.0 + 0.5 * rng.uniform(-1.0, 1.0, shape),
        rng.uniform(-1.0, 1.0, shape),
        rng.uniform(-1.0, 1.0, shape)))
    solve = operator.solve_derivative
    assert np.array_equal(solve(u, -psi).values, (-solve(u, psi)).values)
    # the velocity is D h - D F(u) over 2u, not the inverse of h - F(u)
    # computed as such, so it is compared with a long-double restatement
    assert_velocity_near_long_double(p, u, h)


@pytest.mark.parametrize("operator", [pytest.param(QuadraticVolterra(), id="volterra"),
                                      pytest.param(LinearSmoothing(), id="linear")])
@pytest.mark.parametrize("n", [201, 2001, 20001])
def test_velocity_carries_no_rounding_of_the_integral(operator, n):
    # D(h - F(u)) divides the rounding of the cumulative sum F(u), about
    # eps |F|, by dx: computed so, these velocities lie 3e-13 (n = 201) to
    # 1.1e-11 (n = 20001) from the restatement; D h - D F(u), 3e-15 to 7e-15
    p = ProblemSetup.from_reference(operator, GridFunction.constant(1.0, n), 0.05)
    u = sample_in_ball(np.random.default_rng(n), p.U, 0.02, 1)
    h = GridFunction.from_callable(lambda x: x + 0.05 * x * x, n)
    assert_velocity_near_long_double(p, u, h)


# --- consistency identities ------------------------------------------------

def test_frechet_remainder_is_second_order(setup201):
    op = setup201.operator
    rng = np.random.default_rng(6)
    for _ in range(20):
        u = sample_in_ball(rng, setup201.U, 0.1, 1)
        q = unit_direction(rng, 201, 1)
        ratios = []
        for eps in (1e-2, 5e-3):
            rem = op.eval(u + eps * q) - op.eval(u) - eps * op.apply_derivative(u, q)
            ratios.append(sobolev_norm(rem, 2))
        assert 3.5 <= ratios[0] / ratios[1] <= 4.5


def test_midpoint_identity_exact_for_quadratic_operator(setup201):
    # same quadrature on both sides: node values agree to rounding, measured
    # relative to the operand scale
    op = setup201.operator
    rng = np.random.default_rng(7)
    for _ in range(20):
        u = sample_in_ball(rng, setup201.U, 0.1, 1)
        v = sample_in_ball(rng, setup201.U, 0.1, 1)
        fu, fv = op.eval(u), op.eval(v)
        lhs = fu - fv
        rhs = op.apply_derivative(0.5 * (u + v), u - v)
        assert lhs.values[0] == 0.0 and rhs.values[0] == 0.0
        scale = np.abs(fu.values[1:]) + np.abs(fv.values[1:])
        assert np.max(np.abs(lhs.values[1:] - rhs.values[1:]) / scale) <= 1e-12


def test_resolvent_identity_second_order():
    # smooth cubics keep the composition error in the asymptotic regime
    op = QuadraticVolterra()
    rel = {}
    for n in (101, 201):
        rng = np.random.default_rng(7)
        center = GridFunction.constant(1.0, n)
        x = center.x
        worst = 0.0
        for _ in range(10):
            du = random_cubic(rng, x)
            dv = random_cubic(rng, x)
            u = center + du * (0.1 * rng.uniform(0.0, 1.0) / sobolev_norm(du, 1))
            v = center + dv * (0.1 * rng.uniform(0.0, 1.0) / sobolev_norm(dv, 1))
            psi = random_cubic(rng, x)
            lhs = op.solve_derivative(u, psi) - op.solve_derivative(v, psi)
            q = op.solve_derivative(v, psi)
            rhs = op.solve_derivative(
                u, op.apply_derivative(v, q) - op.apply_derivative(u, q))
            worst = max(worst, sobolev_norm(lhs - rhs, 0) / sobolev_norm(lhs, 0))
        rel[n] = worst
    dx = 1.0 / 100
    assert rel[101] <= 10.0 * dx * dx
    assert math.log2(rel[101] / rel[201]) >= 1.9


# --- linear smoothing ------------------------------------------------------

def test_linear_smoothing_eval_of_one_is_x():
    op = LinearSmoothing()
    out = op.eval(GridFunction.constant(1.0, 201))
    assert np.max(np.abs(out.values - out.x)) <= 1e-13


def test_linear_smoothing_derivative_is_state_independent():
    op = LinearSmoothing()
    rng = np.random.default_rng(8)
    q = unit_direction(rng, 201, 1)
    u = sample_in_ball(rng, GridFunction.constant(1.0, 201), 0.3, 1)
    v = sample_in_ball(rng, GridFunction.constant(1.0, 201), 0.3, 1)
    assert np.array_equal(op.apply_derivative(u, q).values,
                          op.apply_derivative(v, q).values)


def test_linear_smoothing_roundtrip_near_identity():
    # differentiate-then-integrate is the identity only up to grid smoothing
    op = LinearSmoothing()
    rng = np.random.default_rng(9)
    q = unit_direction(rng, 201, 1)
    u = GridFunction.constant(1.0, 201)
    back = op.solve_derivative(u, op.apply_derivative(u, q))
    assert sobolev_norm(back - q, 1) <= 1e-2


# --- problem setup ---------------------------------------------------------

def test_setup_requires_positive_radius():
    op = QuadraticVolterra()
    U = GridFunction.constant(1.0, 101)
    with pytest.raises(ValueError):
        ProblemSetup(op, U, 0.0)


def test_from_reference_evaluates_f_once(monkeypatch):
    calls = []
    original = QuadraticVolterra.eval

    def counted(self, u):
        calls.append(u)
        return original(self, u)

    monkeypatch.setattr(QuadraticVolterra, "eval", counted)
    U = GridFunction.constant(1.0, 101)
    setup = ProblemSetup.from_reference(QuadraticVolterra(), U, 0.05)
    assert len(calls) == 1 and calls[0] is U
    assert np.array_equal(setup.f.values, original(setup.operator, U).values)


@dataclass(frozen=True)
class _ShiftedSmoothing(LinearSmoothing):
    """LinearSmoothing with other declared indices, for the setup's checks."""

    a: int = 1
    delta: int = 1


@pytest.mark.parametrize("a, delta", [(1, 2), (-1, 1), (3, -1)])
def test_setup_rejects_an_unsupported_scale_index(a, delta):
    with pytest.raises(ValueError, match="unsupported scale index"):
        ProblemSetup(_ShiftedSmoothing(a, delta), GridFunction.constant(1.0, 101), 0.05)


def test_make_operator_ids():
    assert isinstance(make_operator("volterra-quadratic"), QuadraticVolterra)
    assert isinstance(make_operator("linear-smoothing"), LinearSmoothing)
    assert make_operator("volterra-quadratic", u_min=0.3).u_min == 0.3
    with pytest.raises(ValueError):
        make_operator("nope")


def test_guard_must_be_positive():
    with pytest.raises(ValueError):
        QuadraticVolterra(u_min=0.0)
