import csv
import math
import os
import warnings
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from dsmflow.scale import (
    GridFunction,
    GridMismatchError,
    Workspace,
    _derivative,
    _derivative_of_integral,
    _derived,
    _differenced,
    _flat_interior,
    _integral,
    _integrate,
    _pairs,
    _summed,
    _norm,
    _write_csv_rows,
    _write_text,
    ball_distance,
    derivative,
    integrate_from_zero,
    read_grid_csv,
    sobolev_norm,
    write_grid_csv,
)

from dsmflow.flow import TrajectorySample, write_trajectory_csv
from dsmflow.newton_lab import (
    IterationStep,
    ModeRatio,
    write_iteration_csv,
    write_loss_probe_csv,
)
from dsmflow.operators import ProblemSetup, QuadraticVolterra
from dsmflow.sampling import _trig_basis, sample_in_ball, trig_polynomial

from oracles import trapezoid_l2


def grid_fn(fn, n=201):
    return GridFunction.from_callable(fn, n)


# The value kernels on arrays, each wrapped in views of its own.
def derive(v, dx, out):
    return _derivative(_differenced(v), dx, _derived(out))


def integrate(v, dx, out):
    return _integrate(_summed(v), dx, _integral(out))


def derive_integral(v, out):
    pairs = np.empty(v.shape[:-1] + (v.shape[-1] - 1,))
    return _derivative_of_integral(_summed(v), _derived(out), _pairs(pairs))


# --- norms -----------------------------------------------------------------

def test_constant_has_unit_l2_norm():
    assert sobolev_norm(GridFunction.constant(1.0, 201), 0) == pytest.approx(1.0, abs=1e-14)


def test_linear_function_h1_norm_closed_form():
    f = grid_fn(lambda x: x)
    assert sobolev_norm(f, 1) == pytest.approx(math.sqrt(4.0 / 3.0), rel=1e-5)


def test_sine_h2_norm_closed_form():
    f = grid_fn(lambda x: np.sin(np.pi * x))
    expected = math.sqrt((1.0 + math.pi**2 + math.pi**4) / 2.0)
    assert sobolev_norm(f, 2) == pytest.approx(expected, rel=2e-4)


def test_norm_monotone_in_scale_index():
    rng = np.random.default_rng(0)
    for _ in range(20):
        f = GridFunction(rng.uniform(-1.0, 1.0, size=51))
        norms = [sobolev_norm(f, a) for a in (0, 1, 2)]
        assert norms[0] <= norms[1] <= norms[2]


def test_norm_axioms_on_random_inputs():
    rng = np.random.default_rng(1)
    for a in (0, 1, 2):
        for _ in range(10):
            f = GridFunction(rng.uniform(-1.0, 1.0, size=101))
            g = GridFunction(rng.uniform(-1.0, 1.0, size=101))
            alpha = rng.uniform(-3.0, 3.0)
            lhs = sobolev_norm(alpha * f, a)
            rhs = abs(alpha) * sobolev_norm(f, a)
            assert lhs == pytest.approx(rhs, rel=1e-12)
            assert sobolev_norm(f + g, a) <= (1.0 + 1e-12) * (
                sobolev_norm(f, a) + sobolev_norm(g, a))


def test_index0_norm_is_plain_trapezoid_quadrature():
    rng = np.random.default_rng(2)
    f = GridFunction(rng.uniform(-2.0, 2.0, size=201))
    expected = trapezoid_l2(list(f.values), f.dx)
    assert sobolev_norm(f, 0) == pytest.approx(expected, rel=1e-14)


def test_unsupported_index_rejected():
    f = GridFunction.constant(1.0, 11)
    for a in (-1, 3, 7):
        with pytest.raises(ValueError):
            sobolev_norm(f, a)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("a", [0, 1, 2])
def test_norm_whose_squares_overflow_is_inf(a):
    # the squares' sum overflows, and from a = 1 on so does the sum of the two
    # end squares (1e308 each): inf - inf must not come out NaN
    f = grid_fn(lambda x: 1e154 * x, n=21)
    assert sobolev_norm(f, a) == math.inf
    x = grid_fn(lambda x: x, n=21)
    batch = GridFunction._trusted(np.stack([f.values, x.values]))
    assert np.array_equal(sobolev_norm(batch, a), [math.inf, sobolev_norm(x, a)])


def test_norm_of_nan_values_stays_nan():
    f = GridFunction._trusted(np.array([0.0, np.nan, 1.0]))
    assert math.isnan(sobolev_norm(f, 0))


def reference_derivative(v, dx):
    d = np.empty_like(v)
    d[..., 1:-1] = (v[..., 2:] - v[..., :-2]) / (2.0 * dx)
    d[..., 0] = (4.0 * (v[..., 1] - v[..., 0]) - (v[..., 2] - v[..., 0])) / (2.0 * dx)
    d[..., -1] = (4.0 * (v[..., -1] - v[..., -2]) - (v[..., -1] - v[..., -3])) / (2.0 * dx)
    return d


def reference_sobolev_norm(v, dx, a):
    total = 0.0
    for _ in range(a + 1):
        sq = v * v
        total = total + dx * (sq.sum(axis=-1) - 0.5 * (sq[..., 0] + sq[..., -1]))
        v = reference_derivative(v, dx)
    return np.sqrt(total)


@pytest.mark.parametrize("shape", [(3,), (201,), (7, 201), (2001,)])
def test_kernels_equal_their_one_expression_forms(shape):
    # the kernels compute in place, in the same order as these expressions
    v = np.random.default_rng(shape[-1]).uniform(-2.0, 2.0, size=shape)
    f = GridFunction._trusted(v)
    assert np.array_equal(derivative(f).values, reference_derivative(v, f.dx))
    integral = np.zeros_like(v)
    integral[..., 1:] = np.cumsum((v[..., 1:] + v[..., :-1]) * (f.dx / 2.0), axis=-1)
    assert np.array_equal(integrate_from_zero(f).values, integral)
    for a in (0, 1, 2):
        assert np.array_equal(sobolev_norm(f, a), reference_sobolev_norm(v, f.dx, a))
    pairs = v[..., 1:] + v[..., :-1]
    slope = np.empty_like(v)
    slope[..., 1:-1] = (pairs[..., 1:] + pairs[..., :-1]) * 0.25
    slope[..., 0] = (3.0 * pairs[..., 0] - pairs[..., 1]) * 0.25
    slope[..., -1] = (3.0 * pairs[..., -1] - pairs[..., -2]) * 0.25
    assert np.array_equal(derive_integral(v, np.empty_like(v)), slope)


def one_row_block(n):
    """Three rows: random values; inf at x = 0 and NaN inside; and 1e154 x,
    whose derivative's squares overflow, as does their end sum, so that the
    trapezoid tail is inf - inf and the fmin rule must keep the inf."""
    block = np.random.default_rng(n).uniform(-2.0, 2.0, (3, n))
    block[1, 0], block[1, n // 2] = math.inf, math.nan
    block[2] = 1e154 * np.linspace(0.0, 1.0, n)
    return block


@pytest.mark.parametrize("n", [3, 4, 201, 20001])
def test_one_row_kernels_equal_the_rows_of_a_block(n):
    # a 1-D output takes the kernels' one-row paths: Python floats at the
    # ends; a block, and a 1-D input derived into a block, take the block
    # path. All three give the same bits.
    block = one_row_block(n)
    dx = 1.0 / (n - 1)
    with np.errstate(all="ignore"):
        for kernel in (lambda v, out: derive(v, dx, out), derive_integral):
            rows = kernel(block, np.empty((3, n)))
            for row, values in zip(rows, block):
                one = np.empty(n)
                assert kernel(values, one) is one
                assert np.array_equal(one, row, equal_nan=True)
                for spread in kernel(values, np.empty((4, n))):
                    assert np.array_equal(spread, row, equal_nan=True)
        for a in (0, 1, 2):
            batch = Workspace((3, n))
            batch.res.values[0] = block
            norms = _norm(batch.res, a, batch)
            for values, want in zip(block, norms):
                ws = Workspace((n,))
                ws.res.values[0] = values
                got = _norm(ws.res, a, ws)
                assert type(got) is float
                assert np.array_equal(got, want, equal_nan=True)
    assert math.isnan(norms[1]) and norms[2] == math.inf


@pytest.mark.parametrize("n", [3, 4, 5, 201, 2001])
@pytest.mark.parametrize("rows", [1, 2, 3, 40, 200])
def test_block_derivative_equals_its_rows_derived_alone(rows, n):
    # a C-contiguous block of more than two rows, into a C-contiguous out,
    # takes its interior over the flattened block; a strided input or out,
    # and a block of one or two rows, the row slices. Each row's bits are
    # those of the 1-D kernel either way.
    v = np.random.default_rng(rows * n).uniform(-2.0, 2.0, (rows, n))
    dx = 1.0 / (n - 1)
    want = np.array([derive(row, dx, np.empty(n)) for row in v])
    spaced = np.empty((2 * rows, n))
    spaced[::2] = v
    cases = {
        "contiguous": (v, np.empty((rows, n)), rows > 2),
        "strided input": (spaced[::2], np.empty((rows, n)), False),
        "strided out": (v, np.empty((rows, 2 * n))[:, ::2], False),
        "column-major out": (v, np.empty((rows, n), order="F"), False),
    }
    for name, (values, out, flat) in cases.items():
        assert _flat_interior(values, 2.0 * dx, out) is flat, name
        assert derive(values, dx, out) is out
        assert np.array_equal(out, want), name


@pytest.mark.parametrize("n", [3, 4, 201])
def test_overflow_only_across_rows_derives_without_a_warning(n):
    # Rows of -1e308, 1e308 and -1e308: every difference inside a row is 0,
    # and every flat pair straddling two rows overflows. The suite turns
    # warnings into errors, so a warning from a straddling pair would fail
    # here. (An inf - inf across rows needs an infinite end node, whose
    # one-sided stencil takes inf - inf within its own row and warns at
    # any rate.)
    v = np.repeat([[-1e308], [1e308], [-1e308]], n, axis=1)
    dx = 1.0 / (n - 1)
    out = np.empty_like(v)
    assert not _flat_interior(v, 2.0 * dx, out)  # the flat pass trapped
    assert not derive(v, dx, out).any()


def test_an_in_row_overflow_warns_as_the_row_slices_warn():
    v = np.zeros((3, 201))
    # in row 1, -1e308 - 1e308 overflows, and so does (1e308 - 0) / 2dx
    v[1, 10], v[1, 12] = 1e308, -1e308
    spaced = np.empty((6, 201))
    spaced[::2] = v
    dx = 1.0 / 200
    with np.errstate(all="ignore"):
        want = reference_derivative(v, dx)
    caught = []
    for values in (v, spaced[::2]):  # flat-eligible, then row slices only
        with warnings.catch_warnings(record=True) as log:
            warnings.simplefilter("always")
            out = derive(values, dx, np.empty((3, 201)))
        caught.append([(w.category, str(w.message)) for w in log])
        assert np.array_equal(out, want)
    assert caught[0] == caught[1] == [
        (RuntimeWarning, "overflow encountered in subtract"),
        (RuntimeWarning, "overflow encountered in divide")]
    # under the suite's filterwarnings = error, the first warning raises
    with pytest.raises(RuntimeWarning, match="overflow encountered in subtract"):
        derive(v, dx, np.empty((3, 201)))


# --- derivative ------------------------------------------------------------

def test_derivative_of_constant_is_exactly_zero():
    d = derivative(GridFunction.constant(4.2, 101))
    assert np.all(d.values == 0.0)


def test_derivative_exact_on_quadratics():
    f = grid_fn(lambda x: x * x)
    d = derivative(f)
    assert np.max(np.abs(d.values - 2.0 * f.x)) <= 1e-12


def test_derivative_second_order_on_sine():
    errors = {}
    for n in (101, 201, 401):
        f = grid_fn(lambda x: np.sin(np.pi * x), n)
        exact = np.pi * np.cos(np.pi * f.x)
        errors[n] = float(np.max(np.abs(derivative(f).values - exact)))
    order1 = math.log2(errors[101] / errors[201])
    order2 = math.log2(errors[201] / errors[401])
    assert order1 >= 1.9 and order2 >= 1.9


def test_derivative_needs_three_nodes():
    with pytest.raises(ValueError):
        GridFunction([1.0, 2.0])


# --- integration -----------------------------------------------------------

def test_integral_of_zero_is_zero():
    out = integrate_from_zero(GridFunction.zeros(51))
    assert np.all(out.values == 0.0)


def test_integral_of_one_is_x():
    out = integrate_from_zero(GridFunction.constant(1.0, 201))
    assert out.values[0] == 0.0
    assert np.max(np.abs(out.values - out.x)) <= 1e-13


def test_integral_of_linear_is_quadratic():
    f = grid_fn(lambda x: 2.0 * x)
    out = integrate_from_zero(f)
    assert np.max(np.abs(out.values - f.x**2)) <= f.dx**2


def test_derivative_of_integral_is_identity_to_second_order():
    errors = {}
    for n in (101, 201, 401):
        f = grid_fn(lambda x: np.sin(2.0 * np.pi * x) + x * x, n)
        back = derivative(integrate_from_zero(f))
        errors[n] = float(np.max(np.abs(back.values - f.values)))
    assert math.log2(errors[101] / errors[201]) >= 1.9
    assert math.log2(errors[201] / errors[401]) >= 1.9


def slope_of_integral(n, smooth):
    x = np.linspace(0.0, 1.0, n)
    if smooth:
        return (1.0 + 0.3 * np.sin(3.0 * x)) ** 2
    return np.random.default_rng(n).uniform(-2.0, 2.0, n)


@pytest.mark.parametrize("smooth", [True, False], ids=["smooth", "random"])
@pytest.mark.parametrize("n", [3, 4, 5, 201, 2001, 20001])
def test_derivative_of_integral_equals_the_composition(n, smooth):
    # the same function as the stencil derivative of the cumulative sum, less
    # that sum's rounding, which the stencil divides by dx
    v = slope_of_integral(n, smooth)
    dx = 1.0 / (n - 1)
    composed = derive(integrate(v, dx, np.empty(n)), dx, np.empty(n))
    got = derive_integral(v, np.empty(n))
    tol = n * np.finfo(float).eps * np.max(np.abs(v))
    assert np.max(np.abs(got - composed)) <= tol


@pytest.mark.parametrize("n", [3, 4, 201])
def test_derivative_of_integral_rows_equal_the_rows_alone(n):
    batch = np.random.default_rng(n).uniform(-2.0, 2.0, (7, n))
    got = derive_integral(batch, np.empty_like(batch))
    for row, values in zip(got, batch):
        assert np.array_equal(row, derive_integral(values, np.empty(n)))


@pytest.mark.parametrize("n", [3, 4])
def test_derivative_of_integral_on_the_shortest_grids(n):
    # two boundary rows and one or two interior nodes, against exact
    # rational arithmetic: (3 v0 + 2 v1 - v2) / 4, (v[k-1] + 2 v[k] + v[k+1]) / 4
    # and the mirror of the first
    v = np.random.default_rng(n + 10).uniform(-2.0, 2.0, n)
    q = [Fraction(float(x)) for x in v]
    want = ([(3 * q[0] + 2 * q[1] - q[2]) / 4]
            + [(q[k - 1] + 2 * q[k] + q[k + 1]) / 4 for k in range(1, n - 1)]
            + [(3 * q[-1] + 2 * q[-2] - q[-3]) / 4])
    got = derive_integral(v, np.empty(n))
    assert np.max(np.abs(got - [float(w) for w in want])) <= 8 * np.finfo(float).eps
    # trapezoids integrate linear functions exactly, and the stencils
    # differentiate the quadratic integral exactly
    x = np.linspace(0.0, 1.0, n)
    assert np.max(np.abs(derive_integral(0.5 - 1.5 * x, np.empty(n))
                         - (0.5 - 1.5 * x))) <= 4 * np.finfo(float).eps


# --- ball distance ---------------------------------------------------------

def test_ball_distance_zero_at_center():
    u = grid_fn(lambda x: np.cos(x))
    assert ball_distance(u, u, 1) == 0.0


def test_ball_distance_constant_shift():
    center = GridFunction.constant(1.0, 201)
    u = center + 0.25
    assert ball_distance(u, center, 0) == pytest.approx(0.25, rel=1e-12)


def test_ball_distance_sine_closed_form():
    center = GridFunction.constant(1.0, 201)
    u = center + 0.1 * grid_fn(lambda x: np.sin(np.pi * x))
    expected = 0.1 * math.sqrt((1.0 + math.pi**2) / 2.0)
    assert ball_distance(u, center, 1) == pytest.approx(expected, rel=1e-4)


def test_ball_distance_rejects_mismatched_grids():
    with pytest.raises(GridMismatchError):
        ball_distance(GridFunction.zeros(11), GridFunction.zeros(21), 0)


# --- value semantics -------------------------------------------------------

def test_values_are_immutable():
    f = GridFunction.constant(1.0, 11)
    with pytest.raises(ValueError):
        f.values[0] = 2.0


def test_nonfinite_values_rejected():
    with pytest.raises(ValueError):
        GridFunction([0.0, np.nan, 1.0])
    with pytest.raises(ValueError):
        GridFunction([0.0, np.inf, 1.0])


def test_grid_functions_and_setups_compare_and_hash_by_identity():
    f, g = GridFunction.constant(1.0, 5), GridFunction.constant(1.0, 5)
    assert f == f and f != g  # equal values, but distinct functions
    assert f in [g, f] and g not in [f]
    assert hash(f) == hash(f) and len({f, g, f}) == 2
    p = ProblemSetup.from_reference(QuadraticVolterra(), f, 0.05)
    q = ProblemSetup.from_reference(QuadraticVolterra(), g, 0.05)
    assert p == p and p != q
    assert p in [q, p] and hash(p) == hash(p) and len({p, q, p}) == 2


def test_arithmetic_requires_matching_grids():
    with pytest.raises(GridMismatchError):
        GridFunction.zeros(11) + GridFunction.zeros(13)


def test_constructor_copies_its_input():
    source = np.linspace(0.0, 1.0, 11)
    expected = source.copy()
    f = GridFunction(source)
    source[3] = 99.0
    assert np.array_equal(f.values, expected)


def test_from_callable_copies_an_array_the_caller_keeps():
    kept = np.linspace(0.0, 1.0, 11)
    expected = kept.copy()
    f = GridFunction.from_callable(lambda x: kept, 11)
    kept[3] = 99.0
    assert np.array_equal(f.values, expected)


def test_from_callable_broadcasts_a_scalar():
    f = GridFunction.from_callable(lambda x: 2.5, 11)
    assert f.n == 11 and np.array_equal(f.values, np.full(11, 2.5))


def test_arithmetic_with_a_non_number_raises_type_error():
    f = GridFunction.zeros(11)
    with pytest.raises(TypeError):
        f + "a"
    with pytest.raises(TypeError):
        "a" - f


INTERNAL_RESULTS = {
    "add": lambda f, g: f + g,
    "radd": lambda f, g: 1.0 + f,
    "sub": lambda f, g: f - g,
    "rsub": lambda f, g: 1.0 - f,
    "mul": lambda f, g: f * g,
    "rmul": lambda f, g: 2.0 * f,
    "truediv": lambda f, g: f / g,
    "neg": lambda f, g: -f,
    "derivative": lambda f, g: derivative(f),
    "integrate_from_zero": lambda f, g: integrate_from_zero(f),
}


@pytest.mark.parametrize("compute", INTERNAL_RESULTS.values(), ids=INTERNAL_RESULTS.keys())
def test_internal_results_are_read_only_and_unshared(compute):
    f = grid_fn(lambda x: 1.0 + x)
    g = grid_fn(lambda x: 2.0 + x * x)
    out = compute(f, g)
    assert isinstance(out, GridFunction)
    assert out.values.dtype == np.float64
    assert not out.values.flags.writeable
    assert not np.shares_memory(out.values, f.values)
    assert not np.shares_memory(out.values, g.values)


def test_trig_polynomial_is_read_only_and_unshared_with_the_basis():
    d = trig_polynomial(np.random.default_rng(0), 201)
    assert not d.values.flags.writeable
    assert not np.shares_memory(d.values, _trig_basis(201))


# --- CSV format ------------------------------------------------------------

def test_csv_roundtrip_is_exact(tmp_path):
    rng = np.random.default_rng(3)
    f = GridFunction(rng.uniform(-1.0, 1.0, size=67))
    path = tmp_path / "f.csv"
    write_grid_csv(f, path)
    back = read_grid_csv(path)
    assert np.array_equal(back.values, f.values)


def test_csv_writes_17_significant_digits_of_each_float64(tmp_path):
    rng = np.random.default_rng(8)
    # magnitudes from 1e-300 to 1e300, both signs, and exact zeros and integers
    values = rng.uniform(-1.0, 1.0, size=201) * 10.0 ** rng.integers(-300, 300, size=201)
    values[:4] = (0.0, -0.0, 1.0, -3.0)
    f = GridFunction(values)
    path = tmp_path / "f.csv"
    write_grid_csv(f, path)
    rows = [f"{x:.17g},{v:.17g}\r\n" for x, v in zip(f.x, f.values)]
    assert isinstance(f.values[0], np.float64)
    assert path.read_bytes() == ("x,value\r\n" + "".join(rows)).encode()


def test_csv_of_a_batch_raises_naming_its_shape_and_writes_nothing(tmp_path):
    batch = sample_in_ball(np.random.default_rng(0).random((2, 18)),
                           GridFunction.constant(1.0, 5), 0.05, 1)
    path = tmp_path / "f.csv"
    with pytest.raises(ValueError, match=r"^f must be one grid function, not a batch "
                                         r"of shape \(2, 5\)$"):
        write_grid_csv(batch, path)
    assert not path.exists()


def test_csv_x_column_formatted_once_per_grid_size_keeps_the_bytes(tmp_path):
    # the cached x column of one grid size never leaks into another's file
    for n in (3, 201, 5, 201, 3):
        f = GridFunction(np.cos(np.arange(n) * 0.7) / 3.0)
        path = tmp_path / f"f{n}.csv"
        write_grid_csv(f, path)
        rows = [f"{x:.17g},{v:.17g}\r\n" for x, v in zip(f.x.tolist(), f.values.tolist())]
        assert path.read_bytes() == ("x,value\r\n" + "".join(rows)).encode()


def test_csv_rows_are_the_bytes_csv_writer_writes(tmp_path):
    # the rows of the trajectory and Newton CSVs: ints, floats and empty fields
    header = ["k", "t", "dist_to_oracle"]
    rows = [(0, 0.0, None), (1, -0.0, 1e-300), (2, math.nan, math.inf),
            (3, -math.inf, np.float64(0.1)), (40, 1.0 / 3.0, -2.5e300), (5, None, None)]
    path = tmp_path / "rows.csv"
    _write_csv_rows(path, header, iter(rows))
    with open(tmp_path / "want.csv", "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for row in rows:
            writer.writerow(["" if v is None else str(v) if isinstance(v, int)
                             else f"{v:.17g}" for v in row])
    assert path.read_bytes() == (tmp_path / "want.csv").read_bytes()
    assert path.read_bytes().splitlines()[1:3] == [b"0,0,", b"1,-0,1e-300"]


ROW_SETS = {
    "floats": [(0.0, 1.0 / 3.0), (0.5, -2.5e300), (1.0, 1e-300),
               (5e-324, 1.7976931348623157e308)],
    "float-specials": [(math.inf, -0.0), (math.nan, -math.inf), (-0.0, 0.0)],
    "float64": [(np.float64(0.1), np.float64(-0.0)), (np.float64(math.nan), np.float64(2.0))],
    "float-and-float64": [(0.25, np.float64(0.1)), (np.float64(math.inf), -1.5)],
    "ints-and-none": [(0, 0.5, None), (1, None, math.nan), (12, -0.0, 3)],
    "no-rows": [],
}


@pytest.mark.parametrize("rows", ROW_SETS.values(), ids=ROW_SETS.keys())
def test_csv_rows_equal_a_csv_writer_reference(tmp_path, rows):
    # all-float rows take one template each, the others a field at a time
    header = ["a", "b", "c"][:len(rows[0]) if rows else 2]
    path = tmp_path / "rows.csv"
    _write_csv_rows(path, header, (row for row in rows))
    with open(tmp_path / "want.csv", "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for row in rows:
            writer.writerow(["" if v is None else str(v) if isinstance(v, int)
                             else format(v, ".17g") for v in row])
    assert path.read_bytes() == (tmp_path / "want.csv").read_bytes()


# Each CSV writer with a maker of its content at a given row count.
CSV_WRITERS = {
    "grid": (write_grid_csv, lambda k: GridFunction(np.linspace(0.0, 1.0, k) ** 2 / 3.0)),
    "trajectory": (write_trajectory_csv, lambda k: SimpleNamespace(samples=[
        TrajectorySample(0.05 * i, math.exp(-i / 7.0), i / 3.0, 1.0 / (i + 3)) for i in range(k)])),
    "newton-iterations": (write_iteration_csv, lambda k: SimpleNamespace(steps=[
        IterationStep(i, 10.0 ** -i / 3.0, None if i % 2 else 1.0 / (i + 1)) for i in range(k)])),
    "loss-probe": (write_loss_probe_csv, lambda k: SimpleNamespace(modes=[
        ModeRatio(i, 1.5 * i + 1.0 / 7.0, 1.0 / (i + 1)) for i in range(k)])),
}


@pytest.mark.parametrize("write, make", CSV_WRITERS.values(), ids=CSV_WRITERS.keys())
def test_a_shorter_csv_over_a_longer_one_leaves_the_bytes_of_a_fresh_file(
        tmp_path, monkeypatch, write, make):
    write(make(3), tmp_path / "fresh.csv")
    path = tmp_path / "rewritten.csv"
    write(make(50), path)
    assert path.stat().st_size > (tmp_path / "fresh.csv").stat().st_size
    opened, real_open = [], os.open

    def spy(file, flags, *args, **kwargs):
        opened.append((file, flags))
        return real_open(file, flags, *args, **kwargs)

    monkeypatch.setattr(os, "open", spy)
    write(make(3), path)
    assert path.read_bytes() == (tmp_path / "fresh.csv").read_bytes()
    # the existing file is overwritten in place and cut, not truncated to
    # zero first, which costs a flush at close on ext4
    assert [(file, flags & os.O_TRUNC) for file, flags in opened] == [(path, 0)]


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002], ids=oct)
def test_written_files_get_the_modes_open_gives(tmp_path, umask):
    old = os.umask(umask)
    try:
        with open(tmp_path / "reference", "w") as handle:
            handle.write("x")
        _write_text(tmp_path / "new", "x,value\r\n")
        write_grid_csv(GridFunction.constant(1.0, 3), tmp_path / "new.csv")
        existing = tmp_path / "existing.csv"
        existing.write_text("an older, longer file\n" * 9)
        existing.chmod(0o640)
        write_grid_csv(GridFunction.constant(1.0, 3), existing)
    finally:
        os.umask(old)
    mode = (tmp_path / "reference").stat().st_mode
    assert mode & 0o777 == 0o666 & ~umask
    assert (tmp_path / "new").stat().st_mode == (tmp_path / "new.csv").stat().st_mode == mode
    assert existing.stat().st_mode & 0o777 == 0o640
    assert existing.read_bytes() == (tmp_path / "new.csv").read_bytes()


def test_csv_reads_a_file_that_starts_with_a_utf8_byte_order_mark(tmp_path):
    # as a spreadsheet's "CSV UTF-8" export writes it
    path = tmp_path / "bom.csv"
    path.write_bytes(b"\xef\xbb\xbfx,value\r\n0,1\r\n0.5,2\r\n1,3\r\n")
    assert np.array_equal(read_grid_csv(path).values, [1.0, 2.0, 3.0])


@pytest.mark.parametrize("first, second, line, message", [
    ("0.25,nan", "0.5,oops", 3, "non-finite entry in 0.25,nan"),
    ("0.25,oops", "0.5,inf", 3, "malformed row: could not convert string to float: 'oops'"),
    ("0.25,inf", "0.5,1,2", 3, "non-finite entry in 0.25,inf"),
    ("0.25,1,2", "0.5,-inf", 3, "expected 2 fields, got 3"),
])
def test_csv_names_the_first_bad_line_whichever_check_fails(tmp_path, first, second,
                                                           line, message):
    path = tmp_path / "bad.csv"
    path.write_text(f"x,value\n0,1\n{first}\n{second}\n0.75,1\n1,1\n")
    with pytest.raises(ValueError) as excinfo:
        read_grid_csv(path)
    assert str(excinfo.value) == f"{path}: line {line}: {message}"


def test_csv_header_checked(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n0,1\n0.5,1\n1,1\n")
    with pytest.raises(ValueError, match="header"):
        read_grid_csv(path)


def test_csv_rejects_nonuniform_spacing(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x,value\n0,1\n0.4,1\n1,1\n")
    with pytest.raises(ValueError):
        read_grid_csv(path)


def test_csv_rejects_uneven_spacing_within_the_position_tolerance(tmp_path):
    # node 100 off by 1e-10 passes the 1e-9 position check, not the spacing check
    x = np.linspace(0.0, 1.0, 201)
    x[100] += 1e-10
    path = tmp_path / "bad.csv"
    path.write_text("x,value\n" + "".join(f"{v:.17g},1\n" for v in x))
    with pytest.raises(ValueError) as excinfo:
        read_grid_csv(path)
    assert str(excinfo.value) == f"{path}: non-uniform node spacing"


def test_csv_rejects_wrong_domain(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x,value\n0,1\n1,1\n2,1\n")
    with pytest.raises(ValueError):
        read_grid_csv(path)


def test_csv_rejects_malformed_rows(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x,value\n0,1\n0.5,oops\n1,1\n")
    with pytest.raises(ValueError):
        read_grid_csv(path)


def test_csv_skips_a_trailing_blank_line(tmp_path):
    path = tmp_path / "f.csv"
    path.write_text("x,value\n0,1\n0.5,2\n1,3\n\n")
    assert np.array_equal(read_grid_csv(path).values, [1.0, 2.0, 3.0])


@pytest.mark.parametrize("row, fields", [("0.5,2,7", 3), ("0.5", 1)])
def test_csv_names_the_line_of_a_row_without_two_fields(tmp_path, row, fields):
    path = tmp_path / "bad.csv"
    path.write_text(f"x,value\n0,1\n{row}\n1,3\n")
    with pytest.raises(ValueError) as excinfo:
        read_grid_csv(path)
    assert str(excinfo.value) == f"{path}: line 3: expected 2 fields, got {fields}"


@pytest.mark.parametrize("row", ["nan,0.5", "0.5,nan", "0.5,-inf", "inf,0.5"])
def test_csv_names_the_line_of_a_non_finite_entry(tmp_path, row):
    # a NaN node passes the uniformity checks, whose comparisons are False
    path = tmp_path / "bad.csv"
    path.write_text(f"x,value\n0,1\n0.25,1\n{row}\n0.75,1\n1,1\n")
    with pytest.raises(ValueError) as excinfo:
        read_grid_csv(path)
    assert str(excinfo.value) == f"{path}: line 4: non-finite entry in {row}"


def test_csv_rejects_too_few_rows(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x,value\n0,1\n1,1\n")
    with pytest.raises(ValueError):
        read_grid_csv(path)
