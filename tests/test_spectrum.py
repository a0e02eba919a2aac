"""The spectrum of M, the matrix of ``scale._derivative_of_integral``.

For both built-ins the discrete flow is linear in w (w = u^2 for the
Volterra operator, w = u for linear smoothing): dw/dt = D h - M w, with M
the stencil derivative of the cumulative trapezoid integral. M's interior
rows are the [1, 2, 1] / 4 average, whose symbol is cos^2(theta / 2), so
its eigenvalues lie near cos^2(j pi / (2 (n - 1))), j = 0 .. n - 1, and the
checkerboard s = (-1)^k, which the trapezoid integral annihilates, spans
its kernel. A mode near the grid's Nyquist frequency decays at rate
lambda_j, not at 1.

M's left kernel is spanned by l, the checkerboard whose two end entries on
each side weigh 1/4 and 3/4. Along the flow, d phi(u)/dt = phi'(u) du/dt =
D h - M phi(u) for every operator F = I(phi(.)), and l.D h = l.M phi(V) = 0
for solvable data h = F(V), up to rounding: so l.phi(u) is the flow's
invariant. From M's eigendecomposition the path w(t) is known in closed
form, the oracle that pins RK4's order and the adaptive flow's largest
deviation. Only numpy is used.
"""

import math

import numpy as np
import pytest

import dsmflow.flow as flow_module
from dsmflow.flow import FlowConfig, integrate_flow
from dsmflow.operators import LinearSmoothing, ProblemSetup, QuadraticVolterra
from dsmflow.scale import (GridFunction, _derivative_of_integral, _derived, _pairs, _summed,
                           derivative)

from cubic_volterra import CubicVolterra

N = 201
CHECKERBOARD = (-1.0) ** np.arange(N)
# (1/4, -3/4, 1, -1, ..., 1, -3/4, 1/4) at n = 201
LEFT_NULL = CHECKERBOARD.copy()
LEFT_NULL[[0, -1]] *= 0.25
LEFT_NULL[[1, -2]] *= 0.75


@pytest.fixture(scope="module")
def matrix():
    """M at n = 201, from its action on the identity: the kernel works
    along the last axis, so row i of its output is M e_i, column i of M."""
    out = _derived(np.empty((N, N)))
    _derivative_of_integral(_summed(np.eye(N)), out, _pairs(np.empty((N, N - 1))))
    return out.values.T


@pytest.fixture(scope="module")
def eigenvalues(matrix):
    return np.linalg.eigvals(matrix)


def test_every_eigenvalue_is_real(eigenvalues):
    assert np.max(np.abs(eigenvalues.imag)) == 0.0


def test_the_eigenvalues_follow_the_symbol(eigenvalues):
    symbol = np.cos(np.arange(N) * np.pi / (2 * (N - 1))) ** 2
    assert np.max(np.abs(np.sort(eigenvalues.real) - np.sort(symbol))) < 5e-3


def test_the_checkerboard_is_annihilated_exactly(matrix):
    s = (-1.0) ** np.arange(N)
    assert np.all(matrix @ s == 0.0)


def test_the_slowest_nonzero_mode(eigenvalues):
    slowest = np.sort(eigenvalues.real)[1]
    assert slowest == pytest.approx(math.sin(math.pi / 400) ** 2, rel=0.02)


def test_half_the_spectrum_decays_at_less_than_half_the_rate(eigenvalues):
    assert np.count_nonzero(eigenvalues.real < 0.5) == 100


def test_the_left_null_vector_in_closed_form(matrix, eigenvalues):
    assert LEFT_NULL[:3].tolist() == [0.25, -0.75, 1.0]
    assert LEFT_NULL[-3:].tolist() == [1.0, -0.75, 0.25]
    assert np.all(LEFT_NULL @ matrix == 0.0)
    # zero is a simple eigenvalue of M, so l spans its left kernel
    smallest = np.sort(np.abs(eigenvalues))
    assert smallest[0] < 1e-14 < 1e-5 < smallest[1]


def checkerboard_flow(operator, cfg=None):
    """l.phi(u) at every iterate of the flow from the checkerboard start
    u0 = 1 + 1e-4 (-1)^k to solvable data h = F(V), V = 1 + 0.01 sin(pi x)."""
    p = ProblemSetup.from_reference(operator, GridFunction.constant(1.0, N), 0.05)
    h = operator.eval(GridFunction(1.0 + 0.01 * np.sin(np.pi * p.U.x)))
    traj = integrate_flow(p, GridFunction(1.0 + 1e-4 * CHECKERBOARD), h, cfg)
    return np.array([LEFT_NULL @ operator.phi(u.values) for u in traj.recorded_u])


# Each operator with phi'(1) and the default flow's largest change of
# l.phi(u) relative to its start value: rounding where phi is linear, and
# RK4's truncation error otherwise, 1.6e-7 and 4.7e-7 measured.
@pytest.mark.parametrize("operator, slope, drift", [
    pytest.param(QuadraticVolterra(), 2.0, 2e-6, id="volterra"),
    pytest.param(LinearSmoothing(), 1.0, 1e-11, id="linear"),
    pytest.param(CubicVolterra(), 3.0, 5e-6, id="cubic"),
])
def test_the_flow_keeps_l_dot_phi_at_its_start_value(operator, slope, drift):
    kept = checkerboard_flow(operator)
    # l sums to 0 and l.(-1)^k = n - 2, so l.phi(u0) = (n - 2) phi'(1) 1e-4
    # to first order
    assert kept[0] == pytest.approx((N - 2) * slope * 1e-4, rel=1e-3)
    assert np.ptp(kept) <= drift * kept[0]


@pytest.mark.parametrize("operator", [QuadraticVolterra(), CubicVolterra()],
                         ids=["volterra", "cubic"])
def test_the_drift_of_a_nonlinear_phi_is_rk4_truncation(operator, monkeypatch):
    # at fixed steps the drift of l.phi(u) over t = 4 falls as dt^4: 18x and
    # 17x from dt = 0.4 to 0.2 to 0.1
    monkeypatch.setattr(flow_module, "GROW_TOL", -1.0)
    drift = []
    for dt in (0.4, 0.2, 0.1):
        kept = checkerboard_flow(operator, FlowConfig(dt=dt, t_max=4.0, eps_abs=0.0))
        drift.append(abs(kept[-1] - kept[0]))
    assert drift[0] / drift[1] >= 12.0 and drift[1] / drift[2] >= 12.0


# --- the flow's path against the closed form --------------------------------
#
# From u0 = U = 1 to h = x + 0.05 x^2 (so D h = 1 + 0.1 x exactly), w = phi(u)
# solves dw/dt = b - M w, b = D h. With M = V diag(lambda) V^{-1} (V's
# condition number is 14) each mode y = V^{-1} w moves alone: y_j tends to
# c_j / lambda_j at rate lambda_j, c = V^{-1} b, and the zero mode y_0 moves
# as y_0(0) + c_0 t.

@pytest.fixture(scope="module")
def exact_path(matrix):
    """w(t) from w(0) = 1, and the data h."""
    x = np.linspace(0.0, 1.0, N)
    h = GridFunction(x + 0.05 * x * x)
    rates, modes = np.linalg.eig(matrix)
    inverse = np.linalg.inv(modes)
    zero = np.argmin(np.abs(rates))
    moving = np.arange(N) != zero
    rates = rates[moving]
    start, drive = inverse @ np.ones(N), inverse @ derivative(h).values
    rest = drive[moving] / rates

    def w(t):
        y = np.empty(N)
        y[moving] = rest + (start[moving] - rest) * np.exp(-rates * t)
        y[zero] = start[zero] + drive[zero] * t
        return modes @ y

    return w, h


def path_errors(operator, h, w, cfg=None):
    """The largest error of phi(u) against w(t) at each record of the flow
    from u0 = U = 1 to h."""
    U = GridFunction.constant(1.0, N)
    traj = integrate_flow(ProblemSetup.from_reference(operator, U, 0.5), U, h, cfg)
    return traj, [float(np.max(np.abs(operator.phi(u.values) - w(s.t))))
                  for s, u in zip(traj.samples, traj.recorded_u)]


OPERATORS = [pytest.param(QuadraticVolterra(), id="volterra"),
             pytest.param(LinearSmoothing(), id="linear")]


@pytest.mark.parametrize("operator", OPERATORS)
def test_fixed_step_rk4_is_fourth_order_on_the_path(operator, exact_path, monkeypatch):
    # at t = 4 the error reads 1.19e-7, 6.84e-9 and 4.10e-10 (volterra) and
    # 1.15e-7, 6.64e-9 and 3.98e-10 (linear) at dt = 0.2, 0.1 and 0.05:
    # 17.4x, then 16.7x, order 4.12 and 4.06
    w, h = exact_path
    monkeypatch.setattr(flow_module, "GROW_TOL", -1.0)
    final = []
    for dt in (0.2, 0.1, 0.05):
        traj, errors = path_errors(operator, h, w, FlowConfig(dt=dt, t_max=4.0, eps_abs=0.0))
        assert traj.final_t == 4.0 and traj.steps == round(4.0 / dt)
        final.append(errors[-1])
    assert final[0] < 2e-7
    assert final[0] / final[1] >= 14.0 and final[1] / final[2] >= 14.0


@pytest.mark.parametrize("operator", OPERATORS)
def test_the_adaptive_flow_stays_near_the_exact_path(operator, exact_path):
    # the default flow converges in 31 steps, straying at most 1.21e-4
    # (volterra) and 1.16e-4 (linear) from the exact path in w
    w, h = exact_path
    traj, errors = path_errors(operator, h, w)
    assert traj.stop_reason == "converged" and traj.steps == 31
    assert max(errors) <= 2e-4
