"""The spectrum of M, the matrix of ``scale._derivative_of_integral``.

For both built-ins the discrete flow is linear in w (w = u^2 for the
Volterra operator, w = u for linear smoothing): dw/dt = D h - M w, with M
the stencil derivative of the cumulative trapezoid integral. M's interior
rows are the [1, 2, 1] / 4 average, whose symbol is cos^2(theta / 2), so
its eigenvalues lie near cos^2(j pi / (2 (n - 1))), j = 0 .. n - 1, and the
checkerboard s = (-1)^k, which the trapezoid integral annihilates, spans
its kernel. A mode near the grid's Nyquist frequency decays at rate
lambda_j, not at 1. Only numpy is used.
"""

import math

import numpy as np
import pytest

from dsmflow.scale import _derivative_of_integral, _derived, _pairs, _summed

N = 201


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
