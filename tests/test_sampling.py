import tracemalloc

import numpy as np
import pytest

from dsmflow.sampling import (
    MAX_FREQUENCY,
    POINT_DRAWS,
    _chunk_rows,
    _span_gram,
    _span_norm,
    _trig_basis,
    sample_in_ball,
    trig_polynomial,
    unit_direction,
)
from dsmflow.scale import GridFunction, sobolev_norm

DRAWS = 2 * MAX_FREQUENCY + 1


def reference_trig_polynomial(rng, n, max_frequency=MAX_FREQUENCY):
    """Per-frequency sum with one scalar draw per coefficient."""
    x = np.linspace(0.0, 1.0, n)
    vals = np.zeros(n)
    for k in range(max_frequency + 1):
        vals += rng.uniform(-1.0, 1.0) * np.cos(k * np.pi * x)
    for k in range(1, max_frequency + 1):
        vals += rng.uniform(-1.0, 1.0) * np.sin(k * np.pi * x)
    return vals


@pytest.mark.parametrize("n", [21, 201, 2001, 20001])
def test_trig_polynomial_matches_per_frequency_sum(n):
    rng, ref_rng = np.random.default_rng(11), np.random.default_rng(11)
    for _ in range(3):
        got = trig_polynomial(rng, n).values
        want = reference_trig_polynomial(ref_rng, n)
        assert np.max(np.abs(got - want)) <= 1e-13


def test_trig_polynomial_consumes_scalar_draws_in_order():
    rng, ref_rng = np.random.default_rng(12), np.random.default_rng(12)
    trig_polynomial(rng, 51)
    for _ in range(DRAWS):
        ref_rng.uniform(-1.0, 1.0)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_sample_in_ball_consumes_one_more_draw():
    rng, ref_rng = np.random.default_rng(13), np.random.default_rng(13)
    sample_in_ball(rng, GridFunction.constant(1.0, 51), 0.05, 1)
    for _ in range(DRAWS + 1):
        ref_rng.uniform(0.0, 1.0)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_cached_basis_is_read_only():
    basis = _trig_basis(51)
    assert basis.shape == (DRAWS, 51)
    with pytest.raises(ValueError):
        basis[0, 0] = 2.0


def test_second_call_on_same_grid_hits_cache():
    rng = np.random.default_rng(14)
    trig_polynomial(rng, 53)
    hits = _trig_basis.cache_info().hits
    trig_polynomial(rng, 53)
    assert _trig_basis.cache_info().hits == hits + 1


# --- batches ---------------------------------------------------------------------

def test_batch_rows_equal_single_draws():
    # a batch's basis product may round differently from a single draw's
    rng, ref_rng = np.random.default_rng(15), np.random.default_rng(15)
    center = GridFunction.constant(1.0, 201)
    draws = rng.random((6, POINT_DRAWS))
    batch = sample_in_ball(draws, center, 0.05, 1)
    assert batch.values.shape == (6, 201) and batch.n == 201
    for row in batch.values:
        single = sample_in_ball(ref_rng, center, 0.05, 1).values
        assert np.max(np.abs(row - single)) <= 1e-14
    directions = unit_direction(rng.random((3, DRAWS)), 201, 2)
    for row in directions.values:
        assert np.max(np.abs(row - unit_direction(ref_rng, 201, 2).values)) <= 1e-14


@pytest.mark.parametrize("n", [21, 201, 2001, 20001])
def test_a_prefix_of_a_batch_gives_a_prefix_of_its_functions(n):
    # products are taken in chunks of H rows, the last one padded, so a row
    # rounds the same however many rows follow it
    H = _chunk_rows(n)
    draws = np.random.default_rng(n).random((4 * H + 1, POINT_DRAWS))
    center = GridFunction.constant(1.0, n)

    def samples(d):
        return (trig_polynomial(d[:, :DRAWS], n), sample_in_ball(d, center, 0.05, 1),
                unit_direction(d[:, :DRAWS], n, 2))

    whole = samples(draws)
    for k in (1, H - 1, H, H + 1, 3 * H + 1):
        for part, full in zip(samples(draws[:k]), whole):
            assert np.array_equal(part.values, full.values[:k])


def test_batch_draws_need_one_sample_per_row():
    with pytest.raises(ValueError, match="draws per sample"):
        trig_polynomial(np.zeros((2, DRAWS + 1)), 51)


def test_single_polynomial_is_validated_and_a_batch_is_not(monkeypatch):
    calls = []
    original = GridFunction.__post_init__
    monkeypatch.setattr(GridFunction, "__post_init__",
                        lambda self: calls.append(1) or original(self))
    trig_polynomial(np.random.default_rng(16), 51)
    assert len(calls) == 1
    trig_polynomial(np.random.default_rng(16).random((4, DRAWS)), 51)
    assert len(calls) == 1


# --- norms from coefficients -----------------------------------------------------

@pytest.mark.parametrize("n", [3, 4, 5, 17, 21, 201, 2001, 2049, 20001])
def test_span_norm_equals_the_norm_of_the_values(n):
    # below 17 nodes the Gram matrix is singular; at n = 20001 and a = 2 the
    # values' own second differences round to about 5e-13
    coeffs = -1.0 + 2.0 * np.random.default_rng(n).random((200, DRAWS))
    for a in (0, 1, 2):
        got = _span_norm(coeffs, n, a)
        for rows in np.array_split(np.arange(200), 10):
            values = coeffs[rows] @ _trig_basis(n)
            want = sobolev_norm(GridFunction._trusted(values), a)
            np.testing.assert_allclose(got[rows], want, rtol=1e-12, atol=0.0)
        assert _span_norm(coeffs[0], n, a) == pytest.approx(got[0], rel=1e-15)


@pytest.mark.parametrize("a", [3, -1])
def test_samplers_reject_an_unsupported_scale_index(a):
    center = GridFunction.constant(1.0, 51)
    with pytest.raises(ValueError, match="unsupported scale index"):
        sample_in_ball(np.random.default_rng(17), center, 0.05, a)
    with pytest.raises(ValueError, match="unsupported scale index"):
        unit_direction(np.random.default_rng(17), 51, a)


@pytest.mark.parametrize("a", [1, 2])
def test_span_gram_is_built_in_one_pass_over_the_basis(a):
    n = 20001
    unit = DRAWS * n * 8  # one basis-sized array
    _trig_basis(n)
    tracemalloc.start()
    try:
        gram = _span_gram.__wrapped__(n, a)  # built afresh, past the cache
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one derivative of the basis per order; a weighted copy for a matrix
    # product would add one more
    assert peak < (a + 0.5) * unit
    assert gram.shape == (DRAWS, DRAWS) and not gram.flags.writeable
