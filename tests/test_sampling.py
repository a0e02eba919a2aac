import numpy as np
import pytest

from dsmflow.sampling import (
    BLOCK_ELEMENTS,
    MAX_FREQUENCY,
    POINT_DRAWS,
    _sample_extremes,
    _trig_basis,
    sample_in_ball,
    trig_polynomial,
    unit_direction,
)
from dsmflow.scale import GridFunction

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


@pytest.mark.parametrize("n", [201, 20001])
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
    basis = _trig_basis(51, MAX_FREQUENCY)
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


def test_sample_extremes_blocks_pass_over_nan_and_consume_each_draw_once():
    rows = BLOCK_ELEMENTS // 201
    seen = []

    def evaluate(draws, live):
        seen.append((draws.shape, int(live.sum())))
        ratios = draws[:, 0].copy()
        ratios[0] = np.nan  # the builtins min and max pass over it
        return {"x": ratios[live]}

    rng, ref_rng = np.random.default_rng(17), np.random.default_rng(17)
    extremes, used = _sample_extremes(rng, rows + 5, 3, 201, evaluate)
    assert seen == [((rows, 3), rows), ((rows, 3), 5)]
    assert used == rows + 5
    first = ref_rng.random((rows + 5, 3))[:, 0]
    kept = np.concatenate([first[1:rows], first[rows + 1:]])
    assert extremes == {"x": (kept.min(), kept.max())}
    assert rng.bit_generator.state == ref_rng.bit_generator.state
