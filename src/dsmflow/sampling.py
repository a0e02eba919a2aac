"""Seeded random test functions for ball sampling and direction probes.

Directions are low-order trigonometric polynomials: high frequencies would
make derivative-based norm ratios grid-dependent, so the frequency is
capped at K = MAX_FREQUENCY = 8, which keeps discretization error below a
percent at n = 201.

The (2K+1, n) cos/sin basis is built once per grid and kept in a small
cache, so one draw costs a single coefficient-times-basis product. It
holds 17 * n * 8 bytes (2.7 MB at n = 20001).

Draw order: ``trig_polynomial`` consumes 2K+1 uniform(-1, 1) draws, the
cosine coefficients for k = 0..K followed by the sine coefficients for
k = 1..K; ``sample_in_ball`` consumes one further uniform(0, 1) draw. A
block draw of size 2K+1 yields the same numbers as 2K+1 scalar draws, so a
seed selects the same samples and a longer run extends a shorter one.

Batches: in place of a Generator, the three samplers take an array of
uniform [0, 1) numbers whose last axis holds one sample's draws in that
order, and return one function per row, from one product with the basis.
``conditions.estimate_constants`` draws its samples this way, a block of
at least two rows at a time.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .scale import GridFunction, sobolev_norm

MAX_FREQUENCY = 8

# Uniform draws of one direction (its coefficients) and of one ball point
# (the coefficients, then the fraction of the radius).
DIRECTION_DRAWS = 2 * MAX_FREQUENCY + 1
POINT_DRAWS = DIRECTION_DRAWS + 1

# Rows x grid nodes of one block of samples, but never fewer than two rows:
# 40 rows at n = 201, 4 at n = 2001, 2 from n = 4097 up.
BLOCK_ELEMENTS = 8192


@lru_cache(maxsize=4)
def _trig_basis(n: int) -> np.ndarray:
    """Read-only rows cos(k pi x), k = 0..K, then sin(k pi x), k = 1..K."""
    x = np.linspace(0.0, 1.0, n)
    basis = np.empty((DIRECTION_DRAWS, n))
    for k in range(MAX_FREQUENCY + 1):
        np.cos(k * np.pi * x, out=basis[k])
    for k in range(1, MAX_FREQUENCY + 1):
        np.sin(k * np.pi * x, out=basis[MAX_FREQUENCY + k])
    basis.flags.writeable = False
    return basis


def _draws(rng: np.random.Generator | np.ndarray, count: int) -> np.ndarray:
    """`count` uniform [0, 1) numbers from a Generator, or the given batch
    of draws, `count` per row."""
    if isinstance(rng, np.random.Generator):
        return rng.random(count)
    if rng.shape[-1] != count:
        raise ValueError(f"need {count} draws per sample, got shape {rng.shape}")
    return rng


def _scale_rows(f: GridFunction, factor) -> GridFunction:
    """f times a factor per row (a float for a single function)."""
    return GridFunction._trusted(f.values * np.asarray(factor)[..., np.newaxis])


def trig_polynomial(rng: np.random.Generator | np.ndarray, n: int) -> GridFunction:
    """Random trigonometric polynomial with coefficients uniform in [-1, 1]."""
    # low + (high - low) * d, as Generator.uniform maps its draws
    coeffs = -1.0 + 2.0 * _draws(rng, DIRECTION_DRAWS)
    values = coeffs @ _trig_basis(n)
    # A single function keeps the public constructor, whose calls the
    # benchmark counts (ROADMAP item 6); only `_trusted` can wrap a batch.
    if values.ndim == 1:
        return GridFunction(values)
    return GridFunction._trusted(values)


def sample_in_ball(rng: np.random.Generator | np.ndarray, center: GridFunction,
                   radius: float, a: int) -> GridFunction:
    """Draw a point of the ball of the given H_a radius around `center`.

    The random direction is rescaled to a uniformly drawn fraction of the
    radius, so draws fill the ball rather than its boundary.
    """
    draws = _draws(rng, POINT_DRAWS)
    d = trig_polynomial(draws[..., :DIRECTION_DRAWS], center.n)
    return center + _scale_rows(d, radius * draws[..., DIRECTION_DRAWS] / sobolev_norm(d, a))


def unit_direction(rng: np.random.Generator | np.ndarray, n: int, a: int) -> GridFunction:
    """Random direction with H_a norm one."""
    d = trig_polynomial(rng, n)
    return _scale_rows(d, 1.0 / sobolev_norm(d, a))
