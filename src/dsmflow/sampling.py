"""Seeded random test functions for ball sampling and direction probes.

Directions are low-order trigonometric polynomials: high frequencies would
make derivative-based norm ratios grid-dependent, so the default caps the
frequency at 8, which keeps discretization error below a percent at n = 201.

With K the maximum frequency, the (2K+1, n) cos/sin basis is built once
per grid and kept in a small cache, so one draw costs a single
coefficient-times-basis product. At the default K = 8 the basis holds
17 * n * 8 bytes (2.7 MB at n = 20001).

Draw order: ``trig_polynomial`` consumes 2K+1 uniform(-1, 1) draws, the
cosine coefficients for k = 0..K followed by the sine coefficients for
k = 1..K; ``sample_in_ball`` consumes one further uniform(0, 1) draw. A
block draw of size 2K+1 yields the same numbers as 2K+1 scalar draws, so a
seed selects the same samples and a longer run extends a shorter one.

Batches: in place of a Generator, the three samplers take an array of
uniform [0, 1) numbers whose last axis holds one sample's draws in that
order, and return one function per row, from one product with the basis.
``_sample_extremes`` draws many samples this way, a block of rows at a
time, each block one ``Generator.random`` call that consumes the same
numbers as drawing its samples one after another.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable

import numpy as np

from .scale import GridFunction, sobolev_norm

MAX_FREQUENCY = 8

# Uniform draws of one direction (its coefficients) and of one ball point
# (the coefficients, then the fraction of the radius).
DIRECTION_DRAWS = 2 * MAX_FREQUENCY + 1
POINT_DRAWS = DIRECTION_DRAWS + 1

# Rows x grid nodes of one block of samples: 40 rows at n = 201, one row
# from n = 4097 up. Two rows at n = 20001 ran faster but held about 2 MB
# more at their peak.
BLOCK_ELEMENTS = 8192


@lru_cache(maxsize=4)
def _trig_basis(n: int, max_frequency: int) -> np.ndarray:
    """Read-only rows cos(k pi x), k = 0..K, then sin(k pi x), k = 1..K."""
    x = np.linspace(0.0, 1.0, n)
    basis = np.empty((2 * max_frequency + 1, n))
    for k in range(max_frequency + 1):
        np.cos(k * np.pi * x, out=basis[k])
    for k in range(1, max_frequency + 1):
        np.sin(k * np.pi * x, out=basis[max_frequency + k])
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


def trig_polynomial(rng: np.random.Generator | np.ndarray, n: int,
                    max_frequency: int = MAX_FREQUENCY) -> GridFunction:
    """Random trigonometric polynomial with coefficients uniform in [-1, 1]."""
    # low + (high - low) * d, as Generator.uniform maps its draws
    coeffs = -1.0 + 2.0 * _draws(rng, 2 * max_frequency + 1)
    values = coeffs @ _trig_basis(n, max_frequency)
    # A single function keeps the public constructor, whose calls the
    # benchmark counts (ROADMAP item 6); only `_trusted` can wrap a batch.
    if values.ndim == 1:
        return GridFunction(values)
    return GridFunction._trusted(values)


def sample_in_ball(rng: np.random.Generator | np.ndarray, center: GridFunction,
                   radius: float, a: int,
                   max_frequency: int = MAX_FREQUENCY) -> GridFunction:
    """Draw a point of the ball of the given H_a radius around `center`.

    The random direction is rescaled to a uniformly drawn fraction of the
    radius, so draws fill the ball rather than its boundary.
    """
    k = 2 * max_frequency + 1
    draws = _draws(rng, k + 1)
    d = trig_polynomial(draws[..., :k], center.n, max_frequency)
    return center + _scale_rows(d, radius * draws[..., k] / sobolev_norm(d, a))


def unit_direction(rng: np.random.Generator | np.ndarray, n: int, a: int,
                   max_frequency: int = MAX_FREQUENCY) -> GridFunction:
    """Random direction with H_a norm one."""
    d = trig_polynomial(rng, n, max_frequency)
    return _scale_rows(d, 1.0 / sobolev_norm(d, a))


def _ball_points(draws: np.ndarray, count: int, center: GridFunction, radius: float,
                 a: int) -> tuple[GridFunction, ...]:
    """`count` ball points per row of a draw block, each taking the next
    POINT_DRAWS columns. Each is its own product with the basis: stacked
    into one, the arrays ran slower at n = 20001 and held more memory."""
    return tuple(sample_in_ball(draws[..., i * POINT_DRAWS:(i + 1) * POINT_DRAWS],
                                center, radius, a) for i in range(count))


def _sample_extremes(rng: np.random.Generator, sample_count: int, draws_per_sample: int,
                     n: int, evaluate: Callable) -> tuple[dict, int]:
    """Draw, evaluate and reduce `sample_count` samples on an n-node grid.

    Samples are drawn a block of BLOCK_ELEMENTS // n rows at a time, each
    row one sample's `draws_per_sample` uniform [0, 1) numbers.
    ``evaluate(draws, live)`` maps a block to ``{name: ratios}`` over the
    rows it keeps, keeping no row outside the bool mask ``live``. Every
    block has the same number of rows, the last one padded, so a sample's
    basis product rounds the same way whatever the sample count, and a
    longer run extends a shorter one exactly. A one-row block is passed as
    1-D draws, one sample, which skips the fixed cost a batch adds to each
    kernel call.

    Returns ``{name: (min, max)}`` over the kept rows and their number.
    Like the builtins min and max, the reduction passes over NaN ratios.
    """
    rows = max(1, BLOCK_ELEMENTS // n)
    kept: dict[str, list] = {}
    for start in range(0, sample_count, rows):
        live = np.arange(rows) < sample_count - start
        draws = rng.random((int(live.sum()), draws_per_sample))
        if rows == 1:
            block = evaluate(draws[0], live[0])
        else:
            block = evaluate(np.resize(draws, (rows, draws_per_sample)), live)
        for name, ratios in block.items():
            kept.setdefault(name, []).append(ratios)
    ratios = {name: np.concatenate(parts) for name, parts in kept.items()}
    extremes = {name: (float(np.fmin.reduce(r, initial=np.inf)),
                       float(np.fmax.reduce(r, initial=-np.inf))) for name, r in ratios.items()}
    return extremes, min((r.size for r in ratios.values()), default=0)
