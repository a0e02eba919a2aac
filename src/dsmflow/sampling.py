"""Seeded random test functions for ball sampling and direction probes.

Directions are low-order trigonometric polynomials: high frequencies would
make derivative-based norm ratios grid-dependent, so the frequency is
capped at K = MAX_FREQUENCY = 8, which keeps discretization error below a
percent at n = 201.

The (2K+1, n) cos/sin basis is built once per grid and kept in a small
cache, so one draw costs a single coefficient-times-basis product. It
holds 17 * n * 8 bytes (2.7 MB at n = 20001).

Every sample is a coefficient row c times that basis, so its discrete H_a
norm is a quadratic form in c: with G the basis's H_a Gram matrix, cached
per (n, a), it is sqrt(c G c^T), taken without touching the grid. Each G
holds 17 * 17 * 8 bytes (2.3 kB) whatever n is, and is built in one pass
over the whole basis, no column slices, holding one basis-sized
derivative per order up to a. The samplers take their normalising norms
from it. Norms of anything computed from the rounded values, such as
operator images or the distance between two points, stay with
``scale.sobolev_norm``.

Draw order: ``trig_polynomial`` consumes 2K+1 uniform(-1, 1) draws, the
cosine coefficients for k = 0..K followed by the sine coefficients for
k = 1..K; ``sample_in_ball`` consumes one further uniform(0, 1) draw. A
block draw of size 2K+1 yields the same numbers as 2K+1 scalar draws, so a
seed selects the same samples and a longer run extends a shorter one.

Batches: in place of a Generator, the three samplers take a (rows, k)
array of uniform [0, 1) numbers, each row one sample's draws in that
order, and return one function per row. A product's rounding depends on
its row count, so every batched product, coefficients times the basis or
times G, is taken in chunks of H = max(2, BLOCK_ELEMENTS // n) rows (40
at n = 201, 4 at n = 2001, 2 from n = 4097 up), the last chunk's
coefficient rows padded with zeros: each row rounds as it does at its
position, i mod H, of an H-row product, however long the batch. So the
first k rows of a batch give the first k functions of the whole batch
bit for bit. A single draw is one vector product, which may round
differently. ``conditions.estimate_constants`` draws its samples this
way, a block of whole chunks at a time.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .scale import (
    BLOCK_ELEMENTS,
    GridFunction,
    _derivative,
    _derived,
    _differenced,
    check_scale_index,
)

MAX_FREQUENCY = 8

# Uniform draws of one direction (its coefficients) and of one ball point
# (the coefficients, then the fraction of the radius).
DIRECTION_DRAWS = 2 * MAX_FREQUENCY + 1
POINT_DRAWS = DIRECTION_DRAWS + 1


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


@lru_cache(maxsize=8)
def _span_gram(n: int, a: int) -> np.ndarray:
    """Read-only 17 x 17 Gram matrix G of the basis B of ``_trig_basis(n)``
    in the discrete H_a inner product, so that c G c^T is the squared norm
    of c @ B: the sum over j <= a of (D^j B) diag(w) (D^j B)^T, with w the
    trapezoid weights and D the grid derivative."""
    check_scale_index(a)
    dx = 1.0 / (n - 1)
    weights = np.full(n, dx)
    weights[[0, -1]] = dx / 2.0
    f = _trig_basis(n)
    gram = np.zeros((DIRECTION_DRAWS, DIRECTION_DRAWS))
    for j in range(a + 1):
        if j:
            f = _derivative(_differenced(f), dx, _derived(np.empty_like(f)))
        # einsum reduces without the weighted copy a matrix product needs
        gram += np.einsum("in,jn,n->ij", f, f, weights)
    gram.flags.writeable = False
    return gram


def _chunk_rows(n: int) -> int:
    """Rows H of one chunk of a batched product on the n-point grid."""
    return max(2, BLOCK_ELEMENTS // n)


def _chunked_product(coeffs: np.ndarray, matrix: np.ndarray, n: int) -> np.ndarray:
    """``coeffs @ matrix``, a (rows, 17) batch in chunks of ``_chunk_rows(n)``
    rows, the last chunk padded with zero rows; a vector product for one
    1-D row of coefficients."""
    if coeffs.ndim == 1:
        return coeffs @ matrix
    rows, height = len(coeffs), _chunk_rows(n)
    chunks = -(-rows // height)
    padded = np.zeros((chunks * height, DIRECTION_DRAWS))
    padded[:rows] = coeffs
    # a stacked product multiplies each (height, 17) chunk on its own
    product = padded.reshape(chunks, height, DIRECTION_DRAWS) @ matrix
    return product.reshape(chunks * height, matrix.shape[1])[:rows]


def _span_norm(coeffs: np.ndarray, n: int, a: int):
    """Discrete H_a norm of ``coeffs @ _trig_basis(n)``, one per row of
    `coeffs` (a scalar for a single row), from the cached Gram matrix."""
    y = _chunked_product(coeffs, _span_gram(n, a), n)
    return np.sqrt(np.einsum("...i,...i->...", y, coeffs))


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


def _coefficients(draws: np.ndarray) -> np.ndarray:
    """Coefficients uniform in [-1, 1] from uniform [0, 1) draws."""
    # low + (high - low) * d, as Generator.uniform maps its draws
    return -1.0 + 2.0 * draws


def trig_polynomial(rng: np.random.Generator | np.ndarray, n: int) -> GridFunction:
    """Random trigonometric polynomial with coefficients uniform in [-1, 1]."""
    values = _chunked_product(_coefficients(_draws(rng, DIRECTION_DRAWS)), _trig_basis(n), n)
    # A single function keeps the public constructor, whose calls the
    # benchmark counts (ROADMAP item 4); only `_trusted` can wrap a batch.
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
    return center + _scale_rows(d, _radial_scale(draws, center.n, radius, a))


def _radial_scale(draws: np.ndarray, n: int, radius: float, a: int):
    """The factor, per row of ball-point draws, that takes each row's trig
    polynomial to its point's offset from the center: the drawn fraction
    of the radius over the polynomial's H_a norm, from the coefficients."""
    norm = _span_norm(_coefficients(draws[..., :DIRECTION_DRAWS]), n, a)
    return radius * draws[..., DIRECTION_DRAWS] / norm


# Relative margin of ``_ball_reach`` over the exact bound it rounds up; the
# rounding it covers is about 40 units in the last place, 4.4e-15.
REACH_MARGIN = 1e-12


def _ball_reach(draws: np.ndarray, n: int, radius: float, a: int) -> np.ndarray:
    """An upper bound, per row of ball-point draws, on |v - center| at
    every node, for v = ``sample_in_ball(draws, center, radius, a)`` on
    the n-point grid, taken from the coefficients c without the grid.

    Each row is center + d s, with d = c B, s its ``_radial_scale`` (the
    same bits here as there) and B the cos/sin basis, whose values round
    into [-1, 1]. So |d| <= sum |c_i| at every node but for the rounding
    of the 17-term product, and the rounded d s and center + d s lie no
    further from the center than sum |c_i| s and its rounding. The bound is
    sum |c_i| s (1 + ``REACH_MARGIN``), which covers those roundings and
    that of the sum and the products here, plus the smallest normal float,
    which covers underflow. Since rounding is monotone, no node of v lies
    below the rounded min(center) - reach: a guard at or below that floor
    cannot trip. A NaN or inf reach bounds nothing."""
    coeffs = _coefficients(draws[..., :DIRECTION_DRAWS])
    reach = np.abs(coeffs).sum(-1) * _radial_scale(draws, n, radius, a)
    return reach * (1.0 + REACH_MARGIN) + np.finfo(float).tiny


def unit_direction(rng: np.random.Generator | np.ndarray, n: int, a: int) -> GridFunction:
    """Random direction with H_a norm one."""
    draws = _draws(rng, DIRECTION_DRAWS)
    return _scale_rows(trig_polynomial(draws, n), 1.0 / _span_norm(_coefficients(draws), n, a))
