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

The constants estimate screens its two-sided ratios ||A(u)q||_{a+delta}
the same way, and takes on the grid only the few that could be its min
or max. The product of two sampled functions lies in the span of the 33
functions C = cos(m pi x), m <= 2K, and sin(m pi x), 1 <= m <= 2K, and is
known from its values at 33 collocation points; so the H_b norm of its
trapezoid integral is a quadratic form in those values, with a 33 x 33
Gram matrix cached per (n, b) and built in column panels of the grid,
without any (33, n) array (``_image_gram``, ``_image_norm``).

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
    """``coeffs @ matrix``, a (rows, k) batch in chunks of ``_chunk_rows(n)``
    rows, the last chunk padded with zero rows; a vector product for one
    1-D row of coefficients."""
    if coeffs.ndim == 1:
        return coeffs @ matrix
    (rows, width), height = coeffs.shape, _chunk_rows(n)
    chunks = -(-rows // height)
    padded = np.zeros((chunks * height, width))
    padded[:rows] = coeffs
    # a stacked product multiplies each (height, k) chunk on its own
    product = padded.reshape(chunks, height, width) @ matrix
    return product.reshape(chunks * height, matrix.shape[1])[:rows]


def _gram_norm(coeffs: np.ndarray, gram: np.ndarray, n: int):
    """sqrt(c G c^T) for each row c of `coeffs` (a scalar for a single
    row), its products with G taken in chunks as ``_chunked_product``
    takes them."""
    y = _chunked_product(coeffs, gram, n)
    return np.sqrt(np.einsum("...i,...i->...", y, coeffs))


def _span_norm(coeffs: np.ndarray, n: int, a: int):
    """Discrete H_a norm of ``coeffs @ _trig_basis(n)``, one per row of
    `coeffs` (a scalar for a single row), from the cached Gram matrix."""
    return _gram_norm(coeffs, _span_gram(n, a), n)


# The images' basis C: cos(m pi x), m = 0..2K, then sin(m pi x), m = 1..2K.
# The product f g of two sampled functions lies in its span, by the
# product-to-sum identities, and so A(u)q = I(f g), with I the trapezoid
# integral, lies in the span of the integrals I C.
IMAGE_TERMS = 4 * MAX_FREQUENCY + 1

# Grid nodes per column panel of ``_image_gram``.
IMAGE_PANEL = 512


@lru_cache(maxsize=1)
def _collocation() -> tuple[np.ndarray, np.ndarray]:
    """The (17, 33) values of the sampling basis at the 33 collocation
    points x_p = 2p / 33, equally spaced over [0, 2), the period of every
    C_m, and the (33, 33) matrix M that takes the values of a function in
    the span of C at those points to its coefficients in C.

    C is orthogonal on the points: sum_p C_m(x_p) C_l(x_p) is 33 for
    m = l = 0, 33 / 2 for m = l > 0 and 0 otherwise. So, with E the values
    of C at the points (E[p, m] = C_m(x_p)), M = E diag(1/33, 2/33, ...).
    A product f g is known exactly from its values, the products of f's
    and g's: this is how the product-to-sum identities are applied."""
    K, K2 = MAX_FREQUENCY, 2 * MAX_FREQUENCY
    angles = np.outer(2.0 * np.pi * np.arange(IMAGE_TERMS) / IMAGE_TERMS, np.arange(K2 + 1))
    E = np.hstack([np.cos(angles), np.sin(angles[:, 1:])])
    basis = np.r_[0:K + 1, K2 + 1:K2 + K + 1]
    scale = np.full(IMAGE_TERMS, 2.0 / IMAGE_TERMS)
    scale[0] = 1.0 / IMAGE_TERMS
    values, to_coefficients = E[:, basis].T.copy(), E * scale
    values.flags.writeable = to_coefficients.flags.writeable = False
    return values, to_coefficients


@lru_cache(maxsize=4)
def _image_gram(n: int, b: int) -> np.ndarray:
    """Read-only 33 x 33 Gram matrix G of the integrals I C in the discrete
    H_b inner product, so that g G g^T is the squared H_b norm of
    ``integrate_from_zero(g @ C)`` for a row of coefficients g, taken to
    the collocation points' values (see the end).

    No (33, n) array is formed. Let phi be x followed by C. The trapezoid
    sums of cosines and sines have closed forms,
    I cos(m pi x) = k_m sin(m pi x) and I sin(m pi x) = k_m (1 - cos(m pi x)),
    k_m = dx / 2 cot(m pi dx / 2) (I cos = x and I sin = 0 where m dx / 2
    is a whole number: there cos is 1 at every node), and the central
    difference maps phi into its span: D x = 1, D cos = -s sin and
    D sin = s cos, s = sin(m pi dx) / dx. So at the nodes where no stencil
    reaches an end stencil, j or more from either end, D^j I C = L_j phi
    for fixed 33 x 34 matrices L_j, and G is the sum over j <= b of
    L_j P L_j^T, with P the 34 x 34 Gram matrix of phi, summed over
    column panels of ``IMAGE_PANEL`` nodes, each built from the cached
    basis; the j nodes at each end are then corrected by their own terms,
    derived from I C on the first and last 2b + 1 nodes. The matrix kept is
    M G M^T (M from ``_collocation``), the Gram matrix of I applied to the
    functions of the span of C that are 1 at one collocation point and 0
    at the others, so that h G h^T is the squared norm of I f for the
    values h of f at the collocation points."""
    check_scale_index(b)
    K2 = 2 * MAX_FREQUENCY
    dx = 1.0 / (n - 1)
    m = np.arange(1, K2 + 1)
    theta = m * np.pi * dx
    aliased = m % (2 * (n - 1)) == 0
    kappa = np.where(aliased, 0.0, dx / 2.0 / np.tan(theta / 2.0))
    # columns of phi: x, then cos m at 1 + m and sin m at 1 + K2 + m;
    # rows of I C: cos m at m, sin m at K2 + m
    lift = np.zeros((IMAGE_TERMS, IMAGE_TERMS + 1))
    lift[0, 0] = 1.0
    lift[m, 1 + K2 + m] = kappa
    lift[m[aliased], 0] = 1.0
    lift[K2 + m, 1] = kappa
    lift[K2 + m, 1 + m] = -kappa
    step = np.zeros((IMAGE_TERMS + 1, IMAGE_TERMS + 1))
    step[0, 1] = 1.0
    s = np.sin(theta) / dx
    step[1 + m, 1 + K2 + m] = -s
    step[1 + K2 + m, 1 + m] = s
    maps = [lift]
    for _ in range(b):
        maps.append(maps[-1] @ step)
    K, basis = MAX_FREQUENCY, _trig_basis(n)

    def phi(lo, hi, out):
        """phi at nodes lo to hi - 1, written into ``out``: C from the
        cached basis, its frequencies K + k by cos(K + k) = cos K cos k -
        sin K sin k and sin(K + k) = sin K cos k + cos K sin k."""
        cos, sin = basis[:K + 1, lo:hi], basis[K + 1:, lo:hi]
        high_cos, high_sin = out[K + 2:K2 + 2], out[K2 + K + 2:]
        np.multiply(np.arange(lo, hi), dx, out[0])
        out[1:K + 2] = cos
        out[K2 + 2:K2 + K + 2] = sin
        np.multiply(cos[K], cos[1:], high_cos)
        high_cos -= sin[K - 1] * sin
        np.multiply(sin[K - 1], cos[1:], high_sin)
        high_sin += cos[K] * sin
        return out

    panel = np.empty((IMAGE_TERMS + 1, min(n, IMAGE_PANEL)))
    inner = np.zeros((IMAGE_TERMS + 1, IMAGE_TERMS + 1))
    for lo in range(0, n, IMAGE_PANEL):
        hi = min(n, lo + IMAGE_PANEL)
        values = phi(lo, hi, panel[:, :hi - lo])
        # a product with a copy of the transpose: numpy's symmetric product
        # (syrk), on first use, raises a process's resident memory by more
        # than this panel holds
        inner += values @ values.T.copy()
    for node in (0, n - 1):  # the trapezoid's half weights
        end = phi(node, node + 1, np.empty((IMAGE_TERMS + 1, 1)))[:, 0]
        inner -= 0.5 * np.outer(end, end)
    inner *= dx
    gram = sum(L @ inner @ L.T for L in maps)
    width = 2 * b + 1
    windows = [(0, n)] if n <= 2 * width else [(0, width), (n - width, n)]
    for lo, hi in windows:
        values = phi(lo, hi, np.empty((IMAGE_TERMS + 1, hi - lo)))
        nodes = np.arange(lo, hi)
        weights = np.where((nodes == 0) | (nodes == n - 1), dx / 2.0, dx)
        terms = maps[0] @ values
        for j in range(1, b + 1):
            terms = _derivative(_differenced(terms), dx, _derived(np.empty_like(terms)))
            near = (nodes < j) | (nodes >= n - j)
            got, model = terms[:, near], (maps[j] @ values)[:, near]
            gram += (got * weights[near]) @ got.T - (model * weights[near]) @ model.T
    to_coefficients = _collocation()[1]
    gram = to_coefficients @ gram @ to_coefficients.T
    gram.flags.writeable = False
    return gram


def _image_norm(f: np.ndarray, g: np.ndarray, n: int, b: int) -> np.ndarray:
    """The discrete H_b norm of I(f g) on the n-point grid, one per row,
    for the functions f and g whose coefficients in the sampling basis are
    the rows of `f` and `g` (or one row, for all): sqrt(h G h^T), with h
    the values of f g at the collocation points and G from
    ``_image_gram``. Each product is taken in chunks as
    ``_chunked_product`` takes it."""
    values = _collocation()[0]
    h = _chunked_product(f, values, n) * _chunked_product(g, values, n)
    return _gram_norm(h, _image_gram(n, b), n)


def _draws(rng: np.random.Generator | np.ndarray, count: int) -> np.ndarray:
    """`count` uniform [0, 1) numbers from a Generator, or the given batch
    of draws, `count` per row."""
    if isinstance(rng, np.random.Generator):
        return rng.random(count)
    if rng.shape[-1] != count:
        raise ValueError(f"need {count} draws per sample, got shape {rng.shape}")
    return rng


def _scale_rows(f: GridFunction, factor) -> np.ndarray:
    """The values of f times a factor per row (a float for a single
    function), a fresh array."""
    return f.values * np.asarray(factor)[..., np.newaxis]


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
    radius, so draws fill the ball rather than its boundary. Each point is
    built in one fresh array: the scaled direction, to which the center is
    added in place (the bits of center + offset, as addition commutes).
    """
    draws = _draws(rng, POINT_DRAWS)
    d = trig_polynomial(draws[..., :DIRECTION_DRAWS], center.n)
    point = _scale_rows(d, _radial_scale(draws, center.n, radius, a))
    point += center.values
    return GridFunction._trusted(point)


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
    scaled = _scale_rows(trig_polynomial(draws, n), 1.0 / _span_norm(_coefficients(draws), n, a))
    return GridFunction._trusted(scaled)
