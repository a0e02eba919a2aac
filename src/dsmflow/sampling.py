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
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .scale import GridFunction, sobolev_norm

MAX_FREQUENCY = 8


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


def trig_polynomial(rng: np.random.Generator, n: int,
                    max_frequency: int = MAX_FREQUENCY) -> GridFunction:
    """Random trigonometric polynomial with coefficients uniform in [-1, 1]."""
    coeffs = rng.uniform(-1.0, 1.0, size=2 * max_frequency + 1)
    return GridFunction(coeffs @ _trig_basis(n, max_frequency))


def sample_in_ball(rng: np.random.Generator, center: GridFunction, radius: float,
                   a: int, max_frequency: int = MAX_FREQUENCY) -> GridFunction:
    """Draw a point of the ball of the given H_a radius around `center`.

    The random direction is rescaled to a uniformly drawn fraction of the
    radius, so draws fill the ball rather than its boundary.
    """
    d = trig_polynomial(rng, center.n, max_frequency)
    xi = rng.uniform(0.0, 1.0)
    return center + d * (radius * xi / sobolev_norm(d, a))


def unit_direction(rng: np.random.Generator, n: int, a: int,
                   max_frequency: int = MAX_FREQUENCY) -> GridFunction:
    """Random direction with H_a norm one."""
    d = trig_polynomial(rng, n, max_frequency)
    return d * (1.0 / sobolev_norm(d, a))
