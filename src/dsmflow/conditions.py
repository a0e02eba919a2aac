"""Sampled estimates of the flow's condition constants and admissibility checks.

The two-sided derivative bound, the composed-derivative bound and the
derivative Lipschitz bound are certified here only on sampled directions;
the report carries seed and sample count so every estimate is reproducible.
The admissibility radius rho0 derived from the two-sided constants is the
perturbation budget under which a flow solve is guaranteed to converge
inside the working ball.

``estimate_constants`` evaluates its samples in (rows, n) blocks sized by
a memory budget, ``ESTIMATE_BLOCK_ELEMENTS`` grid values per function,
each a whole number of the samplers' product chunks and none padded: each
kind of point of a block is one batched call into the public sampling
functions.

The two-sided ratio ||A(u)q||_{a+delta} is screened from coefficients.
With U constant, u = U + s c B and q = e B / ||e B||_a lie in the span of
the sampling basis B, and each built-in states A(u)q = I(phi'(u) q) as
I(f g), the trapezoid integral of a product of two such functions (2u and
q, or 1 and q); so its norm is a quadratic form in the values of f g at 33
collocation points, with a Gram matrix cached per grid
(``sampling._image_norm``), and no grid value is touched. The estimate
keeps only the min and max of these ratios, so only candidates for them
are taken on the grid: the rows whose screened ratio lies within a
relative ``SCREEN_TOLERANCE`` of the running min or max, or past it, or
outside ``SCREEN_RANGE``, where the grid's norm may overflow or underflow
(see ``_Bracket``). Those go through the public operator layer as every
row went before: ``apply_derivative`` forms A(u)q as a cumulative sum and
``scale.sobolev_norm`` takes its H_{a+delta} norm, on the rows of the
block's own u and q, or on the candidates' product chunks drawn again, so
each row has the bits it has in the block. So the bracket, rho0 and the
skipped count equal those of taking every ratio on the grid, bit for bit;
an operator without a screen, or a U that is not constant, takes every
kept row on the grid. ``scale.sobolev_norm`` also takes the H_a distance
u - v. The composed and Lipschitz ratios form no cumulative sum: the
operator's ``_apply_slope`` gives the fused stencil derivative D A(.)q =
M(phi'(.) q) (M = ``scale._derivative_of_integral``), the workspace form of
``solve_derivative`` divides it, and ``scale._norm``, the flow's norm,
takes the H_a norms of the results in the workspace's ``res`` block. The
samplers normalise the sampled points and directions from their
coefficients, through the cached Gram matrix of the sampling basis, and
each direction q is a unit direction, ||q||_a = 1, so no ratio divides by
a norm of q. With ``bracket_only`` it computes the two-sided ratios
alone, from the same draws, so its bracket and rho0 equal the full
estimate's bit for bit; its report's ``c_iso`` and ``c_lip`` are then
None. It evaluates the points u and v on the grid only where a bound from
their coefficients cannot show that they pass the guard, and q only for
the candidates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .flow import residual
from .operators import ProblemSetup
from .sampling import (
    DIRECTION_DRAWS,
    POINT_DRAWS,
    _ball_reach,
    _chunk_rows,
    _coefficients,
    _image_norm,
    _radial_scale,
    _span_norm,
    sample_in_ball,
    unit_direction,
)
from .scale import (
    GridFunction,
    Workspace,
    _norm,
    _require_one,
    ball_distance,
    sobolev_norm,
)

# Grid values per function in one block of the constants estimate, a memory
# budget taken in whole chunks of the samplers' products, at least one: 320
# rows at n = 201, 32 at n = 2001, 14 at n = 4097, 2 at n = 20001.
ESTIMATE_BLOCK_ELEMENTS = 2 ** 16


class EstimationError(RuntimeError):
    """No usable samples survived the operator guard."""


@dataclass(frozen=True)
class ConstantsReport:
    """Sampled condition constants on the ball of radius ``radius``.

    Each sample's direction q is a unit direction, ||q||_a = 1.
    ``c0_lower``/``c0_upper`` bracket ||A(u)q||_{a+delta} over the samples;
    ``c_iso`` is the largest composed norm ||A^{-1}(v)A(w)q||_a and
    ``c_lip`` the largest derivative-difference ratio
    ||A^{-1}(u)(A(u) - A(v))q||_a / ||u - v||_a, both None on a bracket-only
    report; A^{-1} divides the stencil derivative of its argument, which
    both take from the fused D A(.)q. ``rho0`` is the admissibility radius
    derived from the bracket.
    """

    c0_lower: float
    c0_upper: float
    c_iso: float | None
    c_lip: float | None
    rho0: float
    radius: float
    sample_count: int
    seed: int
    skipped: int


@dataclass(frozen=True)
class AdmissibilityVerdict:
    """Outcome of checking one (u0, h) pair against a constants report."""

    rho0: float
    dist_u0: float
    dist_h: float
    r: float
    R_required: float
    admissible: bool
    margin: float
    radius_ok: bool


def rho_max(R: float, c0: float, c0_prime: float) -> float:
    """Admissibility radius R / (1 + (1 + c0') / c0)."""
    if R <= 0.0 or c0 <= 0.0 or c0_prime <= 0.0:
        raise ValueError("R, c0 and c0_prime must all be positive")
    return R / (1.0 + (1.0 + c0_prime) / c0)


def r_bound(g0: float, c0: float) -> float:
    """Trajectory drift bound g(0) / c0."""
    if g0 < 0.0:
        raise ValueError("g0 must be nonnegative")
    if c0 <= 0.0:
        raise ValueError("c0 must be positive")
    return g0 / c0


def estimate_constants(p: ProblemSetup, sample_count: int = 200, seed: int = 0,
                       bracket_only: bool = False) -> ConstantsReport:
    """Estimate the condition constants by sampling the working ball.

    Each sample draws points u, v, w from the ball and a unit direction q,
    then accumulates the min/max of the relevant norm ratios. Samples whose
    A^{-1} application trips the operator guard are skipped and counted.
    Draws are consumed in a fixed per-sample order, so for a fixed seed a
    longer run extends a shorter one sample for sample.

    Samples are evaluated a block at a time, each drawn by one
    ``Generator.random`` call that consumes the same numbers as drawing them
    one after another. A block holds H * max(1, ESTIMATE_BLOCK_ELEMENTS //
    (H * n)) rows, a whole number of the samplers' H-row product chunks
    (H = ``sampling._chunk_rows(n)``), and the last block only the samples
    left. So every sample sits at the same position of an H-row product in
    any run, and a longer run extends a shorter one exactly. Like the
    builtins min and max, the reductions pass over NaN ratios. A
    constant that comes out non-finite, because the ball's norms overflow,
    raises ``ValueError`` naming it.

    ``bracket_only`` skips w, both A^{-1} applications and the u - v
    distance: the report holds the same bracket, rho0 and skipped count,
    with ``c_iso`` and ``c_lip`` None, and no check on the skipped
    quantities can fail. It evaluates u and v, which the bracket reads only
    through the operator guard, only in a block where the certified bound
    min U - R xi sum |c_i| / ||c B||_a (``sampling._ball_reach``) cannot
    clear that guard for every row; so a ``LinearSmoothing`` bracket,
    which has no guard, never draws them. Either way only the candidates
    for the bracket's min and max take their two-sided ratio on the grid
    (see ``_Bracket``).
    """
    if sample_count < 10:
        raise ValueError("sample_count must be at least 10")
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    rng = np.random.default_rng(seed)
    chunk = _chunk_rows(p.U.n)
    rows = chunk * max(1, ESTIMATE_BLOCK_ELEMENTS // (chunk * p.U.n))
    bracket = _Bracket(p)
    blocks = [
        _constants_ratios(
            p, rng.random((min(rows, sample_count - start), _CONSTANTS_DRAWS)), bracket_only,
            bracket)
        for start in range(0, sample_count, rows)
    ]
    ratios = [np.concatenate(parts) for parts in zip(*blocks)]
    if ratios[0].size == 0:
        raise EstimationError(f"all {sample_count} samples tripped the operator guard")
    constants = {"c0_lower": float(bracket.low), "c0_upper": float(bracket.high)}
    for name, r in zip(("c_iso", "c_lip"), ratios[1:]):
        constants[name] = float(np.fmax.reduce(r, initial=-np.inf))
    for name, value in constants.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} is not finite: {value!r}")
    return ConstantsReport(
        **{"c_iso": None, "c_lip": None, **constants},
        rho0=rho_max(p.R, constants["c0_lower"], constants["c0_upper"]),
        radius=p.R,
        sample_count=sample_count,
        seed=seed,
        skipped=sample_count - ratios[0].size,
    )


# Per sample: the ball points u, v, w, then the direction q.
_CONSTANTS_DRAWS = 3 * POINT_DRAWS + DIRECTION_DRAWS

# Relative margin by which a screened two-sided ratio must clear the
# running min and max to be ruled out, a thousand times the largest
# difference between a screened ratio and the grid's measured on grids of
# 21 to 20001 nodes (tests/test_conditions.py). Inside ``SCREEN_RANGE`` the
# grid's norm neither overflows nor loses digits to underflow; a screened
# ratio outside it, or not finite, rules nothing out.
SCREEN_TOLERANCE = 1e-8
SCREEN_RANGE = (1e-100, 1e100)


def _screen(p: ProblemSetup, center: float | None, draws: np.ndarray):
    """The two-sided ratio ||A(u)q||_{a+delta} of each row of `draws`
    from its coefficients alone: u = U + s c B with the center U constant
    (`center`, else None) and q = e B / ||e B||_a, each scaled as the
    samplers scale it, and A(u)q = I(f g) as the operator states it
    (``ScaleOperator._image_factors``), whose norm
    ``sampling._image_norm`` takes. None where the operator states no
    such form."""
    a, n = p.a, p.U.n
    u = None
    if center is not None:
        u_draws = draws[:, :POINT_DRAWS]
        u = _coefficients(u_draws[:, :DIRECTION_DRAWS])
        u *= _radial_scale(u_draws, n, p.R, a)[:, np.newaxis]
        u[:, 0] += center  # the basis's first function is 1
    q = _coefficients(draws[:, 3 * POINT_DRAWS:])
    q /= _span_norm(q, n, a)[:, np.newaxis]
    factors = p.operator._image_factors(u, q)
    return None if factors is None else _image_norm(*factors, n, a + p.delta)


class _Bracket:
    """The running bracket of an estimate: the min and max of the grid's
    two-sided ratio ||A(u)q||_{a+delta} (``apply_derivative`` and
    ``sobolev_norm``) over the kept samples of the blocks added so far.

    Only candidates are taken on the grid. A block's kept rows are
    screened (``_screen``); a screened ratio within a relative
    ``SCREEN_TOLERANCE`` of the lower of the running min and the block's
    own screened min, or of the higher of the maxima, or past them, is a
    candidate, and so is one outside ``SCREEN_RANGE`` or not finite; with
    no screen every kept row is. A screened ratio differs from the grid's
    by far less than the tolerance, so a row that clears both extremes by
    it lies strictly between two ratios the bracket already holds or is
    about to take, and cannot be the estimate's min or max. So the bracket
    equals the min and max of every kept row's grid ratio, bit for bit."""

    def __init__(self, p: ProblemSetup):
        self.p = p
        values = p.U.values
        # U + s c B lies in the span of the basis only for a constant U
        self.center = float(values[0]) if (values == values[0]).all() else None
        self.low, self.high = np.inf, -np.inf

    def add(self, draws: np.ndarray, keep: np.ndarray, u: GridFunction | None = None,
            q: GridFunction | None = None) -> np.ndarray:
        """Take the candidates among the rows of a block of draws that
        `keep` marks on the grid into the bracket, and return each kept
        row's screened ratio (its grid ratio where there is no screen).
        The candidates' u and q are the rows of the block's own u and q
        where given; otherwise their product chunks are drawn again
        whole, so each row sits at its position in its chunk, as in the
        block, and has the block's bits."""
        p = self.p
        screened = _screen(p, self.center, draws)
        if screened is None:
            rows = np.flatnonzero(keep)
        else:
            tol = 1.0 + SCREEN_TOLERANCE
            trusted = keep & (screened > SCREEN_RANGE[0]) & (screened < SCREEN_RANGE[1])
            low = min(self.low, screened[trusted].min(initial=np.inf))
            high = max(self.high, screened[trusted].max(initial=-np.inf))
            inside = trusted & (screened > low * tol) & (screened < high / tol)
            rows = np.flatnonzero(keep & ~inside)
        grid = np.empty(0)
        if rows.size:
            if u is None:
                u, q, rows = self._drawn(draws, rows)
            pick = [GridFunction._trusted(f.values[rows]) for f in (u, q)]
            grid = sobolev_norm(p.operator.apply_derivative(*pick), p.a + p.delta)
            self.low = np.fmin.reduce(grid, initial=self.low)
            self.high = np.fmax.reduce(grid, initial=self.high)
        return grid if screened is None else screened[keep]

    def _drawn(self, draws, rows):
        """u and q of the product chunks that hold `rows`, drawn whole (the
        block's last chunk up to its end), and the rows' indices in them."""
        p, height = self.p, _chunk_rows(self.p.U.n)
        chunks = np.zeros(-(-len(draws) // height), dtype=bool)
        chunks[rows // height] = True
        taken = np.flatnonzero(np.repeat(chunks, height)[:len(draws)])
        u = sample_in_ball(draws[taken, :POINT_DRAWS], p.U, p.R, p.a)
        q = unit_direction(draws[taken, 3 * POINT_DRAWS:], p.U.n, p.a)
        return u, q, np.searchsorted(taken, rows)


def _constants_ratios(p: ProblemSetup, draws: np.ndarray, bracket_only: bool,
                      bracket: _Bracket):
    """The two-sided, composed and Lipschitz ratios of a block of samples,
    one per row of `draws`, over the samples whose u and v pass the
    operator guard; the two-sided ratios alone if `bracket_only`. The
    two-sided ratios are screened from coefficients, and `bracket` takes
    the candidates among them on the grid (see ``_Bracket``).

    The bracket reads u and v only through their guards. So with
    `bracket_only`, each is drawn on the grid only where the bound
    min U - reach (see ``sampling._ball_reach``) cannot clear the guard for
    every row of the block; an operator without a guard clears every row.
    The composed and Lipschitz ratios divide the fused slopes D A(.)q in
    row 0 of the ``res`` block of a ``Workspace`` of the block's shape,
    whose row 1 holds the second slope of the Lipschitz difference, and
    whose ``div`` and ``pairs`` the operator reads; ``scale._norm`` takes
    their H_a norms there, squaring in place."""
    op, a, n = p.operator, p.a, p.U.n

    def point(i):
        return sample_in_ball(draws[:, i * POINT_DRAWS:(i + 1) * POINT_DRAWS], p.U, p.R, a)

    def passes(i):
        floor = p.U.min() - _ball_reach(draws[:, i * POINT_DRAWS:(i + 1) * POINT_DRAWS], n, p.R, a)
        if op._clears_guard(floor).all():
            return np.ones(len(draws), dtype=bool)
        return ~op._below_guard(point(i).values)

    if bracket_only:
        return (bracket.add(draws, passes(0) & passes(1)),)
    # one product with the basis per point: stacked into one, the arrays
    # ran slower at n = 20001 and held more memory
    u = point(0)
    # ||q||_a = 1, so each ratio's denominator holds no norm of q
    q = unit_direction(draws[:, 3 * POINT_DRAWS:], n, a)
    v = point(1)
    v_ok = ~op._below_guard(v.values)
    keep = ~op._below_guard(u.values) & v_ok
    two_sided = bracket.add(draws, keep, u, q)
    w = point(2)
    # from the rounded values, not the coefficients: the points A(u) and
    # A(v) see may coincide although their coefficients differ
    lip_denom = ball_distance(u, v, a)
    # An overflowed distance measures nothing: its ratio is NaN, which the
    # reduction passes over, so a ball whose distances all overflow has no
    # finite c_lip.
    lip_denom[np.isinf(lip_denom)] = np.nan
    if (v_ok & (lip_denom == 0.0)).any():
        raise ValueError(f"ball radius {p.R!r} is too small: sampled points coincide")
    u, v, w, q = (f.values if keep.all() else f.values[keep] for f in (u, v, w, q))
    # scratch of the block's own, freed with it: a workspace kept per shape
    # across blocks would hold its arrays for the life of the process
    ws = Workspace(u.shape)
    terms = ws.res
    slope, other = terms.rows[:2]
    op._apply_slope(w, q, slope, ws)
    op.solve_derivative(v, slope, ws, slope)
    iso = _norm(terms, a, ws.dx, terms.values)
    op._apply_slope(u, q, slope, ws)
    np.subtract(slope.values, op._apply_slope(v, q, other, ws), slope.values)
    op.solve_derivative(u, slope, ws, slope)
    lip = _norm(terms, a, ws.dx, terms.values)
    return two_sided, iso, lip / lip_denom[keep]


def admissibility_check(p: ProblemSetup, u0: GridFunction, h: GridFunction,
                        report: ConstantsReport) -> AdmissibilityVerdict:
    """Check whether (u0, h) lies within the admissibility budget.

    The effective perturbation is the larger of ||u0 - U||_a and
    ||h - f||_{a+delta}; the pair is admissible when it stays within rho0.
    The drift bound r uses the measured initial residual, which is sharper
    than its analytic cap, and ``radius_ok`` reports whether the working
    radius covers drift plus perturbation. A distance or residual that
    overflows raises ``ValueError`` naming it, as does a batch of
    functions, shape (rows, n), passed as u0 or h.
    """
    _require_one(u0=u0, h=h)
    dist_u0 = ball_distance(u0, p.U, p.a)
    dist_h = ball_distance(h, p.f, p.a + p.delta)
    g0 = residual(p, u0, h)
    for name, value in (("dist_u0", dist_u0), ("dist_h", dist_h), ("g0", g0)):
        if not math.isfinite(value):
            raise ValueError(f"{name} is not finite: {value!r}")
    r = r_bound(g0, report.c0_lower)
    rho_eff = max(dist_u0, dist_h)
    return AdmissibilityVerdict(
        rho0=report.rho0,
        dist_u0=dist_u0,
        dist_h=dist_h,
        r=r,
        R_required=r + rho_eff,
        admissible=rho_eff <= report.rho0,
        margin=report.rho0 - rho_eff,
        radius_ok=p.R >= r + rho_eff,
    )
