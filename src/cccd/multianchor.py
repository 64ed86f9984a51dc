"""Domination number with more than two anchor points.

Sorted anchors y_(1) < ... < y_(m) split the support into m + 1 cells.  The
digraph restricted to one cell is independent of the others given the cell
counts, so the total domination number is a sum of per-cell contributions:
an end cell contributes 1 exactly when it holds a point, and a middle cell
holding t points contributes 1 or 2 with the two-anchor probability p_t of
its cell density deciding between them.  Everything in this module is built
from that decomposition.

Conditional on the anchor positions the cell counts are multinomial in the
per-cell masses, and the distribution of the total is a small dynamic
program over cells.  With random anchors the conditional law is integrated
against the order-statistic density m! * prod f_Y(y_j) on the ordered
region, deterministically through nested Gauss-Legendre rules for m <= 3
(split at the knots of f_Y) and by Monte Carlo above that.  Either way the
program runs once per batch of anchor configurations, not once per node.

Middle-cell densities follow the support-rescaled construction: each cell
hosts an affine copy of the point density, which makes the per-cell p
values independent of the cell, so one vector p_0..p_n, computed once per
model and size, serves every cell; it is also what makes closed-form
expectations possible.  For the uniform family the rescaled copy coincides
with the plain conditional density, so no flag is needed there.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import simulate
from .densities import Uniform
from .exact import _to_unit, probability

# Caps the sample plus anchor count of every exact route.  It bounds the
# cell program's (n + 1, n + 1) transition arrays and the pair probabilities
# p_t (t <= n) that its middle cells read; Monte Carlo takes over beyond it.
MAX_EXACT_TOTAL = 24

# Most anchors the nested Gauss rule integrates; `mc_reps` samples more.
MAX_QUADRATURE_M = 3

# Gauss-Legendre nodes per knot interval of the anchor rules: the pmf table
# nests m of them, the expectation at most two.
_TABLE_NODES = 24
_MEAN_NODES = 48

# Anchor configurations per batched cell DP call.  It bounds the DP's
# (rows, n + 1, n + 1) transition arrays whatever the number of quadrature
# nodes or Monte Carlo draws.
_BATCH_ROWS = 512


@dataclass(frozen=True)
class AnchorConditional:
    """Cell decomposition induced by fixed anchor positions.

    ``cell_probs`` has one entry per cell (m + 1 of them, ends included) and
    sums to 1; ``cell_model`` is the unit-interval density that every middle
    cell hosts.
    """

    anchors: tuple
    cell_probs: tuple
    cell_model: object

    def __post_init__(self):
        m = len(self.anchors)
        if m < 1:
            raise ValueError("anchors: need at least one anchor")
        if any(b <= a for a, b in zip(self.anchors, self.anchors[1:])):
            raise ValueError("anchors: positions must be strictly increasing")
        if len(self.cell_probs) != m + 1:
            raise ValueError(
                f"cell_probs: expected {m + 1} cell masses for {m} anchors, "
                f"got {len(self.cell_probs)}")
        if any(p < 0 for p in self.cell_probs):
            raise ValueError("cell_probs: cell masses must be nonnegative")
        if abs(sum(self.cell_probs) - 1.0) > 1e-9:
            raise ValueError(f"cell_probs: cell masses sum to {sum(self.cell_probs)!r}, not 1")


def conditional_on_anchors(fx, anchors, hu_family=False):
    """Build the cell decomposition of ``fx`` for fixed anchors.

    Uniform point densities condition cleanly on every cell.  Any other
    family needs ``hu_family=True``, which places an affine copy of ``fx``
    in each middle cell and gives every cell the uniform mass of its gap.
    """
    anchors = tuple(sorted(float(a) for a in np.atleast_1d(anchors)))
    if len(set(anchors)) != len(anchors):
        raise ValueError("anchors: duplicate anchor positions")
    lo, hi = fx.support.lo, fx.support.hi
    for a in anchors:
        if not lo < a < hi:
            raise ValueError(f"anchors: {a!r} lies outside the open support ({lo}, {hi})")
    cell_probs = tuple(_cell_masses(fx, anchors, hu_family)[0])
    return AnchorConditional(anchors=anchors, cell_probs=cell_probs, cell_model=_to_unit(fx))


@functools.cache
def _pair_prob(model, t):
    """p_t of a unit-interval model, computed once per process."""
    return probability(model, t).value


def _pair_probs(fx, n):
    """p_0..p_n of the unit-interval copy of ``fx`` that every middle cell hosts."""
    model = _to_unit(fx)
    return np.array([0.0, 0.0] + [_pair_prob(model, t) for t in range(2, n + 1)])


def _pmf_vector(cell_probs, p_pair, n):
    """Distributions of the domination total via a cell-by-cell program.

    ``cell_probs`` is (rows, m + 1), one row of cell masses per anchor
    configuration, ``p_pair`` holds p_0..p_n of the middle cells (unused when
    m = 1), and the result is (rows, 2m + 1).  Cells are consumed left
    to right; conditional on the points remaining, the count in the next cell
    is binomial with the renormalized cell mass.  States track (points
    remaining, domination so far), and every step acts on all rows at once.
    """
    probs = np.asarray(cell_probs, dtype=float)
    rows, cells = probs.shape
    m = cells - 1
    tail = np.cumsum(probs[:, ::-1], axis=1)[:, ::-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(tail > 0.0, np.minimum(probs / tail, 1.0), 0.0)
    # a cell that takes t >= 1 of the r points still unplaced leaves s = r - t;
    # move[s, r] = C(r, t) q^t (1 - q)^s with q the renormalized cell mass
    remaining = np.arange(n + 1)
    t = np.maximum(remaining - remaining[:, None], 0)
    binom = np.array([[math.comb(r, s) if r > s else 0 for r in remaining] for s in remaining],
                     dtype=float)
    p_two = p_pair[t] if m > 1 else None
    dp = np.zeros((rows, n + 1, 2 * m + 1))
    dp[:, n, 0] = 1.0
    for j in range(cells):
        q = ratio[:, j, None, None]
        move = binom * q ** t * (1.0 - q) ** remaining[:, None]
        new = ((1.0 - ratio[:, j, None]) ** remaining)[:, :, None] * dp  # cell left empty
        if j == 0 or j == cells - 1:
            new[:, :, 1:] += move @ dp[:, :, :-1]
        else:
            new[:, :, 1:] += (move * (1.0 - p_two)) @ dp[:, :, :-1]
            new[:, :, 2:] += (move * p_two) @ dp[:, :, :-2]
        dp = new
    return dp[:, 0]


def _checked_sizes(n, m):
    """``(n, m)`` as ints, at least 1 each and within ``MAX_EXACT_TOTAL``."""
    n, m = int(n), int(m)
    if n < 1:
        raise ValueError(f"n: sample size must be at least 1, got {n}")
    if m < 1:
        raise ValueError(f"m: need at least one anchor, got {m}")
    if n + m > MAX_EXACT_TOTAL:
        raise ValueError(
            f"n + m = {n + m}: the exact cell program is capped at {MAX_EXACT_TOTAL}; "
            "use Monte Carlo beyond that")
    return n, m


def pmf_conditional_table(cond, n):
    """Full domination-number pmf given fixed anchors; index k holds P(gamma = k)."""
    n, m = _checked_sizes(n, len(cond.anchors))
    p_pair = _pair_probs(cond.cell_model, n) if m > 1 else None
    return _pmf_vector([cond.cell_probs], p_pair, n)[0]


def pmf_conditional(cond, n, k):
    """P(gamma = k) given fixed anchors; zero outside 1 <= k <= 2m."""
    table = pmf_conditional_table(cond, n)
    k = int(k)
    if k < 0 or k >= len(table):
        return 0.0
    return float(table[k])


def _require_matching_supports(fx, fy):
    if (fx.support.lo, fx.support.hi) != (fy.support.lo, fy.support.hi):
        raise ValueError(
            f"fy: anchor support [{fy.support.lo}, {fy.support.hi}] must match the "
            f"point support [{fx.support.lo}, {fx.support.hi}]")


def _require_cell_law(fx, hu_family):
    """Cells carry the uniform mass of their gap: uniform points, or the hu construction."""
    if fx.family != "uniform" and not hu_family:
        raise ValueError(
            f"fx: cell-conditional densities are only available for the uniform family; "
            f"pass hu_family=True to place an affine copy of {fx.family} in every cell")


def _cell_masses(fx, anchors_sorted, hu_family):
    """(rows, m + 1) cell masses for (rows, m) or (m,) sorted anchor positions."""
    _require_cell_law(fx, hu_family)
    lo, hi = fx.support.lo, fx.support.hi
    return np.diff(np.atleast_2d(anchors_sorted), prepend=lo, append=hi, axis=1) / (hi - lo)


def _ordered_simplex_nodes(lo, hi, m, nodes, knots):
    """Nested Gauss-Legendre points (N, m) and weights (N,) over lo < y_1 < ... < y_m < hi.

    Each coordinate runs from the one before it up to ``hi``, and its range is
    split at the ``knots`` inside it, so an integrand that is polynomial
    between knots is integrated exactly up to the degree of the rule.
    """
    x, w = np.polynomial.legendre.leggauss(nodes)
    x, w = 0.5 * (x + 1.0), 0.5 * w
    breaks = np.array([lo, *sorted(float(k) for k in knots if lo < k < hi), hi])
    points, weights, start = np.empty((1, 0)), np.ones(1), np.full(1, lo)
    for _ in range(m):
        a = np.maximum(start[:, None], breaks[:-1])
        b = np.broadcast_to(breaks[1:], a.shape)
        row, seg = np.nonzero(b > a)
        a, width = a[row, seg], b[row, seg] - a[row, seg]
        start = (a[:, None] + width[:, None] * x).ravel()
        points = np.column_stack([np.repeat(points[row], nodes, axis=0), start])
        weights = (weights[row, None] * width[:, None] * w).ravel()
    return points, weights


def _require_anchor_mass(mass, nodes, fy, hint=""):
    """Raise when an anchor rule misses mass 1, as it does where ``fy`` diverges."""
    lost = 1.0 - mass
    if abs(lost) > 1e-9:
        raise ValueError(
            f"anchor quadrature (nodes={nodes}) lost mass {lost:.3g} on {fy.family} anchors"
            + hint)


def pmf_random_anchors_table(fx, fy, n, m, mc_reps=None, seed=0, hu_family=False):
    """Domination-number pmf with anchors drawn from ``fy``; index k holds P(gamma = k)."""
    n, m = _checked_sizes(n, m)
    _require_matching_supports(fx, fy)
    p_pair = _pair_probs(fx, n) if m > 1 else None

    if mc_reps is not None:
        reps = int(mc_reps)
        if reps < 1:
            raise ValueError(f"mc_reps: need at least one replicate, got {mc_reps}")
        rng = simulate._stream(seed, 0)
        ys = np.sort(fy.quantile(rng.random((reps, m))), axis=1)
        weights = np.full(reps, 1.0 / reps)
    else:
        if m > MAX_QUADRATURE_M:
            raise ValueError(
                f"m: deterministic anchor quadrature is limited to m <= {MAX_QUADRATURE_M}, "
                f"got {m}; pass mc_reps to sample anchors instead")
        ys, weights = _ordered_simplex_nodes(fx.support.lo, fx.support.hi, m, _TABLE_NODES,
                                             fy.interior_knots())
        weights = weights * math.factorial(m) * np.prod(fy.pdf(ys), axis=1)
    probs = _cell_masses(fx, ys, hu_family)
    table = np.zeros(2 * m + 1)
    for start in range(0, len(ys), _BATCH_ROWS):
        rows = slice(start, start + _BATCH_ROWS)
        table += weights[rows] @ _pmf_vector(probs[rows], p_pair, n)
    if mc_reps is None:
        _require_anchor_mass(float(np.sum(table)), _TABLE_NODES, fy,
                             "; pass mc_reps to sample anchors instead")
    return table


def pmf_random_anchors(fx, fy, n, m, k, mc_reps=None, seed=0, hu_family=False):
    """P(gamma = k) with random anchors; zero outside 1 <= k <= 2m."""
    table = pmf_random_anchors_table(fx, fy, n, m, mc_reps=mc_reps, seed=seed,
                                     hu_family=hu_family)
    k = int(k)
    if k < 0 or k >= len(table):
        return 0.0
    return float(table[k])


def expected_gamma(fx, fy, n, m, hu_family=False):
    """Expected domination number with random anchors.

    Splits into the chance that each end cell is occupied plus, for every
    middle cell, the count distribution integrated against the joint density
    of the two bracketing anchor order statistics.  The count probability
    P(N_j = t) carries the binomial coefficient C(n, t) alongside the mass
    powers.  Raises when a rule misses the mass of the density it integrates.
    """
    n, m = _checked_sizes(n, m)
    _require_matching_supports(fx, fy)
    _require_cell_law(fx, hu_family)
    lo, hi = fx.support.lo, fx.support.hi
    width = hi - lo

    knots = fy.interior_knots()
    ys, wy = _ordered_simplex_nodes(lo, hi, 1, _MEAN_NODES, knots)
    y = ys[:, 0]
    fy_pdf = fy.pdf(y)
    Fy = fy.cdf(y)
    mass_left = (y - lo) / width
    mass_right = (hi - y) / width
    # densities of the lowest and the highest anchor
    lowest = wy * m * fy_pdf * (1.0 - Fy) ** (m - 1)
    highest = wy * m * fy_pdf * Fy ** (m - 1)
    masses = [float(np.sum(lowest)), float(np.sum(highest))]
    left = float(np.sum(lowest * (1.0 - (1.0 - mass_left) ** n)))
    right = float(np.sum(highest * (1.0 - (1.0 - mass_right) ** n)))

    middle = 0.0
    if m > 1:
        counts = np.arange(1, n + 1)
        binom = np.array([math.comb(n, int(t)) for t in counts], dtype=float)
        # (a, b) runs over the lower and upper anchor of one middle cell
        pairs, wp = _ordered_simplex_nodes(lo, hi, 2, _MEAN_NODES, knots)
        a, b = pairs.T
        delta = (b - a) / width
        occupancy = binom * delta[:, None] ** counts * (1.0 - delta[:, None]) ** (n - counts)
        pair = wp * fy.pdf(a) * fy.pdf(b)
        inner = pair * (occupancy @ (1.0 + _pair_probs(fx, n)[1:]))
        Fa, Fb = fy.cdf(a), fy.cdf(b)
        for j in range(2, m + 1):
            pair_norm = math.factorial(m) / (math.factorial(j - 2) * math.factorial(m - j))
            masses.append(pair_norm * float(np.sum(pair * Fa ** (j - 2) * (1.0 - Fb) ** (m - j))))
            middle += pair_norm * float(np.sum(inner * Fa ** (j - 2) * (1.0 - Fb) ** (m - j)))
    for mass in masses:
        _require_anchor_mass(mass, _MEAN_NODES, fy)
    return left + right + middle


def expected_gamma_hu(n, m, p_table):
    """Expected domination number under uniform anchors with equal cell masses.

    Evaluates 2n/(n+m) plus the occupancy-weighted sum of per-count pair
    probabilities.  Exact rational arithmetic up to n + m = 170 (returns a
    Fraction there when the table is rational); floating point via log-gamma
    above.
    """
    n, m = int(n), int(m)
    if n < 1 or m < 1:
        raise ValueError(f"n, m: counts must be at least 1, got ({n}, {m})")
    p_table = list(p_table)
    if len(p_table) < n:
        raise ValueError(f"p_table: need probabilities for counts 1..{n}, got {len(p_table)}")
    if any(not 0 <= float(p) <= 1 for p in p_table[:n]):
        raise ValueError("p_table: probabilities must lie in [0, 1]")
    if n + m <= 170:
        base = Fraction(2 * n, n + m)
        if m < 2:
            return base
        coef = Fraction(math.factorial(n) * m * (m - 1), math.factorial(n + m))
        acc = Fraction(0)
        for i in range(1, n + 1):
            occ = Fraction(math.factorial(n + m - i - 1), math.factorial(n - i))
            acc += occ * (1 + Fraction(p_table[i - 1]))
        return base + coef * acc
    base = 2.0 * n / (n + m)
    if m < 2:
        return base
    log_coef = math.lgamma(n + 1) - math.lgamma(n + m + 1) + math.log(m * (m - 1))
    acc = 0.0
    for i in range(1, n + 1):
        log_occ = math.lgamma(n + m - i) - math.lgamma(n - i + 1)
        acc += math.exp(log_coef + log_occ) * (1.0 + float(p_table[i - 1]))
    return base + acc


def asymptotic_law_fixed_m(p_cell_limits, m):
    """Limiting law of the domination number as the sample grows, anchors fixed in number.

    Both end cells and every middle cell eventually hold points, so the
    total settles at m + 1 plus one independent Bernoulli per middle cell
    with that cell's limiting pair probability.  Returns {value: prob}.
    """
    m = int(m)
    if m < 1:
        raise ValueError(f"m: need at least one anchor, got {m}")
    limits = [float(p) for p in p_cell_limits]
    if len(limits) != m - 1:
        raise ValueError(
            f"p_cell_limits: expected m - 1 = {m - 1} middle-cell limits, got {len(limits)}")
    if any(not 0.0 <= p <= 1.0 for p in limits):
        raise ValueError("p_cell_limits: probabilities must lie in [0, 1]")
    law = np.array([1.0])
    for p in limits:
        law = np.convolve(law, [1.0 - p, p])
    return {m + 1 + i: float(q) for i, q in enumerate(law)}


@dataclass(frozen=True)
class GrowthReport:
    """Monte Carlo summary of how the expected domination number scales."""

    n_grid: tuple
    means: tuple
    reps: int
    seed: int
    strictly_increasing: bool
    linear_bound_met: bool


def gamma_growth_check(n_grid, reps=10_000, seed=0):
    """Estimate E[gamma] for equal point and anchor counts over a grid of sizes.

    Uniform points against uniform anchors.  Reports whether the means grow
    strictly and whether the largest size reaches half its point count.
    """
    n_grid = tuple(int(v) for v in n_grid)
    if not n_grid or any(v < 1 for v in n_grid):
        raise ValueError(f"n_grid: need sizes of at least 1, got {n_grid!r}")
    reps = int(reps)
    if reps < 1:
        raise ValueError(f"reps: need at least one replicate, got {reps}")
    means = []
    for n in n_grid:
        plan = simulate.SimulationPlan(fx=Uniform(), fy=Uniform(), n=n, m=n, reps=reps, seed=seed)
        means.append(sum(k * c for k, c in simulate.run(plan).items()) / reps)
    increasing = all(b > a for a, b in zip(means, means[1:]))
    bound = means[-1] >= 0.5 * n_grid[-1]
    return GrowthReport(n_grid=n_grid, means=tuple(means), reps=reps, seed=seed,
                        strictly_increasing=increasing, linear_bound_met=bound)
