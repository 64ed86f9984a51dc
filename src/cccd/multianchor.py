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
program over cells that reads one weight per cell and count.  Independent
Poisson(n q_j) counts conditioned on summing to n are the multinomial counts,
so a cell of mass q weighs t points with (n q)^t / t! and the program divides
by n^n / n! at the end.  Uniform anchors make the m + 1 cell counts uniform
over the C(n + m, m) compositions of n, so the same program with unit weights
and C(n + m, m) in place of n^n / n! gives their law exactly, with no anchor
integral.  Other anchor densities integrate the
conditional law against the order-statistic density m! * prod f_Y(y_j),
through nested Gauss-Legendre rules for m <= 3 (split at the knots of f_Y),
or sample the anchors (``mc_reps``), once per batch of anchor configurations.
Cell masses are linear in the anchors, so where f_Y is a polynomial of degree
d between its knots the integrand is one too, and ceil((n + m(d + 1)) / 2)
nodes per knot interval integrate it exactly.  The rules take that many,
capped at 24 nodes; other anchor densities, and sizes past the cap, take the
capped rules, which are not exact.  ``expected_gamma`` is the mean of that
table, so the expectation has no anchor rule of its own.

Middle-cell densities follow the support-rescaled construction: each cell
hosts an affine copy of the point density, which makes the per-cell p
values independent of the cell, so one vector p_0..p_n, computed once per
model and size, serves every cell; it is also what makes closed-form
expectations possible.  For the uniform family the rescaled copy coincides
with the plain conditional density; only ``pmf_random_anchors_table`` offers
the construction for other families.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import simulate
from .exact import _auto_value, _power_sum, _require_sample_size

# Caps n + m on every route that runs the cell program or reads p_0..p_n, by
# its cost: uniform anchors take about 0.33 s at n = m = 200 on two cores.
# The cell weights and their scale reach n^n / n! ~ e^n, finite only below
# n ~ 700.
MAX_CELL_TOTAL = 400

# Most non-uniform anchors the nested Gauss rule integrates.
MAX_QUADRATURE_M = 3

# Most Gauss-Legendre nodes per knot interval of the anchor rule, which nests m
# of them.  Polynomial anchor densities take fewer where fewer are exact
# (``_anchor_nodes``).
_TABLE_NODES = 24

# Anchor configurations per cell program call: at most _BATCH_ROWS, and fewer
# at large n, so that a batch's (rows, n + 1, n + 1) gathered weights fit
# _BATCH_DOUBLES.
_BATCH_ROWS, _BATCH_DOUBLES = 512, 2 ** 21


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
        if not (all(map(math.isfinite, self.anchors))
                and all(a < b for a, b in zip(self.anchors, self.anchors[1:]))):
            raise ValueError("anchors: positions must be finite and strictly increasing")
        if len(self.cell_probs) != m + 1:
            raise ValueError(
                f"cell_probs: expected {m + 1} cell masses for {m} anchors, "
                f"got {len(self.cell_probs)}")
        if any(not p >= 0 for p in self.cell_probs):  # NaN fails this test too
            raise ValueError("cell_probs: cell masses must be nonnegative")
        if not abs(sum(self.cell_probs) - 1.0) <= 1e-9:
            raise ValueError(f"cell_probs: cell masses sum to {sum(self.cell_probs)!r}, not 1")


def conditional_on_anchors(fx, anchors):
    """Build the cell decomposition of uniform points ``fx`` for fixed anchors.

    Uniform points condition cleanly on every cell.  Another cell law is an
    ``AnchorConditional`` built from its cell masses and cell model.
    """
    _require_uniform_points(fx, "build an AnchorConditional for another cell law")
    anchors = tuple(sorted(float(a) for a in np.atleast_1d(anchors)))
    if len(set(anchors)) != len(anchors):
        raise ValueError("anchors: duplicate anchor positions")
    lo, hi = fx.support.lo, fx.support.hi
    for a in anchors:
        if not lo < a < hi:
            raise ValueError(f"anchors: {a!r} lies outside the open support ({lo}, {hi})")
    cell_probs = tuple(_cell_masses(fx, anchors)[0])
    return AnchorConditional(anchors=anchors, cell_probs=cell_probs, cell_model=fx.to_unit())


@functools.cache
def _pair_prob(model, t):
    """p_t of a unit-interval model, computed once per process."""
    return _auto_value(model, t)


def _pair_probs(fx, n):
    """p_0..p_n of the unit-interval copy of ``fx`` that every middle cell hosts."""
    model = fx.to_unit()
    return np.array([0.0, 0.0] + [_pair_prob(model, t) for t in range(2, n + 1)])


def _cell_program(weights, scale, p_pair, n):
    """Distributions (rows, 2m + 1) of the domination total, cell by cell.

    ``weights`` (m + 1, rows, n + 1) holds per cell, left to right, the weight
    of t points in it, 1 at t = 0 (rows may be 1 for every row): the product of
    one weight per cell over counts that sum to n, divided by ``scale``, is the
    chance of those counts.  ``p_pair`` holds p_0..p_n of the middle cells
    (unused when m = 1).  States track (points placed, domination so far) for
    all rows at once.  An empty cell keeps a state, and a cell that takes t >= 1
    points moves it by the strictly lower-triangular Toeplitz gather of its
    weights times the chance of each contribution: 1 for an end cell, 1 or 2
    with 1 - p_t or p_t for a middle one."""
    m = len(weights) - 1
    counts = np.arange(n + 1)
    gap = np.maximum(counts[:, None] - counts, 0)  # [placed after, placed before] -> t
    occupied = np.minimum(counts, 1.0)
    if m > 1:
        p_two = occupied * p_pair
        p_one = occupied - p_two
    dp = np.zeros((weights.shape[1], n + 1, 2 * m + 1))
    dp[:, 0, 0] = 1.0
    for j, w in enumerate(weights):
        before, into = (dp[:, :1], gap[:, :1]) if j == 0 else (dp, gap)  # nothing placed yet
        if j == m:  # only the state with every point placed is read
            dp, into = dp[:, n:].copy(), into[n:]
        chances = [occupied] if j in (0, m) else [p_one, p_two]  # of adding 1, 2
        moved = [(w * c)[:, into] @ before[:, :, :-step] for step, c in enumerate(chances, 1)]
        for step, add in enumerate(moved, 1):
            dp[:, :, step:] += add
    return dp[:, 0] / scale


def _pmf_vector(cell_probs, p_pair, n):
    """Domination pmfs (rows, 2m + 1) for fixed cell masses (rows, m + 1).

    A cell of mass q weighs t points with (n q)^t / t!, the Poisson(n q) chance
    without its factor e^(-n q), formed as a running product: the weights of
    counts summing to n multiply to their multinomial chance times n^n / n!."""
    steps = n * np.asarray(cell_probs, dtype=float).T[:, :, None] / np.arange(1, n + 1)
    weights = np.ones(steps.shape[:2] + (n + 1,))
    np.cumprod(steps, axis=2, out=weights[:, :, 1:])
    return _cell_program(weights, n ** n / math.factorial(n), p_pair, n)


def _checked_sizes(n, m):
    """``(n, m)`` as ints, at least 1 each and with n + m within ``MAX_CELL_TOTAL``."""
    n, m = _require_sample_size(n), int(m)
    if m < 1:
        raise ValueError(f"m: need at least one anchor, got {m}")
    if n + m > MAX_CELL_TOTAL:
        raise ValueError(
            f"n + m = {n + m}: the cell program is capped at {MAX_CELL_TOTAL}; "
            "use Monte Carlo simulation beyond that")
    return n, m


def pmf_conditional_table(cond, n):
    """Full domination-number pmf given fixed anchors; index k holds P(gamma = k)."""
    n, m = _checked_sizes(n, len(cond.anchors))
    p_pair = _pair_probs(cond.cell_model, n) if m > 1 else None
    return _pmf_vector([cond.cell_probs], p_pair, n)[0]


def _require_matching_supports(fx, fy):
    if (fx.support.lo, fx.support.hi) != (fy.support.lo, fy.support.hi):
        raise ValueError(
            f"fy: anchor support [{fy.support.lo}, {fy.support.hi}] must match the "
            f"point support [{fx.support.lo}, {fx.support.hi}]")


def _require_uniform_points(fx, hint):
    """Cells carry the uniform mass of their gap, the cell law of uniform points."""
    if fx.family != "uniform":
        raise ValueError(
            f"fx: cell-conditional densities are only available for the uniform family; {hint}")


def _cell_masses(fx, anchors_sorted):
    """(rows, m + 1) uniform cell masses for (rows, m) or (m,) sorted anchor positions."""
    lo, hi = fx.support.lo, fx.support.hi
    return np.diff(np.atleast_2d(anchors_sorted), prepend=lo, append=hi, axis=1) / (hi - lo)


@functools.cache
def _unit_gauss_rule(nodes):
    """Gauss-Legendre nodes and weights on [0, 1], built once per process and read-only."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    x, w = 0.5 * (x + 1.0), 0.5 * w
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _ordered_simplex_nodes(lo, hi, m, nodes, knots):
    """Nested Gauss-Legendre points (N, m) and weights (N,) over lo < y_1 < ... < y_m < hi.

    Each coordinate runs from the one before it up to ``hi``, and its range is
    split at the ``knots`` inside it, so an integrand that is polynomial
    between knots is integrated exactly up to the degree of the rule.
    """
    x, w = _unit_gauss_rule(nodes)
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


def _anchor_nodes(fy, n, m):
    """Gauss-Legendre nodes per knot interval of the anchor rule, at most ``_TABLE_NODES``.

    Cell masses are linear in the anchors, so the conditional pmf has degree n
    in them.  Where ``fy`` has degree d between its knots, the nested integrand,
    after the inner coordinates are integrated out, has degree at most
    n + m(d + 1) - 1 in each coordinate: half that many nodes, rounded up, are
    exact."""
    d = fy.polynomial_degree
    return _TABLE_NODES if d is None else min(_TABLE_NODES, (n + m * (d + 1) + 1) // 2)


def _require_anchor_mass(mass, nodes, fy):
    """Raise when the anchor rule misses mass 1, as it does where ``fy`` diverges."""
    lost = 1.0 - mass
    if abs(lost) > 1e-9:
        raise ValueError(
            f"anchor quadrature (nodes={nodes}) lost mass {lost:.3g} on {fy.family} anchors; "
            "pass mc_reps (cccd multi --reps) to sample anchors instead")


def pmf_random_anchors_table(fx, fy, n, m, mc_reps=None, seed=0, hu_family=False):
    """Domination-number pmf with anchors drawn from ``fy``; index k holds P(gamma = k).

    Exact for uniform anchors; other anchors take the nested rule, and
    ``mc_reps`` samples that many anchor sets instead.  Points other than
    uniform need ``hu_family=True``, which places an affine copy of ``fx`` in
    every middle cell and gives every cell the uniform mass of its gap."""
    n, m = _checked_sizes(n, m)
    _require_matching_supports(fx, fy)
    if not hu_family:
        _require_uniform_points(
            fx, f"pass hu_family=True to place an affine copy of {fx.family} in every cell")
    return _anchor_table(fx, fy, n, m, mc_reps, seed)


def _anchor_table(fx, fy, n, m, mc_reps=None, seed=0):
    """``pmf_random_anchors_table`` past its argument checks."""
    p_pair = _pair_probs(fx, n) if m > 1 else None
    if mc_reps is None and fy.family == "uniform":
        return _cell_program(np.ones((m + 1, 1, n + 1)), math.comb(n + m, m), p_pair, n)[0]

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
                f"got {m}; pass mc_reps (cccd multi --reps) to sample anchors instead")
        nodes = _anchor_nodes(fy, n, m)
        ys, weights = _ordered_simplex_nodes(fx.support.lo, fx.support.hi, m, nodes,
                                             fy.interior_knots())
        weights = weights * math.factorial(m) * np.prod(fy.pdf(ys), axis=1)
    probs = _cell_masses(fx, ys)
    batch = max(1, min(_BATCH_ROWS, _BATCH_DOUBLES // (n + 1) ** 2))
    table = np.zeros(2 * m + 1)
    for start in range(0, len(ys), batch):
        rows = slice(start, start + batch)
        table += weights[rows] @ _pmf_vector(probs[rows], p_pair, n)
    if mc_reps is None:
        _require_anchor_mass(float(np.sum(table)), nodes, fy)
    return table


def expected_gamma(fx, fy, n, m):
    """Expected domination number of uniform points ``fx`` with anchors drawn from
    ``fy``: the mean of their ``pmf_random_anchors_table``, exact for uniform anchors."""
    n, m = _checked_sizes(n, m)
    _require_matching_supports(fx, fy)
    _require_uniform_points(
        fx, "the rescaled cells of other families take the mean of pmf_random_anchors_table")
    table = _anchor_table(fx, fy, n, m)
    return float(np.arange(len(table)) @ table)


def expected_gamma_hu(n, m, p_table):
    """Expected domination number under uniform anchors with equal cell masses.

    Evaluates 2n/(n+m) plus the occupancy-weighted sum of per-count pair
    probabilities, in exact integer and Fraction arithmetic at every size:
    always a Fraction, and the exact mean when the table is rational (a
    float entry counts as the rational it holds).
    """
    n, m = int(n), int(m)
    if n < 1 or m < 1:
        raise ValueError(f"n, m: counts must be at least 1, got ({n}, {m})")
    p_table = list(p_table)
    if len(p_table) < n:
        raise ValueError(f"p_table: need probabilities for counts 1..{n}, got {len(p_table)}")
    if any(not 0 <= float(p) <= 1 for p in p_table[:n]):
        raise ValueError("p_table: probabilities must lie in [0, 1]")
    base = Fraction(2 * n, n + m)
    # m - 1 middle cells, each holding i points with chance
    # C(n - i + m - 1, m - 1) / C(n + m, m) = m (n + m - i - 1)_(m-1) / (n + m)_m
    coef = Fraction(m * (m - 1), math.perm(n + m, m))
    acc = _power_sum([((1 + Fraction(p), 1), math.perm(n + m - i - 1, m - 1))
                      for i, p in enumerate(p_table[:n], 1)])
    return base + coef * acc


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
