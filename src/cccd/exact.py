"""Exact and numerical evaluation of the two-point cover probability.

For a density on the unit interval with anchors {0, 1}, the quantity of
interest is p_n(F) = P(gamma = 2) for a sample of size n. Writing s, t for
the extreme order statistics, gamma = 2 exactly when no sample point falls
in the open interval (t/2, (1+s)/2), which reduces the probability to a
two-dimensional integral

    p_n = iint n (n-1) f(s) f(t) G(s, t)^{n-2} dt ds,
    G(s, t) = A(t) - B(s),  A(t) = F(t) + F(t/2),  B(s) = F(s) + F((1+s)/2),

over s in [0, 1/2], t in [L(s), 1] with L(s) = max(2s, (1+s)/2). G is the
probability mass of [s, t] minus the mass of the excluded middle interval,
so 0 <= G <= 1 on the region.

Evaluation routes, from most to least exact:
  * closed forms for the uniform family and three step-density families;
  * an exact rational integrator for any piecewise-constant density
    (Fraction arithmetic end to end);
  * a one-dimensional polynomial reduction for the densities 2x and 2 - 2x on (0, 1);
  * adaptive two-dimensional quadrature for everything else: rect panels on
    the rectangle [0, 1/3] x [2/3, 1] above the lower edge, where G, f(s) and
    f(t) are evaluated once per coordinate node, and edge panels on the two
    triangles along t = L(s), all refined in one pool with one cdf and one
    pdf call per round;
  * Monte Carlo through ``simulate.run`` as an independent check
    (``p_monte_carlo``; ``probability`` never routes here, nor to a closed form).
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import simulate
from .densities import _KRONROD15, GapUniform, GeneralLinear, ShrunkUniform, TwoStep, Uniform

# Error floor of the quadrature, and its panel budget.
_ABS_TOL = 1e-12
MAX_PANELS = 20_000
# G = A - B is a difference of sums of order 1, so it carries a few units of 2^-53 that the
# exponent n - 2 of G^(n-2) multiplies: past 10^10 the refinement stalls on that noise, and
# from about 4e15 it settles on values off their limits by 8% and more
QUADRATURE_MAX_N = 10 ** 10
# for a density unbounded at the support edge: the arc-sine's (1 - p_n) n, whose limit is pi,
# reads 3.1407 at 10^7 and 2.63 at 10^8, but 7.72 at 3e8 and 27.9 at 10^9
UNBOUNDED_QUADRATURE_MAX_N = 10 ** 8
# auto's exact-rational route builds Fractions of about n times the bits of the density's
# rationals, so its cost has no bound in n: at this n it takes 2.4 ms for the uniform and
# 16 ms for TwoStep(0.5), and quadrature takes over above it
EXACT_RATIONAL_MAX_N = 10 ** 4


class QuadratureError(RuntimeError):
    """Raised when adaptive refinement hits the panel budget ``MAX_PANELS``.

    Carries the best running estimate, its error estimate and the live
    panel count so a caller can still inspect them.
    """

    def __init__(self, message, best_estimate, error_estimate, panels):
        super().__init__(message)
        self.best_estimate = best_estimate
        self.error_estimate = error_estimate
        self.panels = panels


@dataclass(frozen=True)
class QuadratureConfig:
    rel_tol: float = 1e-8

    def __post_init__(self):
        if not 0 < self.rel_tol < math.inf:  # NaN fails this test too
            raise ValueError("rel_tol: tolerance must be finite and positive")


@dataclass(frozen=True)
class ProbabilityReport:
    value: float
    method: str
    n: int
    exact: Fraction | None = None
    error_estimate: float | None = None
    panels: int | None = None


def _require_sample_size(n):
    n = int(n)
    if n < 1:
        raise ValueError(f"n: sample size must be at least 1, got {n}")
    return n


def quadrature_max_n(model):
    """The largest n at which ``p_quadrature`` resolves p_n for ``model``."""
    return UNBOUNDED_QUADRATURE_MAX_N if model.unbounded else QUADRATURE_MAX_N


def p_uniform_fraction(n):
    """P(gamma = 2) for the uniform density, as an exact rational."""
    n = _require_sample_size(n)
    return Fraction(4, 9) - Fraction(16, 9) / 4 ** n


def p_uniform(n):
    return float(p_uniform_fraction(n))


def p_closed_form(model, n):
    """Closed-form p_n for the families that admit one.

    Raises for other families; those are served by p_exact_rational (any
    piecewise-constant density) or p_quadrature.
    """
    n = _require_sample_size(n)
    if n == 1:
        # a single point always covers its cell, for any density
        return 0.0
    if isinstance(model, Uniform):
        return p_uniform(n)
    if isinstance(model, ShrunkUniform):
        d = model.delta
        if d >= 1.0 / 3.0:
            # the support is so narrow that some single point always covers it
            return 0.0
        shrink = (1.0 - 3.0 * d) / (1.0 - 2.0 * d)
        return p_uniform(n) * shrink ** n
    if isinstance(model, GapUniform):
        d = model.delta
        if d >= 1.0 / 6.0:
            # a left point x has the ball (0, 2x), and 2x <= 1 - 2 delta <= 1/2 + delta: no
            # ball reaches across the gap, so gamma = 1 only when every point shares a side
            return 1.0 - 2.0 ** (1 - n)
        c = 1.0 - 2.0 * d
        r6 = (1.0 - 6.0 * d) / c
        r4 = (1.0 - 4.0 * d) / c
        r2 = (1.0 + 2.0 * d) / c
        return (1.0 + r6 ** n / 9.0 - (2.0 / 3.0) * r4 ** n
                - (4.0 / 3.0) * (r2 / 4.0) ** n - (4.0 / 9.0) * (r6 / 4.0) ** n)
    if isinstance(model, TwoStep):
        d = model.delta
        lead = 4.0 * (1.0 - d * d) / (9.0 - d * d)
        # 4^-n goes into the powers, whose bases are then at most 1/2: no overflow at any n
        tail = (2.0 / 3.0) * (1.0 - d * d) * (
            ((1.0 + d) / 4.0) ** (n - 1) / (3.0 - d) + ((1.0 - d) / 4.0) ** (n - 1) / (3.0 + d))
        return lead - tail
    raise ValueError(
        f"family {model.family!r} has no closed form; use p_quadrature "
        "or p_exact_rational")


def _kinks(knots):
    """The t-kinks in (1/2, 1) and the s-cuts in (0, 1/2) of the integrand, for density
    knots given as Fractions or floats.

    A(t) or f(t) changes form at t = k and t = 2k, B(s) or f(s) at s = k and s = 2k - 1, and
    a t-kink tau meets the lower edge L(s) at s = 2 tau - 1 up to tau = 2/3 and at tau / 2
    above it, so that s is cut too.  Returns the sorted t-kinks and the set of s-cuts."""
    half = Fraction(1, 2)
    t_kinks = sorted({tau for k in knots for tau in (k, 2 * k) if half < tau < 1})
    s_cuts = {s for k in knots for s in (k, 2 * k - 1) if 0 < s < half}
    s_cuts |= {2 * tau - 1 if tau <= Fraction(2, 3) else tau / 2 for tau in t_kinks}
    return t_kinks, s_cuts


# exact rational route for piecewise-constant densities

def p_exact_rational(model, n):
    """p_n for a piecewise-constant density, in exact rational arithmetic.

    The region is cut so that on each piece the inner integrand is a power
    of a linear function of t and the outer one a power of a linear function
    of s, both integrable in closed form. This is the arbiter the closed
    forms are tested against, and it also covers step families without one.
    """
    n = _require_sample_size(n)
    model = model.to_unit()
    parts = model.piecewise_polynomial_parts()
    if parts is None or model.polynomial_degree != 0:
        raise ValueError(f"family {model.family!r} is not piecewise constant")
    if n == 1:
        return Fraction(0)

    starts, heights = [lo for lo, _, _ in parts], [coefs[0] for _, _, coefs in parts]
    cum = list(itertools.accumulate(((hi - lo) * h for (lo, hi, _), h in zip(parts, heights)),
                                    initial=Fraction(0)))

    def height(x):
        return heights[bisect.bisect_right(starts, x) - 1]

    def cdf(x):
        i = bisect.bisect_right(starts, x) - 1
        return cum[i] + heights[i] * (x - starts[i])

    half, third, one = Fraction(1, 2), Fraction(1, 3), Fraction(1)

    def A(t):
        return cdf(t) + cdf(t / 2)

    def B(s):
        return cdf(s) + cdf((1 + s) / 2)

    t_kinks, s_kinks = _kinks(starts)
    s_cuts = sorted({Fraction(0), half, third} | s_kinks)

    total = Fraction(0)
    for s_lo, s_hi in zip(s_cuts[:-1], s_cuts[1:]):
        s_mid = (s_lo + s_hi) / 2
        f_s = height(s_mid)
        if f_s == 0:
            continue
        if s_mid <= third:
            lam0, lam1 = half, half          # L(s) = (1 + s) / 2
        else:
            lam0, lam1 = Fraction(0), Fraction(2)   # L(s) = 2 s
        L_mid = lam0 + lam1 * s_mid
        beta1 = (B(s_hi) - B(s_lo)) / (s_hi - s_lo)
        beta0 = B(s_lo) - beta1 * s_lo
        taus = [tau for tau in t_kinks if tau > L_mid]
        edges = [None] + taus + [one]        # None marks the moving edge L(s)
        for t_a, t_b in zip(edges[:-1], edges[1:]):
            probe = (L_mid + t_b) / 2 if t_a is None else (t_a + t_b) / 2
            f_t = height(probe)
            if f_t == 0:
                continue
            lo_ref = L_mid if t_a is None else t_a
            alpha1 = (A(t_b) - A(lo_ref)) / (t_b - lo_ref)
            alpha0 = A(t_b) - alpha1 * t_b
            for edge, sign in ((t_b, 1), (t_a, -1)):
                if edge is None:
                    g0 = alpha0 + alpha1 * lam0 - beta0
                    g1 = alpha1 * lam1 - beta1
                else:
                    g0 = alpha0 + alpha1 * edge - beta0
                    g1 = -beta1
                if g1 == 0:
                    piece = n * (s_hi - s_lo) * (g0 ** (n - 1))
                else:
                    hi_val = (g0 + g1 * s_hi) ** n
                    lo_val = (g0 + g1 * s_lo) ** n
                    piece = (hi_val - lo_val) / g1
                total += sign * f_s * f_t * piece / alpha1
    return total


# one-dimensional reduction for the density f(x) = 2x

MULTINOMIAL_MAX_N = 60


def _x_moment(coeffs, d):
    """Integral of x * q(x) over [0, 1/d] for integer coefficients of q.

    Every term c_k x^(k+2) / (k+2) of the antiderivative is brought over the
    one denominator lcm(2..K) * d^K, with K = deg q + 2, so the sum runs in
    integers.
    """
    top = len(coeffs) + 1
    scale = math.lcm(*range(2, top + 1))
    num = sum(c * (scale // (k + 2)) * d ** (top - k - 2) for k, c in enumerate(coeffs))
    return Fraction(num, scale * d ** top)


def p_multinomial_squarecdf(n):
    """p_n for the density 2x on (0, 1), and for 2 - 2x, its mirror, by polynomial expansion.

    The t-integral collapses because t f(t) dt is proportional to dG, leaving
    one-dimensional integrals of x times powers of three quadratics:

        p_n = int_0^{1/3} (8 n x / 5) (P1^{n-1} - P2^{n-1}) dx
            + int_{1/3}^{1/2} (8 n x / 5) (P1^{n-1} - P3^{n-1}) dx

    with P1 = 1 - x/2 - 5x^2/4 (value of G at t = 1), P2 = 1/16 + x/8
    - 15x^2/16 (at t = (1+x)/2) and P3 = -1/4 - x/2 + 15x^2/4 (at t = 2x).
    The powers of 4 P1, 16 P2 and 4 P3 are expanded in integer arithmetic
    and the scale comes off once at the end, so the result is an exact
    Fraction; the n cap only bounds the polynomial degree.
    """
    n = _require_sample_size(n)
    if n == 1:
        return Fraction(0)
    if n > MULTINOMIAL_MAX_N:
        raise ValueError(
            f"n: polynomial expansion is supported for n <= {MULTINOMIAL_MAX_N}, got {n}")
    powers = []
    for a, b, c in ((4, -2, -5), (1, 2, -15), (-1, -2, 15)):
        q = [1]
        for _ in range(n - 1):
            q = [a * x + b * y + c * z
                 for x, y, z in zip(q + [0, 0], [0] + q + [0], [0, 0] + q)]
        powers.append(q)
    q1, q2, q3 = powers
    # int_0^{1/3} + int_{1/3}^{1/2} of x q1 is the moment of q1 up to 1/2
    quarter = _x_moment(q1, 2) - _x_moment(q3, 2) + _x_moment(q3, 3)
    return Fraction(8 * n, 5) * (quarter / 4 ** (n - 1) - _x_moment(q2, 3) / 16 ** (n - 1))


# adaptive two-dimensional quadrature

_THIRD, _TWO_THIRDS = 1.0 / 3.0, 2.0 / 3.0


def _lower_edge(s):
    return np.maximum(2.0 * s, 0.5 * (1.0 + s))


def _geometric_cuts(n):
    """Extra cuts packing panels into the corner where mass concentrates."""
    cuts = []
    scale = 0.25
    while scale * n > 0.02:
        cuts.append(scale)
        scale *= 0.25
    return cuts


def _ladders(model):
    """Per edge, the t-ordinates that split its strip into bands: below Q the strip
    runs from L(s) up to 2/3, right of Q from L(s) up to 1."""
    kinks = _kinks(model.interior_knots())[0]
    return [[0.0, *(k for k in kinks if k < _TWO_THIRDS), _TWO_THIRDS],
            [0.0, *(k for k in kinks if k > _TWO_THIRDS), 1.0]]


def _initial_cuts(model, n):
    """Seed cuts in integration coordinates: the outer cuts left and right of s = 1/3, the
    inner cuts of the rect panels, and the v cuts of the edge below Q and of the edge right
    of it."""
    kinks, s_cuts = _kinks(model.interior_knots())
    s_cuts |= {0.0, _THIRD, 0.5}
    t_cuts = {_TWO_THIRDS, 1.0} | {tau for tau in kinks if tau > _TWO_THIRDS}
    below, right = (len(ladder) - 1 for ladder in _ladders(model))
    v_below = {k / below for k in range(below + 1)}
    v_right = {k / right for k in range(right + 1)} | {1.0 - 0.5 / right}
    for cut in _geometric_cuts(n):
        s_cuts.add(0.5 * cut)                 # toward s = 0
        t_cuts.add(1.0 - 0.5 * cut)           # toward t = 1
        v_right.add(1.0 - cut / right)        # toward t = 1, inside the top band
    left_cuts = sorted(c for c in s_cuts if c <= _THIRD)
    right_cuts = sorted(c for c in s_cuts if c >= _THIRD)
    t_cuts = sorted(t_cuts)
    if model.unbounded:
        # each u = F(s) cut goes to the z with u = top z (2 - z), each t cut to w = F(t)
        top = float(model.cdf(0.5))

        def to_z(cuts):
            return sorted({1.0 - math.sqrt(1.0 - float(model.cdf(c)) / top) for c in cuts})
        left_cuts, right_cuts = to_z(left_cuts), to_z(right_cuts)
        t_cuts = sorted({float(w) for w in model.cdf(np.array(t_cuts))})
    return left_cuts, right_cuts, t_cuts, sorted(v_below), sorted(v_right)


def _fused(evaluate, *arrays):
    """One call of ``evaluate`` on the arrays laid end to end, split back into their shapes."""
    flat = evaluate(np.concatenate([a.ravel() for a in arrays]))
    out, at = [], 0
    for a in arrays:
        out.append(flat[at:at + a.size].reshape(a.shape))
        at += a.size
    return out


def _nodes(lo, hi):
    """The 15 Kronrod nodes of each interval [lo, hi], one row per interval."""
    return 0.5 * (hi + lo)[:, None] + 0.5 * (hi - lo)[:, None] * _KRONROD15[0]


def _make_integrand(model, n):
    """Returns fun(rects, kind) and ceiling(rects, kind) on panels (a, b, c, d) of three kinds.

    Kind 0 is a rect panel inside Q = [0, 1/3] x [2/3, 1], which lies wholly above t = L(s):
    its outer coordinate is s and its inner one t, so on its 15 x 15 grid A(t), B(s), f(s) and
    f(t) are needed at 15 + 15 nodes and only G = A - B is formed per node. Kinds 1 and 2 are
    edge panels in the triangles below Q (s <= 1/3) and right of it (s >= 1/3), where t is
    placed a share v up the sliver from L(s) to the triangle's top, 2/3 or 1; each t-kink
    inside the sliver is pinned to a fixed fraction of the v axis, so panels never straddle a
    jump of f(t). fun gives the node values of n (n-1) f(s) f(t) G^(n-2) dt/dv as vals (P, 15,
    15) times row (P, 15) times col (P, 15), row and col depending on the outer and inner node
    alone; it makes one ``model.cdf`` and one ``model.pdf`` call on the abscissae of every panel.

    For a density unbounded at the support edge the inner variable is w = F(t) and the outer
    one z, with u = F(s) = top z (2 - z) and top = F(1/2): both density factors cancel, and
    top - u = top (1 - z)^2 makes the square-root edge of w_lo = F(2s) at s = 1/2 smooth. Row is
    then 2 top (1 - z) and col 1. The edge slivers start at w_lo = F(L(s)), so their w nodes
    need a second quantile and cdf call, made only when edge panels are evaluated.

    G rises with t and falls with s, and t rises with both coordinates, so the ceiling, an
    upper bound of G on a panel, takes s at a and t at d, on the sliver over b for an edge.
    """
    power = n - 2
    ladders = _ladders(model)
    bands = np.array([len(ladder) - 1 for ladder in ladders])
    rungs = np.array([ladder + ladder[-1:] * (bands.max() + 1 - len(ladder)) for ladder in ladders])
    if model.unbounded:
        top = float(model.cdf(0.5))
        rungs = model.cdf(rungs)

    def weight(G):
        """G^(n-2) for G clipped at 0, formed in the array G."""
        if power == 0:
            return np.ones_like(G)
        np.log(np.maximum(G, 1e-300, out=G), out=G)
        G *= power
        return np.exp(G, out=G)

    def sliver(lower, v, side):
        """The inner coordinate a share v up the sliver of edge side above lower, and its
        derivative in v."""
        count = bands[side]
        band = np.minimum((v * count).astype(int), count - 1)
        lo = np.maximum(rungs[side, band], lower)
        width = np.maximum(rungs[side, band + 1], lower) - lo
        return lo + (v * count - band) * width, count * width

    def parts(xb, xl, y, kind):
        """G at every outer node xb (P, k) and inner node: y (P, m) on rect panels, the sliver
        point at share y over xl (P, k) on edge panels. Returns G (P, k, m), the outer factor
        (P, k), the inner factor (P, m), 1 on edges, and the edge panels' per-node factor."""
        rect, edge = kind == 0, kind > 0
        side = kind[edge, None, None] - 1
        y_rect, v = y[rect], y[edge][:, None, :]
        if model.unbounded:
            u = top * xb * (2.0 - xb)
            u_edge = top * xl[edge] * (2.0 - xl[edge])
            s, s_edge, q = _fused(model.quantile, u, u_edge, y_rect)
            B, A_rect, w_lo = _fused(model.cdf, 0.5 * (1.0 + s), 0.5 * q, _lower_edge(s_edge))
            B += u
            A_rect += y_rect
            A_edge, edge_factor = sliver(w_lo[:, :, None], v, side)
            if A_edge.size:
                A_edge += model.cdf(0.5 * model.quantile(A_edge))
            row, col = 2.0 * top * (1.0 - xb), np.ones_like(y)
        else:
            t_edge, edge_factor = sliver(_lower_edge(xl[edge])[:, :, None], v, side)
            Fs, Fm, Ft, Fh, Fte, Fhe = _fused(model.cdf, xb, 0.5 * (1.0 + xb), y_rect,
                                              0.5 * y_rect, t_edge, 0.5 * t_edge)
            row, f_rect, f_edge = _fused(model.pdf, xb, y_rect, t_edge)
            B, A_rect, A_edge = Fs + Fm, Ft + Fh, Fte + Fhe
            edge_factor *= f_edge
            col = np.ones_like(y)
            col[rect] = f_rect
        G = np.empty(xb.shape + y.shape[1:])
        G[rect] = A_rect[:, None, :] - B[rect][:, :, None]
        G[edge] = A_edge - B[edge][:, :, None]
        return G, row, col, edge_factor

    def fun(rects, kind):
        x, y = _nodes(rects[:, 0], rects[:, 1]), _nodes(rects[:, 2], rects[:, 3])
        G, row, col, edge_factor = parts(x, x, y, kind)
        vals = weight(G)
        vals[kind > 0] *= edge_factor
        return vals, n * (n - 1) * row, col

    def ceiling(rects, kind):
        a, b, _, d = (rects[:, k:k + 1] for k in range(4))
        return parts(a, b, d, kind)[0][:, 0, 0]

    return fun, ceiling


def _seed_panels(model, n):
    """The integrand, the seed panels (a, b, c, d), their kinds, and a mask of the panels on
    which G^(n-2) underflows to 0 at every node: those whose ceiling on G stays below the floor
    exp(-760 / (n-2)) - 1e-12. 1e-12 covers round-off in G, and -760 lies well past the -745 at
    which exp underflows; below n = 30 the floor is negative, and no ceiling is needed.

    Each outer interval left of s = 1/3 holds an edge sliver under a column of rect panels, and
    each outer interval right of it a column of edge panels."""
    fun, ceiling = _make_integrand(model, n)
    left, right, t_cuts, v_below, v_right = _initial_cuts(model, n)
    rects, kind = [], []
    for cuts, columns in ((left, ((1, v_below), (0, t_cuts))), (right, ((2, v_right),))):
        for a, b in zip(cuts[:-1], cuts[1:]):
            for k, inner in columns:
                rects += [(a, b, c, d) for c, d in zip(inner[:-1], inner[1:])]
                kind += [k] * (len(inner) - 1)
    rects, kind = np.array(rects), np.array(kind)
    floor = math.exp(-760.0 / (n - 2)) - 1e-12 if n > 2 else 0.0
    dead = ceiling(rects, kind) < floor if floor > 0.0 else np.zeros(len(rects), dtype=bool)
    return fun, rects, kind, dead


def _evaluate_panels(fun, rects, kind):
    """Kronrod 15 x 15 and nested Gauss 7 x 7 tensor estimates per panel from one pass of
    ``fun``; rects has rows (a, b, c, d). The node values are vals times an outer product of
    row and col, so each sum is one contraction with the rule's weights folded into both."""
    _, kronrod, gauss = _KRONROD15
    vals, row, col = fun(rects, kind)
    area = 0.25 * (rects[:, 1] - rects[:, 0]) * (rects[:, 3] - rects[:, 2])
    fine = np.einsum("pij,pi,pj->p", vals, row * kronrod, col * kronrod)
    coarse = np.einsum("pij,pi,pj->p", vals[:, 1::2, 1::2], row[:, 1::2] * gauss,
                       col[:, 1::2] * gauss)
    return fine * area, coarse * area


def p_quadrature(model, n, config=None):
    """p_n by adaptive tensor-product Gauss-Kronrod quadrature.

    The region is split at s = 1/3, the kink of its lower edge L(s). Rect panels tile the
    rectangle Q = [0, 1/3] x [2/3, 1] in (s, t), where the integrand's density and A, B factors
    are evaluated once per coordinate node; edge panels cover the two triangles along t = L(s)
    with a sliver coordinate. Panels of both kinds are seeded on density knots, on the images
    of the t-kinks and on cuts packing the corner (0, 1), share one pool and one refinement
    rule, and are evaluated together: one ``model.cdf`` and one ``model.pdf`` call per round on
    all their abscissae. One pass of the integrand on a panel's 15 x 15 nested 7/15
    Gauss-Kronrod grid gives the Kronrod sum (the value) and, on the odd nodes, the 7 x 7 Gauss
    sum; panels are refined where the two differ most.
    Each round splits the fewest worst panels whose error estimates sum to
    at least the error minus half the target, and never more than 64, so
    the last rounds stop near the target instead of far below it.
    The value is clipped to [0, 1]: a law near 0 or 1 may sum to just outside it, within
    the error estimate, which is reported unclipped.
    Raises QuadratureError (with the best estimate, its error and the
    panel count attached) if the panel budget runs out before the
    requested tolerance is met, and ValueError for n past ``quadrature_max_n(model)``.
    """
    n = _require_sample_size(n)
    if n > (top := quadrature_max_n(model)):
        raise ValueError(f"n: quadrature resolves {model.family} only up to n = {top}, got {n}")
    model = model.to_unit()
    config = config or QuadratureConfig()
    if n == 1:
        return ProbabilityReport(0.0, "quadrature", n, error_estimate=0.0,
                                 panels=0)
    fun, rects, kind, dead = _seed_panels(model, n)
    # dead seed panels keep their place at value and error 0: sums and order hold
    vals, rough = np.zeros(len(rects)), np.zeros(len(rects))
    vals[~dead], rough[~dead] = _evaluate_panels(fun, rects[~dead], kind[~dead])
    errs = np.abs(vals - rough)
    # live panels stay in creation order, which fixes the order of the sums
    # (left to right: cumsum, not pairwise np.sum or compensated sum()) and
    # breaks error ties toward the older panel
    value, error = vals.cumsum()[-1], errs.cumsum()[-1]
    while error > (target := max(_ABS_TOL, config.rel_tol * abs(value))):
        if len(rects) >= MAX_PANELS:
            raise QuadratureError(
                f"quadrature did not reach rel_tol={config.rel_tol:g} within "
                f"{MAX_PANELS} panels (stopped at {len(rects)} panels with best "
                f"estimate {value:.12g}, error estimate {error:.3g}); loosen rel_tol",
                best_estimate=value, error_estimate=error, panels=len(rects))
        order = np.argsort(-errs, kind="stable")
        k = np.searchsorted(errs[order].cumsum(), error - 0.5 * target) + 1
        worst = order[:min(k, 64)]
        a, b, c, d = rects[worst].T
        mx, my = 0.5 * (a + b), 0.5 * (c + d)
        children = np.stack([(a, mx, c, my), (a, mx, my, d), (mx, b, c, my), (mx, b, my, d)])
        children = children.transpose(2, 0, 1).reshape(-1, 4)   # four per panel, worst first
        child_kind = np.repeat(kind[worst], 4)
        child_vals, child_rough = _evaluate_panels(fun, children, child_kind)
        rects = np.concatenate([np.delete(rects, worst, axis=0), children])
        kind = np.concatenate([np.delete(kind, worst), child_kind])
        vals = np.concatenate([np.delete(vals, worst), child_vals])
        errs = np.concatenate([np.delete(errs, worst), np.abs(child_vals - child_rough)])
        value, error = vals.cumsum()[-1], errs.cumsum()[-1]
    return ProbabilityReport(float(min(max(value, 0.0), 1.0)), "quadrature", n,
                             error_estimate=float(error), panels=len(rects))


def p_monte_carlo(model, n, reps=100000, seed=0):
    """Empirical p_n: the share of ``simulate.run`` replicates with gamma = 2."""
    n = _require_sample_size(n)
    plan = simulate.SimulationPlan(fx=model.to_unit(), fy=(0.0, 1.0), n=n,
                                   reps=int(reps), seed=seed)
    p = simulate.run(plan).get(2, 0) / plan.reps
    se = math.sqrt(max(p * (1.0 - p), 1e-12) / plan.reps)
    return ProbabilityReport(p, "monte-carlo", n, error_estimate=se)


def probability(model, n, method="auto", config=None):
    """p_n by the best route for this family, or by quadrature when ``method="quadrature"``.

    auto prefers exact arithmetic: the rational integrator for piecewise
    constant densities up to ``EXACT_RATIONAL_MAX_N``, the polynomial expansion
    for the linear densities of slope +-2 up to ``MULTINOMIAL_MAX_N``, quadrature otherwise.
    The other routes are called by name: ``p_closed_form``, ``p_exact_rational``,
    ``p_multinomial_squarecdf`` and ``p_monte_carlo``.
    """
    n = _require_sample_size(n)
    model = model.to_unit()
    if method == "auto":
        if (n <= EXACT_RATIONAL_MAX_N and model.polynomial_degree == 0
                and model.piecewise_polynomial_parts() is not None):
            exact = p_exact_rational(model, n)
            return ProbabilityReport(float(exact), "exact-rational", n, exact=exact)
        if isinstance(model, GeneralLinear) and abs(model.a) == 2.0 and n <= MULTINOMIAL_MAX_N:
            exact = p_multinomial_squarecdf(n)
            return ProbabilityReport(float(exact), "multinomial", n, exact=exact)
    elif method != "quadrature":
        raise ValueError(f"method: expected auto or quadrature, got {method!r}")
    return p_quadrature(model, n, config)
