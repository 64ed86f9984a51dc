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
  * a one-dimensional polynomial reduction for the density 2x on (0, 1);
  * adaptive two-dimensional quadrature for everything else;
  * Monte Carlo through ``simulate.run`` as an independent check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import simulate
from .densities import _GL7, _GL15, GapUniform, ShrunkUniform, TwoStep, Uniform

# Error floor of the quadrature, and its panel budget.
_ABS_TOL = 1e-12
MAX_PANELS = 20_000


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
        if self.rel_tol <= 0:
            raise ValueError("rel_tol: tolerance must be positive")


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


def _to_unit(model):
    """Rescale to unit support; the law is invariant under affine maps."""
    if (model.support.lo, model.support.hi) == (0.0, 1.0):
        return model
    to_unit = getattr(model, "to_unit", None)
    if to_unit is None:
        raise ValueError(
            f"support: family {model.family!r} on {model.support} cannot be "
            "rescaled to the unit interval")
    return to_unit()


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
        if d >= 1.0 / 3.0:
            # points split across the gap always need one ball per side, so
            # gamma = 1 happens only when the whole sample shares a side
            return 1.0 - 2.0 ** (1 - n)
        c = 1.0 - 2.0 * d
        r6 = (1.0 - 6.0 * d) / c
        r4 = (1.0 - 4.0 * d) / c
        r2 = (1.0 + 2.0 * d) / c
        return (1.0 + r6 ** n / 9.0 - (2.0 / 3.0) * r4 ** n
                - (4.0 / 3.0) * (r2 / 4.0) ** n - (4.0 / 9.0) * (r6 / 4.0) ** n)
    if isinstance(model, TwoStep):
        d = model.delta
        if abs(d) == 1.0:
            return 0.0
        lead = 4.0 * (1.0 - d * d) / (9.0 - d * d)
        tail = (8.0 / 3.0) * 4.0 ** (-n) * (1.0 - d * d) * (
            (1.0 + d) ** (n - 1) / (3.0 - d) + (1.0 - d) ** (n - 1) / (3.0 + d))
        return lead - tail
    raise ValueError(
        f"family {model.family!r} has no closed form; use p_quadrature "
        "or p_exact_rational")


# exact rational route for piecewise-constant densities

class _StepCdf:
    """Exact piecewise-linear cdf built from (lo, hi, height) Fractions."""

    def __init__(self, parts):
        self.parts = [(Fraction(lo), Fraction(hi), Fraction(h))
                      for lo, hi, h in parts]
        self.breaks = sorted({e for lo, hi, _ in self.parts for e in (lo, hi)})

    def height(self, x):
        for lo, hi, h in self.parts:
            if lo <= x < hi:
                return h
        return Fraction(0)

    def cdf(self, x):
        total = Fraction(0)
        for lo, hi, h in self.parts:
            if x <= lo:
                break
            total += h * (min(x, hi) - lo)
        return total


def p_exact_rational(model, n):
    """p_n for a piecewise-constant density, in exact rational arithmetic.

    The region is cut so that on each piece the inner integrand is a power
    of a linear function of t and the outer one a power of a linear function
    of s, both integrable in closed form. This is the arbiter the closed
    forms are tested against, and it also covers step families without one.
    """
    n = _require_sample_size(n)
    parts = model.piecewise_constant_parts()
    if parts is None:
        raise ValueError(f"family {model.family!r} is not piecewise constant")
    if (model.support.lo, model.support.hi) != (0.0, 1.0):
        raise ValueError("support: exact integration expects the unit interval")
    if n == 1:
        return Fraction(0)

    F = _StepCdf(parts)
    half, third, one = Fraction(1, 2), Fraction(1, 3), Fraction(1)

    def A(t):
        return F.cdf(t) + F.cdf(t / 2)

    def B(s):
        return F.cdf(s) + F.cdf((1 + s) / 2)

    t_kinks = sorted({b for b in F.breaks if half < b < one}
                     | {2 * b for b in F.breaks if half < 2 * b < one})
    s_kinks = ({b for b in F.breaks if 0 < b < half}
               | {2 * b - 1 for b in F.breaks if 0 < 2 * b - 1 < half})
    crossings = {2 * tau - 1 if tau <= Fraction(2, 3) else tau / 2
                 for tau in t_kinks}
    s_cuts = sorted({Fraction(0), half, third} | s_kinks | crossings)

    total = Fraction(0)
    for s_lo, s_hi in zip(s_cuts[:-1], s_cuts[1:]):
        s_mid = (s_lo + s_hi) / 2
        f_s = F.height(s_mid)
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
            f_t = F.height(probe)
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
    """p_n for the density 2x on (0, 1), by polynomial expansion.

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


def _t_kinks(model):
    """Ordinates in (1/2, 1) where A or the t-density changes analytic form."""
    kinks = set()
    for k in (float(v) for v in model.interior_knots()):
        for tau in (k, 2.0 * k):
            if 0.5 < tau < 1.0:
                kinks.add(tau)
    return sorted(kinks)


def _initial_cuts(model, n, transformed):
    knots = [float(k) for k in model.interior_knots()]
    s_cuts = {0.0, 1.0 / 3.0, 0.5}
    for k in knots:
        if 0.0 < k < 0.5:
            s_cuts.add(k)
        if 0.0 < 2.0 * k - 1.0 < 0.5:
            s_cuts.add(2.0 * k - 1.0)
    for tau in _t_kinks(model):
        s_cuts.add(2.0 * tau - 1.0 if tau <= 2.0 / 3.0 else tau / 2.0)
    bands = len(_t_kinks(model)) + 1
    v_cuts = {k / bands for k in range(bands + 1)}
    v_cuts.add(1.0 - 0.5 / bands)
    for cut in _geometric_cuts(n):
        s_cuts.add(0.5 * cut)                 # toward s = 0
        v_cuts.add(1.0 - cut / bands)         # toward t = 1, inside top band
    if transformed:
        top = float(model.cdf(0.5))
        s_cuts = {float(model.cdf(c)) for c in s_cuts}
        s_cuts |= {0.0, top}
        s_cuts = {c for c in s_cuts if 0.0 <= c <= top}
    return sorted(s_cuts), sorted(v_cuts)


def _make_integrand(model, n):
    """Returns fun(s, v) on the unit square of (outer, sliver) coordinates.

    The outer nodes come in as (P, k, 1) and the sliver nodes as (P, 1, k),
    so the factors that depend on s alone are evaluated once per outer node.
    For a bounded density the outer variable is s itself. For a density
    unbounded at the support edge the outer variable is u = F(s) and the
    sliver is placed in w = F(t); both density factors then cancel and the
    integrand stays finite.
    """
    power = n - 2

    def weight(G):
        G = np.maximum(G, 0.0)
        if power == 0:
            return np.ones_like(G)
        with np.errstate(divide="ignore"):
            return np.exp(power * np.log(np.maximum(G, 1e-300)))

    if model.unbounded:
        def fun(u, w_slot):
            s = model.quantile(u)
            w_lo = model.cdf(_lower_edge(s))
            w = w_lo + w_slot * (1.0 - w_lo)
            t = model.quantile(w)
            G = (w + model.cdf(0.5 * t)) - (u + model.cdf(0.5 * (1.0 + s)))
            return n * (n - 1) * weight(G) * (1.0 - w_lo)
        return fun

    # ladder of t-ordinates: each density break is pinned to a fixed fraction
    # of the v axis, so panels never straddle a jump of f(t)
    rungs = np.array([0.0] + _t_kinks(model) + [1.0])
    bands = rungs.size - 1

    def fun(s, v):
        L = _lower_edge(s)
        cdf_s, cdf_half_s = model.cdf(s), model.cdf(0.5 * (1.0 + s))
        pdf_s = model.pdf(s)
        b = np.clip((v * bands).astype(int), 0, bands - 1)
        lo = np.maximum(rungs[b], L)
        hi = np.maximum(rungs[b + 1], L)
        t = lo + (v * bands - b) * (hi - lo)
        G = model.cdf(t) + model.cdf(0.5 * t) - cdf_s - cdf_half_s
        jac = bands * (hi - lo)
        return n * (n - 1) * pdf_s * model.pdf(t) * weight(G) * jac

    return fun


def _evaluate_panels(fun, rect):
    """Two tensor Gauss estimates per panel; rect has rows (a, b, c, d)."""
    out = []
    for nodes, weights in (_GL15, _GL7):
        half_x = 0.5 * (rect[:, 1] - rect[:, 0])
        half_y = 0.5 * (rect[:, 3] - rect[:, 2])
        mid_x = 0.5 * (rect[:, 1] + rect[:, 0])
        mid_y = 0.5 * (rect[:, 3] + rect[:, 2])
        X = mid_x[:, None, None] + half_x[:, None, None] * nodes[None, :, None]
        Y = mid_y[:, None, None] + half_y[:, None, None] * nodes[None, None, :]
        vals = np.broadcast_to(fun(X, Y), (rect.shape[0], nodes.size, nodes.size))
        inner = np.einsum("pij,i,j->p", vals, weights, weights)
        out.append(inner * half_x * half_y)
    return out[0], out[1]


def p_quadrature(model, n, config=None):
    """p_n by adaptive tensor-product Gauss quadrature.

    Panels are seeded on density knots and on the images of the lower edge
    kink, then refined where a 15-point and a 7-point rule disagree most.
    Each round splits the fewest worst panels whose error estimates sum to
    at least the error minus half the target, and never more than 64, so
    the last rounds stop near the target instead of far below it.
    Raises QuadratureError (with the best estimate, its error and the
    panel count attached) if the panel budget runs out before the
    requested tolerance is met.
    """
    n = _require_sample_size(n)
    model = _to_unit(model)
    config = config or QuadratureConfig()
    if n == 1:
        return ProbabilityReport(0.0, "quadrature", n, error_estimate=0.0,
                                 panels=0)
    fun = _make_integrand(model, n)
    s_cuts, v_cuts = _initial_cuts(model, n, model.unbounded)
    rects = np.array([(a, b, c, d)
                      for a, b in zip(s_cuts[:-1], s_cuts[1:])
                      for c, d in zip(v_cuts[:-1], v_cuts[1:])])
    vals, rough = _evaluate_panels(fun, rects)
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
        child_vals, child_rough = _evaluate_panels(fun, children)
        rects = np.concatenate([np.delete(rects, worst, axis=0), children])
        vals = np.concatenate([np.delete(vals, worst), child_vals])
        errs = np.concatenate([np.delete(errs, worst), np.abs(child_vals - child_rough)])
        value, error = vals.cumsum()[-1], errs.cumsum()[-1]
    return ProbabilityReport(float(value), "quadrature", n,
                             error_estimate=float(error), panels=len(rects))


def p_monte_carlo(model, n, reps=100000, seed=0):
    """Empirical p_n: the share of ``simulate.run`` replicates with gamma = 2."""
    n = _require_sample_size(n)
    plan = simulate.SimulationPlan(fx=_to_unit(model), fy=(0.0, 1.0), n=n,
                                   reps=int(reps), seed=seed)
    p = simulate.run(plan).get(2, 0) / plan.reps
    se = math.sqrt(max(p * (1.0 - p), 1e-12) / plan.reps)
    return ProbabilityReport(p, "monte-carlo", n, error_estimate=se)


def probability(model, n, method="auto", config=None, reps=100000, seed=0):
    """Route to the best available evaluation for this family.

    auto prefers exact arithmetic: the rational integrator for piecewise
    constant densities, the polynomial expansion for the density 2x at
    moderate n, adaptive quadrature otherwise.
    """
    n = _require_sample_size(n)
    model = _to_unit(model)
    if method == "auto":
        if model.piecewise_constant_parts() is not None:
            method = "exact-rational"
        elif model.family == "square_cdf" and n <= MULTINOMIAL_MAX_N:
            method = "multinomial"
        else:
            method = "quadrature"
    if method == "closed-form":
        return ProbabilityReport(p_closed_form(model, n), "closed-form", n)
    if method == "exact-rational":
        exact = p_exact_rational(model, n)
        return ProbabilityReport(float(exact), "exact-rational", n, exact=exact)
    if method == "multinomial":
        if model.family != "square_cdf":
            raise ValueError("method multinomial applies to the square_cdf family only")
        exact = p_multinomial_squarecdf(n)
        return ProbabilityReport(float(exact), "multinomial", n, exact=exact)
    if method == "quadrature":
        return p_quadrature(model, n, config)
    if method == "monte-carlo":
        return p_monte_carlo(model, n, reps=reps, seed=seed)
    raise ValueError(
        f"method: expected one of auto, closed-form, exact-rational, "
        f"multinomial, quadrature, monte-carlo; got {method!r}")

