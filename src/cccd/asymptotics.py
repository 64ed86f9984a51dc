"""Large-sample limits of the single-point domination probability.

As the sample size grows, the probability that one point dominates its
anchor interval settles to a constant determined entirely by the lowest
surviving one-sided derivatives of the density at the interval endpoints
and at the midpoint.  Writing d_lo for the order-k derivative at the left
endpoint (from the right) and d_mid_right for the same order at the
midpoint, the left weight is

    alpha_k = d_lo + 2**-(k+1) * d_mid_right,

where k is the smallest order at which this combination is nonzero while
every lower-order endpoint derivative vanishes.  With ell and beta_ell the
mirror quantities at the right endpoint,

    lim p_n = (d_lo * d_hi) / (alpha_k * beta_ell).

This module evaluates that limit from analytic one-sided derivatives
(``asymptotic_profile``), from per-family closed formulas
(``limit_family_formula``), and through a vanishing-margin ratio that also
covers densities diverging at the support edge (``limit_unbounded``).  The
leading finite-n correction coefficient is exposed as ``rate_constant``;
its decay exponent is only ever measured empirically, see
``empirical_rate_exponent``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exact import probability

# Analytic one-sided derivatives are available through order 2, which caps
# the expansion order this module can certify.
MAX_ORDER = 2

# Derivative values at or below this magnitude are treated as exact zeros.
ZERO_TOL = 1e-12

# Margins shrink geometrically by this factor across the stabilization grid.
_MARGIN_GRID = [10.0 ** -i for i in range(2, 16)]

# Successive endpoint ratios this close count as stabilized.
_WINDOW = 1e-6


@dataclass(frozen=True)
class AsymptoticProfile:
    """Endpoint expansion data behind a limiting domination probability.

    ``k`` and ``ell`` are the surviving derivative orders at the left and
    right endpoints.  ``alpha_k`` and ``beta_ell`` are the weighted endpoint
    and midpoint combinations; both are nonzero by construction, and
    ``p_limit`` equals ``d_lo * d_hi / (alpha_k * beta_ell)``.
    """

    k: int
    ell: int
    d_lo: float
    d_hi: float
    d_mid_right: float
    d_mid_left: float
    alpha_k: float
    beta_ell: float
    p_limit: float


def _order_scan(model, end, tolerate_divergence=False):
    """Find the smallest usable expansion order at one support endpoint.

    Returns ``(order, d_end, d_mid, combination)``; the three floats are
    ``None`` when ``tolerate_divergence`` is set and a derivative diverges,
    in which case ``order`` is the order at which the divergence appears.
    """
    side = "+" if end == "lo" else "-"
    where = "left" if end == "lo" else "right"
    for order in range(MAX_ORDER + 1):
        d_end = model.one_sided_derivative(end, side, order)
        d_mid = model.one_sided_derivative("mid", side, order)
        if d_end.is_infinite or d_mid.is_infinite:
            if tolerate_divergence:
                return order, None, None, None
            raise ValueError(
                f"{model.family}: the order-{order} one-sided derivative diverges near the "
                f"{where} endpoint; use limit_unbounded for densities without bounded "
                "endpoint derivatives")
        weight = 2.0 ** -(order + 1)
        combo = d_end.value + weight * d_mid.value
        if abs(combo) > ZERO_TOL:
            return order, d_end.value, d_mid.value, combo
        if abs(d_end.value) > ZERO_TOL:
            raise ValueError(
                f"{model.family}: the order-{order} endpoint and midpoint derivatives cancel "
                f"({d_end.value:g} against {d_mid.value:g}) at the {where} end, so no valid "
                "expansion order exists")
        # Both the endpoint and (hence) the midpoint derivative vanish at
        # this order; move up one order.
    raise ValueError(
        f"{model.family}: one-sided derivatives through order {MAX_ORDER} all vanish at the "
        f"{where} endpoint; the expansion order is out of the supported range")


def asymptotic_profile(model):
    """Limiting domination probability from one-sided endpoint derivatives.

    Raises ValueError for densities whose relevant derivatives diverge at a
    support landmark (route those through ``limit_unbounded``) and for
    densities needing an expansion order above 2.
    """
    if model.unbounded:
        raise ValueError(
            f"{model.family}: the density diverges at the support edge; use limit_unbounded")
    k, d_lo, d_mid_right, alpha_k = _order_scan(model, "lo")
    ell, d_hi, d_mid_left, beta_ell = _order_scan(model, "hi")
    p_limit = (d_lo * d_hi) / (alpha_k * beta_ell)
    return AsymptoticProfile(
        k=k,
        ell=ell,
        d_lo=d_lo,
        d_hi=d_hi,
        d_mid_right=d_mid_right,
        d_mid_left=d_mid_left,
        alpha_k=alpha_k,
        beta_ell=beta_ell,
        p_limit=min(max(p_limit, 0.0), 1.0),
    )


def limit_family_formula(model):
    """Closed-form limiting probability for families that have one.

    Each branch restates the published per-family constant; families without
    one raise ValueError and should go through ``asymptotic_profile`` or
    large-n quadrature instead.
    """
    fam = model.family
    if fam == "uniform":
        return 4.0 / 9.0
    if fam == "shrunk_uniform":
        return 4.0 / 9.0 if model.delta == 0.0 else 0.0
    if fam == "gap_uniform":
        return 4.0 / 9.0 if model.delta == 0.0 else 1.0
    if fam == "two_step":
        d = model.delta
        return 4.0 * (1.0 - d * d) / (9.0 - d * d)
    if fam == "three_step":
        d = model.delta
        return 4.0 * (1.0 + d) ** 2 / (3.0 + d) ** 2
    if fam == "linear":
        a = model.a
        return (4.0 - a * a) / (9.0 - a * a)
    if fam == "general_linear":
        width = model.support.hi - model.support.lo
        s = (model.a * width * width) ** 2
        return (s - 4.0) / (s - 9.0)
    if fam == "q_power":
        q = model.q
        return 2.0 ** (q + 2) / (3.0 * (1.0 + 2.0 ** (q + 1)))
    if fam == "piece_quadratic":
        return 16.0 / 27.0 if model.delta == 0.0 else 4.0 / 9.0
    if fam == "abs_sine":
        return 16.0 / 25.0
    if fam == "arc_sine":
        return 1.0
    if fam == "truncated_normal":
        mu, sigma = model.mu, model.sigma
        s8 = 8.0 * sigma * sigma
        return 4.0 / ((2.0 + math.exp((4.0 * mu - 1.0) / s8))
                      * (2.0 + math.exp((3.0 - 4.0 * mu) / s8)))
    if fam == "beta":
        return 0.0
    raise ValueError(
        f"{fam}: no published limit formula; use asymptotic_profile or quadrature at large n")


def _aitken(a, b, c):
    denom = (c - b) - (b - a)
    if denom == 0.0:
        return c
    return c - (c - b) ** 2 / denom


def limit_unbounded(model):
    """Limiting probability via the endpoint ratio at vanishing margins.

    Evaluates the limit expression at interior points a margin away from the
    endpoints, shrinking the margin geometrically until three successive
    values agree within ``_WINDOW``, then returns the Aitken extrapolation of
    the last three (clipped to the unit interval to absorb rounding).  This
    covers densities that diverge at the support edge; bounded densities
    give the same answer as ``asymptotic_profile``.
    """
    k, _, _, _ = _order_scan(model, "lo", tolerate_divergence=True)
    ell, _, _, _ = _order_scan(model, "hi", tolerate_divergence=True)
    lo, mid, hi = model.support.lo, model.support.mid, model.support.hi
    width = hi - lo
    w_lo = 2.0 ** -(k + 1)
    w_hi = 2.0 ** -(ell + 1)
    values = []
    for delta in _MARGIN_GRID:
        h = delta * width
        a = model.pdf_derivative(lo + h, k)
        b = model.pdf_derivative(hi - h, ell)
        m_right = model.pdf_derivative(mid + h, k)
        m_left = model.pdf_derivative(mid - h, ell)
        denom = (a + w_lo * m_right) * (b + w_hi * m_left)
        if denom == 0.0:
            continue
        values.append((a * b) / denom)
        if (len(values) >= 3
                and abs(values[-1] - values[-2]) <= _WINDOW
                and abs(values[-2] - values[-3]) <= _WINDOW):
            return min(max(_aitken(values[-3], values[-2], values[-1]), 0.0), 1.0)
    raise ValueError(
        f"{model.family}: the endpoint ratio did not stabilize over margins "
        f"{_MARGIN_GRID[0]:g} down to {_MARGIN_GRID[-1]:g} of the support width")


def limit_matched_derivatives(k, ell):
    """Limiting probability when endpoint and midpoint derivatives match.

    When the order-k derivative at the left endpoint equals the one at the
    midpoint (and likewise at order ell on the right), the limit depends on
    the orders alone.
    """
    for name, value in (("k", k), ("ell", ell)):
        if not isinstance(value, (int, np.integer)) or value < 0:
            raise ValueError(f"{name}: expected a nonnegative integer order, got {value!r}")
    return 1.0 / ((1.0 + 2.0 ** -(k + 1)) * (1.0 + 2.0 ** -(ell + 1)))


def _real_power(base, exponent):
    if base < 0.0 and exponent != int(exponent):
        raise ValueError(
            f"rate constant: fractional power {exponent:g} of the negative combination "
            f"{base:g} leaves the real line; the correction coefficient is undefined for "
            "this derivative sign pattern")
    if base < 0.0:
        return (-1.0) ** int(exponent) * (-base) ** exponent
    return base ** exponent


def rate_constant(model):
    """Leading correction coefficient c(f) with the sample-size powers struck.

    The finite-n expansion reads p_n = p_limit + c(f) / n**m with an exponent
    m that this module never asserts; the coefficient is informational and
    ``empirical_rate_exponent`` measures the decay instead.  Needs one
    derivative order beyond the profile orders k and ell at the respective
    endpoints, so profiles with k or ell at 2 are out of range.
    """
    prof = asymptotic_profile(model)
    k, ell = prof.k, prof.ell
    if k + 1 > MAX_ORDER or ell + 1 > MAX_ORDER:
        raise ValueError(
            f"{model.family}: the correction needs order {max(k, ell) + 1} endpoint "
            f"derivatives and only orders through {MAX_ORDER} are available")
    d_lo_next = model.one_sided_derivative("lo", "+", k + 1)
    d_hi_next = model.one_sided_derivative("hi", "-", ell + 1)
    if d_lo_next.is_infinite or d_hi_next.is_infinite:
        raise ValueError(
            f"{model.family}: the order-{max(k, ell) + 1} endpoint derivative diverges; "
            "the correction coefficient is undefined")
    s1 = ((-1.0) ** (ell + 1) / (math.factorial(k) * math.factorial(ell + 1))
          * prof.d_lo * d_hi_next.value)
    s2 = ((-1.0) ** ell / (math.factorial(ell) * math.factorial(k + 1))
          * d_lo_next.value * prof.d_hi)
    s3 = prof.alpha_k / math.factorial(k + 1)
    s4 = (-1.0) ** (ell + 1) / math.factorial(ell + 1) * prof.beta_ell
    if s1 == 0.0 and s2 == 0.0:
        return 0.0
    numerator = (s1 * _real_power(s3, 1.0 / (k + 1)) * math.gamma((ell + 2) / (ell + 1))
                 + s2 * _real_power(s4, 1.0 / (ell + 1)) * math.gamma((k + 2) / (k + 1)))
    denominator = ((k + 1) * (ell + 1)
                   * _real_power(s3, (k + 2) / (k + 1))
                   * _real_power(s4, (ell + 2) / (ell + 1)))
    return numerator / denominator


def empirical_rate_exponent(model, n_values=(50, 100, 200, 400), limit=None):
    """Fitted power-law decay exponent of p_n toward its limit.

    Computes p_n on the given grid, fits log |p_n - limit| against log n by
    least squares, and returns the (positive) decay exponent.  Raises when a
    gap underflows to zero, which happens for exponentially fast families
    where no power law fits.
    """
    if len(n_values) < 2:
        raise ValueError("n_values: need at least two sample sizes to fit a slope")
    if limit is None:
        limit = (limit_unbounded(model) if model.unbounded
                 else asymptotic_profile(model).p_limit)
    gaps = []
    for n in n_values:
        report = probability(model, int(n))
        gap = abs(report.value - limit)
        if gap == 0.0:
            raise ValueError(
                f"n={n}: the gap to the limit underflows to zero; the decay is faster "
                "than any power law this fit can resolve")
        gaps.append(gap)
    slope = np.polyfit(np.log(np.asarray(n_values, dtype=float)), np.log(gaps), 1)[0]
    return float(-slope)


def describe_limit(model):
    """Limit summary row: family, params, orders, p_limit, and the method used."""
    if model.unbounded:
        k, _, _, _ = _order_scan(model, "lo", tolerate_divergence=True)
        ell, _, _, _ = _order_scan(model, "hi", tolerate_divergence=True)
        p = limit_unbounded(model)
        method = "vanishing-margin"
    else:
        prof = asymptotic_profile(model)
        k, ell, p = prof.k, prof.ell, prof.p_limit
        method = "derivative-profile"
    return {
        "family": model.family,
        "params": dict(model.params),
        "k": int(k),
        "ell": int(ell),
        "p_limit": p,
        "method": method,
    }
