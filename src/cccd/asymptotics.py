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
(``asymptotic_profile``) and from per-family closed formulas
(``limit_family_formula``).  An endpoint derivative that diverges beside a
finite midpoint derivative gives that end the factor d_lo / alpha_k = 1
exactly: the end then holds mass of lower order than the middle.  This covers
densities such as the arc-sine that diverge at the support edge.  A midpoint
derivative that diverges has no such rule, and the scan raises.  The decay
toward the limit is measured, not derived: see ``empirical_rate_exponent``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .densities import MAX_DERIVATIVE_ORDER
from .exact import probability

# Derivative values at or below this magnitude are treated as exact zeros.
ZERO_TOL = 1e-12


@dataclass(frozen=True)
class AsymptoticProfile:
    """Endpoint expansion data behind a limiting domination probability.

    ``k`` and ``ell`` are the surviving derivative orders at the left and
    right endpoints.  ``alpha_k`` and ``beta_ell`` are the weighted endpoint
    and midpoint combinations; both are nonzero by construction, and
    ``p_limit`` equals ``d_lo * d_hi / (alpha_k * beta_ell)`` where both ends
    are finite.  An infinite ``d_lo`` (and so ``alpha_k``) or ``d_hi`` gives
    its end the factor 1.
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


def _order_scan(model, end):
    """Find the smallest usable expansion order at one support endpoint.

    Returns ``(order, d_end, d_mid, combination)``.  An infinite ``d_end``
    stops the scan with an infinite combination.
    """
    side = "+" if end == "lo" else "-"
    where = "left" if end == "lo" else "right"
    # one-sided derivatives stop at MAX_DERIVATIVE_ORDER, which caps the order this can certify
    for order in range(MAX_DERIVATIVE_ORDER + 1):
        d_end = model.one_sided_derivative(end, side, order)
        d_mid = model.one_sided_derivative("mid", side, order)
        if d_mid.is_infinite:
            raise ValueError(
                f"{model.family}: the order-{order} one-sided derivative at the midpoint "
                f"diverges (from the {'right' if side == '+' else 'left'}), so the profile "
                f"cannot weigh the {where} endpoint against it")
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
        f"{model.family}: one-sided derivatives through order {MAX_DERIVATIVE_ORDER} all vanish at the "
        f"{where} endpoint; the expansion order is out of the supported range")


def asymptotic_profile(model):
    """Limiting domination probability from one-sided endpoint derivatives.

    An endpoint derivative that diverges beside a finite midpoint derivative
    gives that end the factor 1.  Raises ValueError where the midpoint
    derivative diverges at the scanned order and for densities needing an
    expansion order above 2.
    """
    k, d_lo, d_mid_right, alpha_k = _order_scan(model, "lo")
    ell, d_hi, d_mid_left, beta_ell = _order_scan(model, "hi")
    # an infinite end holds mass of lower order than the middle: its factor is 1
    num_lo, den_lo = (1.0, 1.0) if math.isinf(d_lo) else (d_lo, alpha_k)
    num_hi, den_hi = (1.0, 1.0) if math.isinf(d_hi) else (d_hi, beta_ell)
    p_limit = (num_lo * num_hi) / (den_lo * den_hi)
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


def limit_unbounded(model):
    """The ``p_limit`` of ``asymptotic_profile``, kept under this name for its callers."""
    return asymptotic_profile(model).p_limit


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
        limit = asymptotic_profile(model).p_limit
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
    prof = asymptotic_profile(model)
    return {
        "family": model.family,
        "params": dict(model.params),
        "k": prof.k,
        "ell": prof.ell,
        "p_limit": prof.p_limit,
        "method": "derivative-profile",
    }
