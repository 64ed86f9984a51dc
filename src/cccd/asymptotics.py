"""Large-sample limits of the single-point domination probability.

As the sample size grows, the probability that one point dominates its
anchor interval settles to a constant determined entirely by how the density
behaves beside the interval endpoints and the midpoint.  Beside each of these
landmarks f = c t^a (1 + o(1)) at distance t (``DensityModel.leading_term``).
On the left, the end's term (c_lo, a_lo) meets the midpoint's from the right,
(c_mid, a_mid).  The lower power holds more of the mass near the corner, so it
gives the end the factor 1 where it is the end's and 0 where it is the
midpoint's; equal powers a give the factor

    c_lo / (c_lo + 2**-(a+1) * c_mid).

The right end is the mirror image, against the midpoint from the left, and
the limit is the product of the two factors.  ``k`` and ``ell`` are the
lowest power on each side, rounded up to an integer order and floored at 0.
This module evaluates that limit (``asymptotic_profile``) and the per-family
closed formulas (``limit_family_formula``).  The decay toward the limit is
measured, not derived: see ``empirical_rate_exponent``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exact import probability


@dataclass(frozen=True)
class AsymptoticProfile:
    """Leading terms behind a limiting domination probability.

    ``lo``, ``mid_right``, ``mid_left`` and ``hi`` are the (c, a) terms beside
    the landmarks; ``k`` and ``ell`` the orders of the left and right sides.
    """

    k: int
    ell: int
    lo: tuple
    mid_right: tuple
    mid_left: tuple
    hi: tuple
    p_limit: float


def _side_factor(family, where, end, mid):
    """(numerator, denominator) of one end's factor, and the side's order, from the (c, a)
    terms of the end and of the midpoint on that side."""
    (c_end, a_end), (c_mid, a_mid) = end, mid
    if math.isinf(min(a_end, a_mid)):
        raise ValueError(f"{family}: the density vanishes identically beside both the {where} "
                         "endpoint and the midpoint, so no expansion order exists")
    order = max(0, math.ceil(min(a_end, a_mid)))
    if a_end < a_mid:
        return c_end, c_end, order  # c / c is exactly 1
    if a_end > a_mid:
        return 0.0, 1.0, order
    den = c_end + 2.0 ** -(a_end + 1.0) * c_mid
    if den == 0.0:
        raise ValueError(f"{family}: the density underflows to 0 at both the {where} endpoint "
                         "and the midpoint, so their weights cannot be compared")
    return c_end, den, order


def asymptotic_profile(model):
    """Limiting domination probability from the leading terms beside the landmarks.

    Raises ValueError where the density vanishes identically beside an end
    and the midpoint, or underflows at both.
    """
    lo, mid_right, mid_left, hi = (model.leading_term(*at) for at in
                                   (("lo", "+"), ("mid", "+"), ("mid", "-"), ("hi", "-")))
    num_lo, den_lo, k = _side_factor(model.family, "left", lo, mid_right)
    num_hi, den_hi, ell = _side_factor(model.family, "right", hi, mid_left)
    p_limit = (num_lo * num_hi) / (den_lo * den_hi)
    return AsymptoticProfile(k=k, ell=ell, lo=lo, mid_right=mid_right, mid_left=mid_left, hi=hi,
                             p_limit=min(max(p_limit, 0.0), 1.0))


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
    if fam in ("linear", "general_linear"):
        a = model.to_unit().a
        return (4.0 - a * a) / (9.0 - a * a)
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
        try:
            return 4.0 / ((2.0 + math.exp((4.0 * mu - 1.0) / s8))
                          * (2.0 + math.exp((3.0 - 4.0 * mu) / s8)))
        except OverflowError:  # an exponential past the float range sends the product to 0
            return 0.0
    if fam == "beta":
        return 0.0
    raise ValueError(
        f"{fam}: no published limit formula; use asymptotic_profile or quadrature at large n")


def limit_unbounded(model):
    """The ``p_limit`` of ``asymptotic_profile``, kept under this name for its callers."""
    return asymptotic_profile(model).p_limit


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
