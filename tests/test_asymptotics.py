"""Tests for the large-sample limit machinery."""

import math
from fractions import Fraction

import numpy as np
import pytest

from cccd.asymptotics import (
    AsymptoticProfile,
    asymptotic_profile,
    describe_limit,
    empirical_rate_exponent,
    limit_family_formula,
    limit_unbounded,
)
from cccd.densities import (
    _PiecewisePolynomial,
    AbsSine,
    ArcSine,
    Beta,
    GapUniform,
    GeneralLinear,
    Linear,
    PieceQuadratic,
    QPower,
    ShrunkUniform,
    SquareCdf,
    ThreeStep,
    TruncatedNormal,
    TwoStep,
    Uniform,
)
from cccd.exact import p_uniform_fraction, probability

LANDMARKS = (("lo", "+"), ("mid", "+"), ("mid", "-"), ("hi", "-"))

BOUNDED_CATALOG = [
    Uniform(),
    ShrunkUniform(0.2),
    GapUniform(0.125),
    GapUniform(0.45),
    TwoStep(0.4),
    TwoStep(-0.7),
    ThreeStep(0.6),
    ThreeStep(-0.3),
    Linear(1.0),
    Linear(-1.5),
    GeneralLinear(0.1, (-1.0, 3.0)),
    QPower(0.0),
    QPower(1.0),
    QPower(2.0),
    PieceQuadratic(0.0),
    PieceQuadratic(0.4),
    AbsSine(),
    TruncatedNormal(0.3, 0.2),
    Beta(2.0, 2.0),
    Beta(2.0, 5.0),
]


class TestProfile:
    def test_uniform(self):
        prof = asymptotic_profile(Uniform())
        one = (1.0, 0.0)
        assert prof == AsymptoticProfile(
            k=0, ell=0, lo=one, mid_right=one, mid_left=one, hi=one,
            p_limit=pytest.approx(4.0 / 9.0, abs=1e-15))

    def test_linear_slope_one(self):
        prof = asymptotic_profile(Linear(1.0))
        assert (prof.k, prof.ell) == (0, 0)
        assert (prof.lo, prof.hi) == ((0.5, 0.0), (1.5, 0.0))
        assert prof.p_limit == pytest.approx(3.0 / 8.0, abs=1e-15)

    def test_abs_sine_needs_first_derivatives(self):
        prof = asymptotic_profile(AbsSine())
        assert (prof.k, prof.ell) == (1, 1)
        assert {prof.lo, prof.mid_right, prof.mid_left, prof.hi} == {(math.pi ** 2, 1.0)}
        assert prof.p_limit == pytest.approx(16.0 / 25.0, abs=1e-14)

    def test_flat_start_quadratic(self):
        prof = asymptotic_profile(PieceQuadratic(0.0))
        assert (prof.k, prof.ell) == (2, 0)
        assert prof.lo == prof.mid_right == (12.0, 2.0)
        assert prof.hi == prof.mid_left == (3.0, 0.0)
        assert prof.p_limit == pytest.approx(16.0 / 27.0, abs=1e-14)

    def test_power_ramp_matches_flat_quadratic(self):
        # both densities climb like x^2 from the left endpoint
        a = asymptotic_profile(QPower(2.0))
        b = asymptotic_profile(PieceQuadratic(0.0))
        assert (a.k, a.ell) == (2, 0)
        assert a.p_limit == pytest.approx(b.p_limit, abs=1e-15)

    def test_vanishing_edges_give_zero(self):
        for model in (ShrunkUniform(0.2), Beta(2.0, 2.0), Beta(2.0, 5.0), SquareCdf()):
            assert asymptotic_profile(model).p_limit == 0.0

    def test_empty_middle_gives_one(self):
        for delta in (0.05, 0.125, 0.45):
            prof = asymptotic_profile(GapUniform(delta))
            assert prof.mid_right == prof.mid_left == (0.0, math.inf)
            assert prof.p_limit == 1.0

    def test_fractional_powers_tie_with_the_midpoint(self):
        # c t^q beside 0 and beside 1/2 from the right, for every q: the ends weigh in by the tie rule
        for q, k in ((0.5, 1), (1.5, 2), (2.5, 3)):
            prof = asymptotic_profile(QPower(q))
            assert (prof.k, prof.ell) == (k, 0)
            assert prof.p_limit == limit_unbounded(QPower(q)) == pytest.approx(
                2.0 ** (q + 2) / (3.0 * (1.0 + 2.0 ** (q + 1))), rel=1e-15)

    def test_divergent_endpoint_gives_factor_one(self):
        prof = asymptotic_profile(ArcSine())
        assert (prof.k, prof.ell) == (0, 0)
        assert prof.lo == prof.hi == (1.0 / math.pi, -0.5)
        assert prof.mid_right == prof.mid_left == (2.0 / math.pi, 0.0)
        assert prof.p_limit == 1.0
        # an end whose density vanishes beside a nonzero midpoint weighs 0, whatever power it
        # vanishes at: Beta(1.5, 2) goes like t^(1/2) at 0
        assert asymptotic_profile(Beta(1.5, 2.0)).p_limit == 0.0

    def test_vanishing_beside_end_and_midpoint_is_rejected(self):
        class Blocks(_PiecewisePolynomial):
            family = "blocks"

            def __init__(self):
                super().__init__([0, Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), 1],
                                 [[0], [2], [0], [2]])

        with pytest.raises(ValueError, match="vanishes identically beside both the left endpoint"):
            asymptotic_profile(Blocks())

    def test_underflow_at_end_and_midpoint_is_rejected(self):
        # the pdf underflows to 0 at 1/2 and at 1, so the right weights are 0 / 0
        with pytest.raises(ValueError, match="underflows to 0 at both the right endpoint"):
            asymptotic_profile(TruncatedNormal(-0.28, 0.002))

    def test_high_orders(self):
        # QPower(q) needs order ceil(q) at the left end, past any fixed derivative order
        for q in (3, 4, 5, 7.25):
            prof = asymptotic_profile(QPower(q))
            assert (prof.k, prof.ell) == (math.ceil(q), 0)
            assert prof.p_limit == pytest.approx(limit_family_formula(QPower(q)), rel=1e-15)

    def test_profile_invariants_across_catalog(self):
        for model in BOUNDED_CATALOG:
            prof = asymptotic_profile(model)
            terms = (prof.lo, prof.mid_right, prof.mid_left, prof.hi)
            assert terms == tuple(model.leading_term(*at) for at in LANDMARKS)
            assert all(c > 0.0 or (c, a) == (0.0, math.inf) for c, a in terms)
            assert prof.k == max(0, math.ceil(min(prof.lo[1], prof.mid_right[1])))
            assert prof.ell == max(0, math.ceil(min(prof.hi[1], prof.mid_left[1])))
            assert 0.0 <= prof.p_limit <= 1.0


class TestFamilyFormula:
    def test_matches_profile_across_catalog(self):
        extra = ([QPower(q) for q in (0.5, 1.5, 2.5, 3, 4, 5, 7.25)]
                 + [Beta(2, 2000), Beta(2000, 1)]
                 + [TruncatedNormal(-0.5, 0.1), TruncatedNormal(1.5, 0.1), TruncatedNormal(0, 0.05)])
        for model in BOUNDED_CATALOG + [ArcSine()] + extra:
            formula = limit_family_formula(model)
            profile = asymptotic_profile(model).p_limit
            assert formula == pytest.approx(profile, rel=1e-12, abs=0.0), model

    def test_far_normal_mode_matches_mpmath(self):
        # mpmath at 50 digits, mu = -1/2 and sigma = 1/10 exactly:
        # 4 / ((2 + exp((4 mu - 1) / (8 sigma^2))) (2 + exp((3 - 4 mu) / (8 sigma^2))))
        # = 1.4375563478121976855e-27; (1.5, 0.1) is its mirror image
        for model in (TruncatedNormal(-0.5, 0.1), TruncatedNormal(1.5, 0.1)):
            row = describe_limit(model)
            assert (row["k"], row["ell"]) == (0, 0)
            assert row["p_limit"] == pytest.approx(1.4375563478121976855e-27, rel=1e-15)

    def test_overflowing_normal_formula_is_zero(self):
        # exp((3 - 4 mu) / (8 sigma^2)) passes the float range; the product it divides goes to 0
        assert limit_family_formula(TruncatedNormal(-0.28, 0.002)) == 0.0
        assert limit_family_formula(TruncatedNormal(1.28, 0.002)) == 0.0

    def test_linear_range(self):
        values = [limit_family_formula(Linear(a)) for a in np.linspace(-2.0, 2.0, 21)]
        assert values[0] == 0.0 and values[-1] == 0.0
        assert max(values) == pytest.approx(4.0 / 9.0)
        assert all(0.0 <= v <= 4.0 / 9.0 for v in values)

    def test_degenerate_parameters(self):
        for model, want in (
            (Linear(2.0), 0.0),
            (Linear(-2.0), 0.0),
            (TwoStep(1.0), 0.0),
            (TwoStep(-1.0), 0.0),
            (ThreeStep(1.0), 1.0),
            (ThreeStep(-1.0), 0.0),
        ):
            assert limit_family_formula(model) == pytest.approx(want, abs=1e-15)
            assert asymptotic_profile(model).p_limit == pytest.approx(want, abs=1e-15)

    def test_scaled_normal_formula(self):
        mu, sigma = 0.3, 0.2
        s8 = 8.0 * sigma * sigma
        want = 4.0 / ((2.0 + math.exp((4.0 * mu - 1.0) / s8))
                      * (2.0 + math.exp((3.0 - 4.0 * mu) / s8)))
        assert limit_family_formula(TruncatedNormal(mu, sigma)) == pytest.approx(want, abs=1e-16)

    def test_scaled_normal_monotone_in_sigma(self):
        sigmas = [0.05, 0.1, 0.5, 1.0, 5.0, 50.0]
        values = [limit_family_formula(TruncatedNormal(0.5, s)) for s in sigmas]
        assert all(a < b for a, b in zip(values, values[1:]))
        assert values[0] == pytest.approx(0.0, abs=1e-3)
        assert values[-1] == pytest.approx(4.0 / 9.0, abs=1e-3)

    def test_divergent_family_limit_is_one(self):
        assert limit_family_formula(ArcSine()) == 1.0

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="no published limit formula"):
            limit_family_formula(SquareCdf())

    def test_rescaled_linear_equals_unit_linear(self):
        model = GeneralLinear(0.1, (-1.0, 3.0))
        assert limit_family_formula(model) == pytest.approx(
            limit_family_formula(model.to_unit()), abs=1e-15)


class TestUnboundedLimit:
    def test_edge_divergent_density(self):
        assert limit_unbounded(ArcSine()) == 1.0

    def test_quadrature_approaches_one(self):
        p = probability(ArcSine(), 1000, method="quadrature").value
        assert p == pytest.approx(1.0, abs=5e-3)

    def test_bounded_densities_agree_with_profile(self):
        for model in (Uniform(), Linear(1.0), AbsSine(), Beta(2.0, 2.0), GapUniform(0.125)):
            assert limit_unbounded(model) == asymptotic_profile(model).p_limit


class TestEmpiricalRate:
    def test_linear_decays_like_one_over_n(self):
        exponent = empirical_rate_exponent(Linear(1.0), (50, 100, 200, 400))
        assert exponent == pytest.approx(1.0, abs=0.1)

    def test_uniform_gap_is_exponentially_small(self):
        gap = Fraction(4, 9) - p_uniform_fraction(50)
        assert 0 < gap < Fraction(1, 10 ** 25)
        with pytest.raises(ValueError, match="underflows"):
            empirical_rate_exponent(Uniform(), (50, 100))

    def test_arc_sine_decays_like_one_over_n(self):
        # 1 - p_n is about pi / n, measured against the profile's limit of exactly 1
        exponent = empirical_rate_exponent(ArcSine(), (1000, 2000, 4000, 8000))
        assert exponent == pytest.approx(1.0, abs=0.05)

    def test_beta_decays_like_one_over_n_squared(self):
        exponent = empirical_rate_exponent(Beta(2.0, 2.0), (1600, 3200, 6400, 12800))
        assert exponent == pytest.approx(2.0, abs=0.1)

    def test_validation(self):
        with pytest.raises(ValueError, match="at least two"):
            empirical_rate_exponent(Uniform(), (100,))


class TestLargeSampleConvergence:
    def test_quadrature_reaches_the_limit(self):
        for model in (Uniform(), Linear(1.0), Linear(-1.0), TwoStep(0.5),
                      QPower(2.0), PieceQuadratic(0.0), AbsSine()):
            p = probability(model, 2000).value
            assert p == pytest.approx(asymptotic_profile(model).p_limit, abs=5e-3), model.family


class TestDescribeLimit:
    def test_bounded_row(self):
        row = describe_limit(Linear(1.0))
        assert row == {
            "family": "linear", "params": {"a": 1.0}, "k": 0, "ell": 0,
            "p_limit": pytest.approx(0.375), "method": "leading-term-profile",
        }

    def test_divergent_row(self):
        row = describe_limit(ArcSine())
        assert row["method"] == "leading-term-profile"
        assert (row["k"], row["ell"]) == (0, 0)
        assert row["p_limit"] == 1.0
