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
    limit_matched_derivatives,
    limit_unbounded,
)
from cccd.densities import (
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
        assert prof == AsymptoticProfile(
            k=0, ell=0, d_lo=1.0, d_hi=1.0, d_mid_right=1.0, d_mid_left=1.0,
            alpha_k=1.5, beta_ell=1.5, p_limit=pytest.approx(4.0 / 9.0, abs=1e-15))

    def test_linear_slope_one(self):
        prof = asymptotic_profile(Linear(1.0))
        assert (prof.k, prof.ell) == (0, 0)
        assert prof.d_lo == pytest.approx(0.5)
        assert prof.d_hi == pytest.approx(1.5)
        assert prof.alpha_k == pytest.approx(1.0)
        assert prof.beta_ell == pytest.approx(2.0)
        assert prof.p_limit == pytest.approx(3.0 / 8.0, abs=1e-15)

    def test_abs_sine_needs_first_derivatives(self):
        prof = asymptotic_profile(AbsSine())
        assert (prof.k, prof.ell) == (1, 1)
        assert prof.d_lo == pytest.approx(math.pi ** 2)
        assert prof.d_hi == pytest.approx(-math.pi ** 2)
        assert prof.alpha_k == pytest.approx(1.25 * math.pi ** 2)
        assert prof.beta_ell == pytest.approx(-1.25 * math.pi ** 2)
        assert prof.p_limit == pytest.approx(16.0 / 25.0, abs=1e-14)

    def test_flat_start_quadratic(self):
        prof = asymptotic_profile(PieceQuadratic(0.0))
        assert (prof.k, prof.ell) == (2, 0)
        assert prof.d_lo == pytest.approx(24.0)
        assert prof.d_mid_right == pytest.approx(24.0)
        assert prof.alpha_k == pytest.approx(27.0)
        assert prof.beta_ell == pytest.approx(4.5)
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
            assert prof.d_mid_right == 0.0
            assert prof.d_mid_left == 0.0
            assert prof.p_limit == 1.0

    def test_divergent_density_is_rejected(self):
        # a non-integer q below 2 puts an infinite derivative at the midpoint beside the
        # one at the end, which the profile cannot weigh; it raises rather than guess a limit
        for model in (QPower(0.5), QPower(1.5)):
            for route in (asymptotic_profile, limit_unbounded):
                with pytest.raises(ValueError, match="at the midpoint diverges") as info:
                    route(model)
                assert "limit_unbounded" not in str(info.value)

    def test_divergent_endpoint_gives_factor_one(self):
        prof = asymptotic_profile(ArcSine())
        assert (prof.k, prof.ell) == (0, 0)
        assert (prof.d_lo, prof.d_hi) == (math.inf, math.inf)
        assert (prof.d_mid_right, prof.d_mid_left) == (2.0 / math.pi, 2.0 / math.pi)
        assert prof.p_limit == 1.0
        # an end whose density vanishes beside a nonzero midpoint weighs 0, whatever its
        # higher derivatives do: Beta(1.5, 2) has an infinite order-1 derivative at 0
        assert asymptotic_profile(Beta(1.5, 2.0)).p_limit == 0.0

    def test_divergent_higher_derivative_is_rejected(self):
        with pytest.raises(ValueError, match="order-1.*diverges"):
            asymptotic_profile(QPower(0.5))

    def test_order_out_of_range(self):
        with pytest.raises(ValueError, match="through order 2"):
            asymptotic_profile(QPower(3.0))

    def test_profile_invariants_across_catalog(self):
        for model in BOUNDED_CATALOG:
            prof = asymptotic_profile(model)
            assert prof.alpha_k == pytest.approx(
                prof.d_lo + 2.0 ** -(prof.k + 1) * prof.d_mid_right, rel=1e-12)
            assert prof.beta_ell == pytest.approx(
                prof.d_hi + 2.0 ** -(prof.ell + 1) * prof.d_mid_left, rel=1e-12)
            assert abs(prof.alpha_k) > 0.0
            assert abs(prof.beta_ell) > 0.0
            assert 0.0 <= prof.p_limit <= 1.0


class TestFamilyFormula:
    def test_matches_profile_across_catalog(self):
        for model in BOUNDED_CATALOG + [ArcSine()]:
            formula = limit_family_formula(model)
            profile = asymptotic_profile(model).p_limit
            assert formula == pytest.approx(profile, abs=1e-12), model.family

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


class TestMatchedDerivatives:
    def test_base_orders(self):
        assert limit_matched_derivatives(0, 0) == pytest.approx(4.0 / 9.0, abs=1e-16)
        assert limit_matched_derivatives(1, 1) == pytest.approx(16.0 / 25.0, abs=1e-16)

    def test_power_ramp_identity(self):
        # QPower's endpoint and midpoint derivatives coincide at every order,
        # so its family formula is the matched product with ell = 0
        for q in range(7):
            assert limit_matched_derivatives(q, 0) == pytest.approx(
                2.0 ** (q + 2) / (3.0 * (1.0 + 2.0 ** (q + 1))), abs=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError, match="k"):
            limit_matched_derivatives(-1, 0)
        with pytest.raises(ValueError, match="ell"):
            limit_matched_derivatives(0, 1.5)


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
            "p_limit": pytest.approx(0.375), "method": "derivative-profile",
        }

    def test_divergent_row(self):
        row = describe_limit(ArcSine())
        assert row["method"] == "derivative-profile"
        assert (row["k"], row["ell"]) == (0, 0)
        assert row["p_limit"] == 1.0
