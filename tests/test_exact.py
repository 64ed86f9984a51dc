import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cccd import exact
from cccd.densities import (AbsSine, ArcSine, Beta, GapUniform, GeneralLinear,
                            Linear, PieceQuadratic, QPower, ShrunkUniform,
                            SquareCdf, ThreeStep, TruncatedNormal, TwoStep,
                            Uniform)

STEP_MODELS = [
    ShrunkUniform(0.1), ShrunkUniform(0.22), ShrunkUniform(0.27),
    ShrunkUniform(0.30), GapUniform(0.05), GapUniform(1.0 / 6.0),
    GapUniform(0.34), GapUniform(0.45), TwoStep(0.4), TwoStep(-0.7),
    ThreeStep(0.6), ThreeStep(-0.3),
]

SMOOTH_MODELS = [
    Linear(1.0), Linear(-1.5), QPower(2.0), PieceQuadratic(0.0),
    PieceQuadratic(0.4), AbsSine(), Beta(2, 2), Beta(2, 5),
    TruncatedNormal(0.3, 0.2), SquareCdf(),
]


class TestUniformLaw:
    def test_hand_values(self):
        assert exact.p_uniform_fraction(1) == 0
        assert exact.p_uniform_fraction(2) == Fraction(1, 3)
        assert exact.p_uniform_fraction(3) == Fraction(5, 12)
        assert exact.p_uniform(10) == pytest.approx(4 / 9 - (16 / 9) * 4.0 ** -10)

    def test_increases_toward_limit(self):
        vals = [exact.p_uniform_fraction(n) for n in range(1, 60)]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert vals[-1] < Fraction(4, 9)
        assert Fraction(4, 9) - vals[-1] < Fraction(1, 10 ** 15)

    def test_rejects_empty_sample(self):
        with pytest.raises(ValueError, match="n"):
            exact.p_uniform(0)

    def test_engine_reproduces_uniform_exactly(self):
        for n in (1, 2, 3, 7, 20, 41):
            assert exact.p_exact_rational(Uniform(), n) == exact.p_uniform_fraction(n)


class TestClosedForms:
    @pytest.mark.parametrize("model", [
        m for m in STEP_MODELS if not isinstance(m, ThreeStep)])
    def test_match_exact_engine(self, model):
        for n in (1, 2, 3, 7, 20, 50):
            cf = exact.p_closed_form(model, n)
            en = float(exact.p_exact_rational(model, n))
            assert cf == pytest.approx(en, abs=1e-13)

    def test_shrunk_decreasing_in_delta(self):
        for n in (2, 10, 50):
            vals = [exact.p_closed_form(ShrunkUniform(d), n)
                    for d in np.linspace(0.0, 0.33, 12)]
            assert all(b < a for a, b in zip(vals, vals[1:]))
            assert exact.p_closed_form(ShrunkUniform(0.34), n) == 0.0

    def test_gap_large_delta_is_side_split_law(self):
        # with a gap wider than the covering region, two balls are needed
        # exactly when the sample occupies both sides
        for n in (2, 5, 20):
            expected = 1.0 - 2.0 ** (1 - n)
            assert exact.p_closed_form(GapUniform(0.4), n) == pytest.approx(expected)
            assert exact.p_closed_form(GapUniform(0.49), n) == pytest.approx(expected)
        vals = [exact.p_closed_form(GapUniform(0.4), n) for n in range(2, 51)]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert vals[-1] == pytest.approx(1.0, abs=1e-14)

    def test_gap_small_delta_hand_values(self):
        # n = 2, delta = 1/10: direct geometric computation gives 11/24
        assert exact.p_closed_form(GapUniform(0.1), 2) == pytest.approx(11 / 24)
        # delta = 1/8 is dyadic, so the rational engine sees it exactly
        assert exact.p_exact_rational(GapUniform(0.125), 2) == Fraction(13, 27)

    def test_gap_reduces_to_uniform_at_zero(self):
        for n in (2, 5, 17):
            assert exact.p_closed_form(GapUniform(0.0), n) == pytest.approx(
                exact.p_uniform(n), abs=1e-15)

    def test_two_step_degenerate(self):
        assert exact.p_closed_form(TwoStep(1.0), 5) == 0.0
        assert exact.p_exact_rational(TwoStep(1.0), 5) == 0
        assert exact.p_exact_rational(TwoStep(-1.0), 12) == 0

    def test_all_give_zero_for_single_point(self):
        for model in (Uniform(), ShrunkUniform(0.2), GapUniform(0.1), TwoStep(0.3)):
            assert exact.p_closed_form(model, 1) == 0.0

    def test_unsupported_family_directed_to_quadrature(self):
        with pytest.raises(ValueError, match="quadrature"):
            exact.p_closed_form(Linear(1.0), 5)


class TestExactRational:
    def test_rejects_smooth_families(self):
        with pytest.raises(ValueError, match="piecewise"):
            exact.p_exact_rational(Linear(1.0), 3)

    def test_three_step_spot_values(self):
        # frozen from this engine after it was validated against the four
        # closed-form families, independent quadrature and Monte Carlo
        assert exact.p_exact_rational(ThreeStep(0.5), 2) == Fraction(41, 96)
        assert exact.p_exact_rational(ThreeStep(-0.25), 3) == Fraction(7877, 24576)

    def test_values_are_probabilities(self):
        for model in STEP_MODELS:
            for n in (2, 5, 30):
                v = exact.p_exact_rational(model, n)
                assert 0 <= v <= 1

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 25), st.floats(0.0, 0.99))
    def test_two_step_closed_form_property(self, n, delta):
        cf = exact.p_closed_form(TwoStep(delta), n)
        en = float(exact.p_exact_rational(TwoStep(delta), n))
        assert cf == pytest.approx(en, abs=1e-12)


class TestMultinomialSquareCdf:
    def test_hand_value_n2(self):
        assert exact.p_multinomial_squarecdf(2) == Fraction(35, 162)

    def test_matches_quadrature(self):
        for n in (2, 5, 10, 25, 60):
            mult = float(exact.p_multinomial_squarecdf(n))
            quad = exact.p_quadrature(SquareCdf(), n).value
            assert mult == pytest.approx(quad, abs=1e-9)

    def test_single_point(self):
        assert exact.p_multinomial_squarecdf(1) == 0

    def test_cap(self):
        with pytest.raises(ValueError, match="n <= 60"):
            exact.p_multinomial_squarecdf(61)

    def test_matches_monte_carlo(self):
        mc = exact.p_monte_carlo(SquareCdf(), 5, reps=200000, seed=5)
        assert abs(float(exact.p_multinomial_squarecdf(5)) - mc.value) < 4 * mc.error_estimate


class TestQuadrature:
    @pytest.mark.parametrize("model", STEP_MODELS)
    def test_matches_exact_engine(self, model):
        for n in (2, 5, 10, 25):
            q = exact.p_quadrature(model, n)
            assert q.value == pytest.approx(
                float(exact.p_exact_rational(model, n)), abs=1e-6)

    @pytest.mark.parametrize("model", SMOOTH_MODELS + [ArcSine()])
    def test_matches_monte_carlo(self, model):
        q = exact.p_quadrature(model, 5)
        mc = exact.p_monte_carlo(model, 5, reps=200000, seed=9)
        assert abs(q.value - mc.value) < 4 * mc.error_estimate

    def test_beta_reflection_symmetry(self):
        # the anchors sit symmetrically, so mirroring the density about 1/2
        # cannot change the law
        for n in (2, 10):
            a = exact.p_quadrature(Beta(2, 5), n).value
            b = exact.p_quadrature(Beta(5, 2), n).value
            assert a == pytest.approx(b, abs=1e-8)

    def test_same_density_two_families(self):
        # QPower(2) and PieceQuadratic(0) describe the same density
        for n in (3, 12):
            a = exact.p_quadrature(QPower(2.0), n).value
            b = exact.p_quadrature(PieceQuadratic(0.0), n).value
            assert a == pytest.approx(b, abs=1e-10)

    def test_general_linear_rescales(self):
        wide = GeneralLinear(0.1, (-1.0, 3.0))
        unit = wide.to_unit()
        a = exact.p_quadrature(wide, 7).value
        b = exact.p_quadrature(unit, 7).value
        assert a == pytest.approx(b, abs=1e-12)
        assert unit.params["a"] == pytest.approx(0.1 * 16)

    def test_single_point_short_circuit(self):
        rep = exact.p_quadrature(Beta(2, 2), 1)
        assert rep.value == 0.0 and rep.error_estimate == 0.0

    def test_budget_exhaustion_raises_with_best_estimate(self):
        tight = exact.QuadratureConfig(rel_tol=1e-15, abs_tol=1e-300,
                                       max_subdivisions=16)
        with pytest.raises(exact.QuadratureError, match="max_subdivisions") as info:
            exact.p_quadrature(Beta(2, 2), 10, tight)
        best = info.value.best_estimate
        assert best == pytest.approx(exact.p_quadrature(Beta(2, 2), 10).value,
                                     abs=1e-4)

    def test_large_n_approaches_known_limits(self):
        for model, limit in ((Uniform(), 4 / 9), (Linear(1.0), 3 / 8),
                             (AbsSine(), 16 / 25)):
            q = exact.p_quadrature(model, 2000)
            assert abs(q.value - limit) < 5e-3

    def test_config_validation(self):
        with pytest.raises(ValueError, match="rel_tol"):
            exact.QuadratureConfig(rel_tol=0.0)
        with pytest.raises(ValueError, match="max_subdivisions"):
            exact.QuadratureConfig(max_subdivisions=2)


class TestMonteCarlo:
    def test_deterministic_for_fixed_seed(self):
        a = exact.p_monte_carlo(Uniform(), 4, reps=50000, seed=3)
        b = exact.p_monte_carlo(Uniform(), 4, reps=50000, seed=3)
        assert a.value == b.value

    def test_matches_uniform_law(self):
        mc = exact.p_monte_carlo(Uniform(), 2, reps=300000, seed=4)
        assert abs(mc.value - 1 / 3) < 4 * mc.error_estimate

    def test_rejects_bad_reps(self):
        with pytest.raises(ValueError, match="reps"):
            exact.p_monte_carlo(Uniform(), 3, reps=0)


class TestProbabilityRouting:
    def test_auto_prefers_exact_routes(self):
        assert exact.probability(Uniform(), 5).method == "exact-rational"
        assert exact.probability(ShrunkUniform(0.1), 5).method == "exact-rational"
        assert exact.probability(SquareCdf(), 5).method == "multinomial"
        assert exact.probability(SquareCdf(), 61).method == "quadrature"
        assert exact.probability(Beta(2, 2), 5).method == "quadrature"

    def test_exact_field_carries_fraction(self):
        rep = exact.probability(Uniform(), 2)
        assert rep.exact == Fraction(1, 3)

    def test_explicit_method_validation(self):
        with pytest.raises(ValueError, match="method"):
            exact.probability(Uniform(), 2, method="tea-leaves")
        with pytest.raises(ValueError, match="square_cdf"):
            exact.probability(Uniform(), 2, method="multinomial")

    def test_routes_agree(self):
        for n in (2, 9):
            values = {
                exact.probability(TwoStep(0.4), n, method=m).value
                for m in ("closed-form", "exact-rational", "quadrature")}
            assert max(values) - min(values) < 1e-8


class TestStochasticOrder:
    def test_uniform_is_equal(self):
        assert exact.check_stochastic_order(Uniform()) == "equal"

    def test_shrunk_below(self):
        assert exact.check_stochastic_order(ShrunkUniform(0.2)) == "below-uniform"

    def test_gap_above(self):
        assert exact.check_stochastic_order(GapUniform(0.1)) == "above-uniform"

    def test_grid_override(self):
        verdict = exact.check_stochastic_order(TwoStep(0.6), n_values=(2, 3, 4))
        assert verdict in {"below-uniform", "above-uniform", "equal", "inconclusive"}
