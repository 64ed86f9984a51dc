import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cccd import exact
from cccd.asymptotics import asymptotic_profile, limit_family_formula
from cccd.densities import (_KRONROD15, AbsSine, ArcSine, Beta, GapUniform, GeneralLinear,
                            Linear, PieceQuadratic, QPower, ShrunkUniform,
                            SquareCdf, ThreeStep, TruncatedNormal, TwoStep,
                            Uniform, _PiecewisePolynomial)

STEP_MODELS = [
    ShrunkUniform(0.1), ShrunkUniform(0.22), ShrunkUniform(0.27),
    ShrunkUniform(0.30), GapUniform(0.05), GapUniform(1.0 / 6.0),
    GapUniform(0.34), GapUniform(0.45), TwoStep(0.4), TwoStep(-0.7),
    ThreeStep(0.6), ThreeStep(-0.3),
]

# the non-step families the benchmark's quadrature ops run
LAWS_CATALOG = [
    Linear(1.0), AbsSine(), ArcSine(), Beta(2, 2), Beta(4, 1), TruncatedNormal(0.3, 0.5),
    QPower(2.0), PieceQuadratic(2.0 / 3.0), SquareCdf(),
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

    def test_gap_band_from_a_sixth_is_side_split_law(self):
        # from delta = 1/6 no ball reaches across the gap: the law is exactly 1 - 2^(1-n)
        for d in (0.17, 0.2, 0.25, 0.3, 1.0 / 3.0 - 1e-9):
            for n in (2, 3, 10, 40):
                side_split = 1 - Fraction(2) ** (1 - n)
                assert exact.p_exact_rational(GapUniform(d), n) == side_split
                assert exact.p_closed_form(GapUniform(d), n) == float(side_split)

    def test_gap_closed_form_matches_exact_engine_on_every_delta(self):
        for d in [*np.linspace(0.0, 0.49, 50), 1.0 / 6.0, 1.0 / 3.0]:
            for n in (2, 3, 7, 30, 200):
                cf = exact.p_closed_form(GapUniform(d), n)
                assert cf == pytest.approx(float(exact.p_exact_rational(GapUniform(d), n)), abs=4e-16)

    def test_gap_band_matches_monte_carlo(self):
        for d in (0.2, 0.25, 0.3):
            p = exact.p_closed_form(GapUniform(d), 4)
            mc = exact.p_monte_carlo(GapUniform(d), 4, reps=40_000, seed=3)
            assert abs(mc.value - p) < 4 * mc.error_estimate

    def test_gap_small_delta_hand_values(self):
        # n = 2, delta = 1/10: direct geometric computation gives 11/24
        assert exact.p_closed_form(GapUniform(0.1), 2) == pytest.approx(11 / 24)
        # delta = 1/8 is dyadic, so the rational engine sees it exactly
        assert exact.p_exact_rational(GapUniform(0.125), 2) == Fraction(13, 27)

    def test_gap_reduces_to_uniform_at_zero(self):
        for n in (2, 5, 17):
            assert exact.p_closed_form(GapUniform(0.0), n) == pytest.approx(
                exact.p_uniform(n), abs=1e-15)

    def test_two_step_closed_form_holds_at_every_n(self):
        # (1 + delta)^(n-1) overflowed from n = 1752 at delta = 0.5 before 4^-n went into the powers
        for d in (-1.0, -0.5, 0.0, 0.5, 0.99, 1.0):
            lead = 4.0 * (1.0 - d * d) / (9.0 - d * d)
            for n in (1752, 10 ** 4, 10 ** 6):
                assert exact.p_closed_form(TwoStep(d), n) == lead
        # at |delta| = 1 the formula gives 0.0 at every n with no branch of its own
        for n in (2, 3, 60, 10 ** 6):
            assert exact.p_closed_form(TwoStep(1.0), n) == 0.0 == exact.p_closed_form(TwoStep(-1.0), n)
        for d in (-0.9, 0.5, 0.75):
            for n in (500, 2000):
                en = float(exact.p_exact_rational(TwoStep(d), n))
                assert exact.p_closed_form(TwoStep(d), n) == pytest.approx(en, abs=1e-16)

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


class _ExactThreeStep(_PiecewisePolynomial):
    """ThreeStep(-3/5) with its heights 2/5, 8/5, 2/5 as exact Fractions, which no double delta
    gives: the lower edge then reads heights 4:1, and G is constant along it."""

    family = "three_step_exact"

    def __init__(self):
        super().__init__([0, Fraction(1, 4), Fraction(3, 4), 1],
                         [[Fraction(2, 5)], [Fraction(8, 5)], [Fraction(2, 5)]])


class TestExactRational:
    def test_rejects_smooth_families(self):
        with pytest.raises(ValueError, match="piecewise"):
            exact.p_exact_rational(Linear(1.0), 3)

    def test_rescales_off_the_unit_interval(self):
        for n in (2, 7):
            assert exact.p_exact_rational(GeneralLinear(0.0, (1.0, 3.0)), n) == exact.p_uniform_fraction(n)

    def test_three_step_spot_values(self):
        # frozen from this engine after it was validated against the four
        # closed-form families, independent quadrature and Monte Carlo
        assert exact.p_exact_rational(ThreeStep(0.5), 2) == Fraction(41, 96)
        assert exact.p_exact_rational(ThreeStep(-0.25), 3) == Fraction(7877, 24576)

    def test_constant_lower_edge_matches_quadrature(self):
        # the only model whose lower edge has g1 = 0, the n (s_hi - s_lo) g0^(n-1) term
        config = exact.QuadratureConfig(rel_tol=1e-12)
        for n in (2, 3, 5, 10, 50):
            quad = exact.p_quadrature(_ExactThreeStep(), n, config).value
            assert float(exact.p_exact_rational(_ExactThreeStep(), n)) == pytest.approx(quad, rel=1e-12)

    def test_large_n_matches_closed_forms(self):
        # the closed forms drift by about n ulp, so the bound is relative
        for model in (GapUniform(0.1), ShrunkUniform(0.1), TwoStep(0.4)):
            rational = float(exact.p_exact_rational(model, 3000))
            assert rational == pytest.approx(exact.p_closed_form(model, 3000), rel=1e-12, abs=0)

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


# the step families of the benchmark's laws workload
LAWS_STEPS = [ShrunkUniform(0.1), GapUniform(0.1), GapUniform(0.45), TwoStep(0.5), ThreeStep(0.5)]


class TestWalk:
    @pytest.mark.parametrize("model", STEP_MODELS + LAWS_STEPS, ids=repr)
    def test_working_precision_sum_is_the_exact_value_rounded(self, model):
        # n = 1 is an exact zero, and GapUniform(0.45) at n = 55 is 1 - 2^-54, midway between doubles
        for n in (1, 2, 3, 5, 7, 10, 20, 50, 54, 55, 56, 200, 1000, 3000):
            rep = exact.probability(model, n)
            assert rep.method == "exact-rational"
            assert repr(rep.value) == repr(float(exact.p_exact_rational(model, n)))

    @pytest.mark.parametrize("model", [Uniform(), TwoStep(0.4), GapUniform(0.1), GapUniform(0.45),
                                       ShrunkUniform(0.1)], ids=repr)
    def test_large_n_matches_the_closed_forms(self, model):
        for n in (10**5, 10**9, 10**15):
            rep = exact.probability(model, n)
            closed = exact.p_closed_form(model, n)
            assert (rep.method, rep.exact) == ("exact-rational", None)
            assert abs(rep.value - closed) <= 2 * math.ulp(closed)

    def test_an_empty_walk_is_exactly_zero(self):
        for model in (TwoStep(1.0), TwoStep(-1.0)):
            assert exact._walk(model.to_unit()) == ({}, {})
            assert repr(exact.probability(model, 10**9).value) == "0.0"

    def test_the_limit_is_the_exact_coefficient_of_base_one(self):
        for model, limit in ((Uniform(), Fraction(4, 9)), (TwoStep(0.5), Fraction(12, 35)),
                             (ThreeStep(0.5), Fraction(36, 49)), (ThreeStep(-0.5), Fraction(4, 25))):
            assert exact._walk(model.to_unit())[0][1] == limit

    @pytest.mark.parametrize("model", STEP_MODELS + LAWS_STEPS + [
        Uniform(), TwoStep(-0.3), ThreeStep(-0.5), TwoStep(1.0)], ids=repr)
    def test_limits_are_within_two_ulps_of_the_exact_limit(self, model):
        # no base leaves [-1, 1] and base 1 carries no factor n, so the base-1 coefficient is p_inf
        powers, flat = exact._walk(model.to_unit())
        assert all(-1 <= b <= 1 for b in [*powers, *flat]) and 1 not in flat
        limit = float(powers.get(1, 0))
        for value in (asymptotic_profile(model).p_limit, limit_family_formula(model)):
            assert abs(value - limit) <= 2 * math.ulp(limit)


def multinomial_oracle(top):
    """p_1..p_top for the density 2x by expansion in Fraction coefficients."""
    polys = [(Fraction(1), Fraction(-1, 2), Fraction(-5, 4)),
             (Fraction(1, 16), Fraction(1, 8), Fraction(-15, 16)),
             (Fraction(-1, 4), Fraction(-1, 2), Fraction(15, 4))]
    powers, out = [[Fraction(1)]] * 3, [Fraction(0)]
    third, half = Fraction(1, 3), Fraction(1, 2)

    def moment(q, lo, hi):
        return sum(c * (hi ** (k + 2) - lo ** (k + 2)) / (k + 2) for k, c in enumerate(q))

    for n in range(2, top + 1):
        powers = [[sum(p[j] * q[i - j] for j in range(3) if 0 <= i - j < len(q))
                   for i in range(len(q) + 2)] for p, q in zip(polys, powers)]
        q1, q2, q3 = powers
        out.append(Fraction(8 * n, 5) * (moment(q1, 0, third) - moment(q2, 0, third)
                                         + moment(q1, third, half) - moment(q3, third, half)))
    return out


class TestMultinomialSquareCdf:
    def test_hand_value_n2(self):
        assert exact.p_multinomial_squarecdf(2) == Fraction(35, 162)

    def test_integer_route_equals_fraction_expansion(self):
        top = exact.MULTINOMIAL_MAX_N
        assert [exact.p_multinomial_squarecdf(n) for n in range(1, top + 1)] == multinomial_oracle(top)

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

    def test_budget_exhaustion_raises_with_best_estimate(self, monkeypatch):
        # 36 seed panels already exceed the budget, and their error of
        # 1.25e-12 is above the 1e-12 floor
        monkeypatch.setattr(exact, "MAX_PANELS", 16)
        tight = exact.QuadratureConfig(rel_tol=1e-15)
        with pytest.raises(exact.QuadratureError, match="loosen rel_tol") as info:
            exact.p_quadrature(Beta(2, 2), 10, tight)
        assert info.value.error_estimate > 1e-12
        best = info.value.best_estimate
        assert best == pytest.approx(exact.p_quadrature(Beta(2, 2), 10).value,
                                     abs=1e-4)
        assert info.value.panels == 36
        assert "stopped at 36 panels" in str(info.value)

    @pytest.mark.parametrize("model, n, rel_tol, value, error, panels", [
        (ArcSine(), 10, 1e-10, "0x1.9b09d5759aafbp-1", "0x1.68a3073bb0000p-39", 36),
        (ThreeStep(0.6), 10_000, 1e-12, "0x1.948b0fcd6df8fp-1", "0x1.1127778ba9053p-41", 330),
        (QPower(2.0), 1_000_000, 1e-10, "0x1.2f6848e7e9e49p-1", "0x1.1e9bed7ae2eb0p-35", 334),
        (Linear(1.0), 10, 1e-10, "0x1.93a422031b820p-2", "0x1.d979978000000p-47", 36),
        (AbsSine(), 1000, 1e-8, "0x1.479336c035cfep-1", "0x1.78be00d34aae8p-29", 153),
        (PieceQuadratic(2.0 / 3.0), 1_000_000, 1e-8,
         "0x1.c71c6d01aae82p-2", "0x1.147a7c3e68996p-30", 226),
        (Beta(4, 1), 50, 1e-8, "0x1.3dfd5132933eap-7", "0x1.edc44657af94ap-35", 61),
        (TruncatedNormal(0.3, 0.5), 1000, 1e-10,
         "0x1.2844a6627cfd7p-2", "0x1.07fbafcdf5b88p-36", 186),
        (TwoStep(0.5), 10, 1e-8, "0x1.5f0e40fffffffp-2", "0x1.8aa7040000000p-53", 36),
        (ArcSine(), 10, 1e-8, "0x1.9b09d5759aafbp-1", "0x1.68a3073bb0000p-39", 36),
    ], ids=["arc_sine", "three_step", "q_power", "linear", "abs_sine", "piece_quadratic",
            "beta41", "truncated_normal", "two_step", "arc_sine_loose"])
    def test_refinement_is_pinned(self, model, n, rel_tol, value, error, panels):
        # refinement order and the order of every float operation in the
        # integrand decide each bit of the sum; these pins hold both
        rep = exact.p_quadrature(model, n, exact.QuadratureConfig(rel_tol=rel_tol))
        assert (rep.value.hex(), rep.error_estimate.hex(), rep.panels) == (value, error, panels)

    @pytest.mark.parametrize("rel_tol", [1e-8, 1e-10])
    @pytest.mark.parametrize("model, n, reference", [
        pytest.param(model, n, reference, id=f"{model!r}-{n}")
        for model, ns, reference in (
            *[(model, (2, 3, 5, 10, 25, 100, 400), exact.p_exact_rational)
              for model in (Uniform(), ShrunkUniform(0.1), GapUniform(0.1), GapUniform(0.45),
                            TwoStep(0.4), TwoStep(-0.7), ThreeStep(0.6), ThreeStep(-0.3))],
            (SquareCdf(), (2, 3, 5, 10, 25, 60),
             lambda model, n: exact.p_multinomial_squarecdf(n)),
            (Uniform(), (10**3, 10**4, 10**6), lambda model, n: exact.p_uniform_fraction(n)))
        for n in ns])
    def test_tolerance_is_met_against_exact_values(self, model, n, reference, rel_tol):
        # the refinement stops on its own error estimate; the exact routes
        # check that the estimate does not undercount the true error
        want = float(reference(model, n))
        rep = exact.p_quadrature(model, n, exact.QuadratureConfig(rel_tol=rel_tol))
        assert abs(rep.value - want) <= max(1e-12, rel_tol * abs(want))

    @pytest.mark.parametrize("rel_tol", [1e-8, 1e-10, 1e-12])
    @pytest.mark.parametrize("n, reference", [
        (2, 0.4177086300540679), (3, 0.5797493683123304),
        (5, 0.7004601724551795), (10, 0.8028094011363856)])
    def test_arc_sine_converges_in_a_few_panels(self, n, reference, rel_tol):
        # references: mpmath at 30 digits, nested tanh-sinh in (u, w) = (F(s), F(t))
        # with u split at F(1/3); the panel cap guards against the stall at the
        # square-root edge of F(2s) at s = 1/2 coming back
        rep = exact.p_quadrature(ArcSine(), n, exact.QuadratureConfig(rel_tol=rel_tol))
        assert rep.panels <= 64
        assert abs(rep.value - reference) <= 1e-14 * reference

    @pytest.mark.parametrize("model", LAWS_CATALOG, ids=repr)
    def test_skipped_seed_panels_are_zero_at_every_node(self, model):
        # the quadrature skips the seed panels whose ceiling on G makes G^(n-2)
        # underflow; evaluated anyway, each rect and edge panel must be exactly 0
        # at all 225 nodes
        for n in (3, 10**3, 10**4, 10**6):
            fun, rects, kind, dead = exact._seed_panels(model, n)
            vals, row, col = fun(rects, kind)
            nodes = vals * row[:, :, None] * col[:, None, :]
            assert not np.any(nodes[dead])
            if n == 3:
                assert not dead.any()
            if n >= 10**4:   # the check is not vacuous for either kind
                assert dead[kind == 0].any() and dead[kind > 0].any()

    @pytest.mark.parametrize("n", [10**3, 10**4, 10**6])
    @pytest.mark.parametrize("model", LAWS_CATALOG, ids=repr)
    def test_edge_seed_ceilings_bound_G_at_every_node(self, model, n):
        # the ceiling of an edge panel takes s at a and t at the top of the sliver
        # over b; G at each of its 225 nodes must stay below it.  A ceiling on a
        # degenerate panel (x, x, ., y) is G at the node (x, y) itself
        _, rects, kind, _ = exact._seed_panels(model, n)
        ceiling = exact._make_integrand(model, n)[1]
        edge = kind > 0
        rects, kind = rects[edge], kind[edge]
        x, y = exact._nodes(rects[:, 0], rects[:, 1]), exact._nodes(rects[:, 2], rects[:, 3])
        x, y = np.broadcast_arrays(x[:, :, None], y[:, None, :])
        nodes = np.stack([x, x, y, y], axis=-1).reshape(-1, 4)
        G = ceiling(nodes, np.repeat(kind, x[0].size)).reshape(x.shape)
        assert np.all(G <= ceiling(rects, kind)[:, None, None] + 1e-12)

    def test_arc_sine_makes_no_empty_evaluator_calls(self):
        # at large n every edge seed panel is dead, and no evaluator runs on an empty array
        sizes = []

        class Counting(ArcSine):
            def quantile(self, u):
                sizes.append(np.size(u))
                return super().quantile(u)

            def cdf(self, x):
                sizes.append(np.size(x))
                return super().cdf(x)

        config = exact.QuadratureConfig(rel_tol=1e-10)
        rep = exact.p_quadrature(Counting(), 10**6, config)
        assert sizes and 0 not in sizes
        want = exact.p_quadrature(ArcSine(), 10**6, config)
        assert (rep.value, rep.error_estimate, rep.panels) == (want.value, want.error_estimate,
                                                               want.panels)

    @pytest.mark.parametrize("n", [3, 10**3, 10**6])
    @pytest.mark.parametrize("model", LAWS_CATALOG, ids=repr)
    def test_rect_panel_sums_equal_pointwise_evaluation(self, model, n):
        # on a rect panel inside Q = [0, 1/3] x [2/3, 1] the integrand is assembled
        # from factors of one coordinate each; its Kronrod and Gauss sums must equal
        # those of n (n-1) f(s) f(t) G^(n-2) evaluated node by node on the 15 x 15
        # grid, in (z, w) = (outer, F(t)) coordinates for the arc-sine; G^(n-2) is
        # exp((n-2) log G) on both sides, as pow rounds differently by up to ~1e-13
        # where it nears underflow
        fun, rects, kind, dead = exact._seed_panels(model, n)
        rect = rects[(kind == 0) & ~dead]
        assert len(rect) >= 4
        fine, coarse = exact._evaluate_panels(fun, rect, np.zeros(len(rect), dtype=int))
        nodes, kronrod, gauss = _KRONROD15
        x, y = ((0.5 * (rect[:, hi] + rect[:, lo]))[:, None]
                + (0.5 * (rect[:, hi] - rect[:, lo]))[:, None] * nodes for lo, hi in ((0, 1), (2, 3)))
        if model.unbounded:
            top = model.cdf(0.5)
            u = top * x * (2.0 - x)
            B = u + model.cdf(0.5 * (1.0 + model.quantile(u)))
            A = y + model.cdf(0.5 * model.quantile(y))
            density = (2.0 * top * (1.0 - x))[:, :, None]
        else:
            B = model.cdf(x) + model.cdf(0.5 * (1.0 + x))
            A = model.cdf(y) + model.cdf(0.5 * y)
            density = model.pdf(x)[:, :, None] * model.pdf(y)[:, None, :]
        G = A[:, None, :] - B[:, :, None]
        point = n * (n - 1) * density * np.exp((n - 2) * np.log(G))
        area = 0.25 * (rect[:, 1] - rect[:, 0]) * (rect[:, 3] - rect[:, 2])
        want_fine = np.einsum("pij,i,j->p", point, kronrod, kronrod) * area
        want_coarse = np.einsum("pij,i,j->p", point[:, 1::2, 1::2], gauss, gauss) * area
        np.testing.assert_allclose(fine, want_fine, rtol=1e-14, atol=0.0)
        np.testing.assert_allclose(coarse, want_coarse, rtol=1e-14, atol=0.0)

    def test_large_n_approaches_known_limits(self):
        for model, limit in ((Uniform(), 4 / 9), (Linear(1.0), 3 / 8),
                             (AbsSine(), 16 / 25)):
            q = exact.p_quadrature(model, 2000)
            assert abs(q.value - limit) < 5e-3

    @pytest.mark.parametrize("delta", [0.45, 0.2])
    def test_value_near_one_is_clipped_into_the_unit_interval(self, delta):
        # the unclipped sums land about 1e-11 above 1, inside the error estimate
        q = exact.p_quadrature(GapUniform(delta), 20_000)
        assert q.value <= 1.0
        assert abs(q.value - exact.p_closed_form(GapUniform(delta), 20_000)) <= q.error_estimate

    def test_config_validation(self):
        for rel_tol in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="rel_tol"):
                exact.QuadratureConfig(rel_tol=rel_tol)


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
        # every piece of these has degree 0: they are uniform, and their law is exact
        for model in (Linear(0.0), PieceQuadratic(1.0), GeneralLinear(0.0, (0.0, 2.0))):
            for n in (2, 5, 30):
                rep = exact.probability(model, n)
                assert (rep.method, rep.exact) == ("exact-rational", exact.p_uniform_fraction(n))

    @pytest.mark.parametrize("model", [Linear(2.0), Linear(-2.0), GeneralLinear(0.5, (0.0, 2.0)),
                                       GeneralLinear(-2.0 / 9.0, (1.0, 4.0))], ids=repr)
    def test_every_linear_density_of_slope_two_takes_the_multinomial_route(self, model):
        # gamma does not change under x -> 1 - x, so the slope -2 has the law of 2x
        for n in (2, 10, 60):
            rep = exact.probability(model, n)
            assert (rep.method, rep.exact) == ("multinomial", exact.p_multinomial_squarecdf(n))
            quad = exact.probability(model, n, method="quadrature", config=exact.QuadratureConfig(1e-12))
            assert quad.value == pytest.approx(rep.value, abs=1e-12)

    def test_auto_keeps_the_rational_route_past_its_cap(self):
        # past the cap the report carries no Fraction, but the value is still the exact p_n rounded
        top = exact.EXACT_RATIONAL_MAX_N
        rep = exact.probability(Uniform(), top)
        assert (rep.method, rep.exact) == ("exact-rational", exact.p_uniform_fraction(top))
        for model in (Uniform(), TwoStep(0.5)):
            rep = exact.probability(model, top + 1)
            assert rep.method == "exact-rational" and rep.exact is None
            assert rep.value == float(exact.p_exact_rational(model, top + 1))

    def test_quadrature_refuses_n_past_its_cap(self):
        # G^(n-2) with G rounded near 1: at 4e15 the uniform "converged" to 0.48 and at 1e17 to 61.6
        top = exact.QUADRATURE_MAX_N
        assert exact.probability(Uniform(), top, method="quadrature").method == "quadrature"
        for n in (top + 1, 4 * 10**15, 10**26):
            with pytest.raises(ValueError, match="quadrature resolves"):
                exact.probability(Uniform(), n, method="quadrature")

    def test_quadrature_refuses_unbounded_densities_past_their_cap(self):
        # the arc-sine's (1 - p_n) n tends to pi: 2.63 at the cap, 7.72 at 3e8, 27.9 at 1e9
        top = exact.UNBOUNDED_QUADRATURE_MAX_N
        assert exact.quadrature_max_n(ArcSine()) == top < exact.quadrature_max_n(Beta(2, 2))
        assert (1.0 - exact.probability(ArcSine(), top).value) * top == pytest.approx(2.63, abs=0.01)
        for n in (top + 1, 3 * 10 ** 9):
            with pytest.raises(ValueError, match="quadrature resolves arc_sine only up to"):
                exact.probability(ArcSine(), n)
            with pytest.raises(ValueError, match="quadrature resolves"):
                exact.p_quadrature(ArcSine(), n)

    def test_exact_field_carries_fraction(self):
        rep = exact.probability(Uniform(), 2)
        assert rep.exact == Fraction(1, 3)

    def test_explicit_method_validation(self):
        # only auto and quadrature are routes of probability; the rest are called by name
        for method in ("closed-form", "exact-rational", "multinomial", "monte-carlo",
                       "tea-leaves"):
            with pytest.raises(ValueError, match="method"):
                exact.probability(Uniform(), 2, method=method)

    def test_routes_agree(self):
        for n in (2, 9):
            values = {exact.p_closed_form(TwoStep(0.4), n),
                      float(exact.p_exact_rational(TwoStep(0.4), n)),
                      exact.probability(TwoStep(0.4), n, method="quadrature").value}
            assert max(values) - min(values) < 1e-8

