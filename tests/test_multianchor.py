"""Tests for the multi-anchor domination-number machinery."""

import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from scipy import integrate

from cccd import digraph, multianchor
from cccd.densities import ArcSine, GeneralLinear, TwoStep, Uniform
from cccd.exact import p_uniform_fraction, probability
from cccd.multianchor import (
    AnchorConditional,
    asymptotic_law_fixed_m,
    conditional_on_anchors,
    expected_gamma,
    expected_gamma_hu,
    gamma_growth_check,
    pmf_conditional,
    pmf_conditional_table,
    pmf_random_anchors,
    pmf_random_anchors_table,
    _pair_probs,
    _pmf_vector,
)
from cccd.simulate import _stream


def compositions(total, parts, values=None):
    """Every tuple of ``parts`` entries from ``values`` (default 0..total) summing to ``total``."""
    values = range(total + 1) if values is None else values
    return [c for c in product(values, repeat=parts) if sum(c) == total]


def end_cell_weight(k, t):
    return 1.0 if (t == k == 0) or (t >= 1 and k == 1) else 0.0


def middle_cell_weight(k, t, p_vec):
    if t == k == 0:
        return 1.0
    if t >= k >= 1:
        return p_vec[t] if k == 2 else 1.0 - p_vec[t]
    return 0.0


def reference_pmf(cell_probs, p_vec, n, k):
    """Literal composition sum over cell counts and per-cell contributions."""
    cells = len(cell_probs)
    total = 0.0
    for nv in compositions(n, cells):
        weight = math.factorial(n)
        for t, p in zip(nv, cell_probs):
            weight *= p ** t / math.factorial(t)
        for kv in compositions(k, cells, range(3)):
            w = end_cell_weight(kv[0], nv[0]) * end_cell_weight(kv[-1], nv[-1])
            for j in range(1, cells - 1):
                w *= middle_cell_weight(kv[j], nv[j], p_vec)
            total += weight * w
    return total


def exact_uniform_anchor_pmf(n, m):
    """Exact pmf under uniform points and anchors, as Fractions.

    Every cell-count vector has the same probability, and given the counts the
    cells contribute independently: an occupied end cell 1, a middle cell with
    t points 1 or 2 with p_t deciding.
    """
    weight = Fraction(1, math.comb(n + m, n))
    p = [Fraction(0)] + [p_uniform_fraction(t) for t in range(1, n + 1)]
    pmf = [Fraction(0)] * (2 * m + 1)
    for counts in compositions(n, m + 1):
        law = {0: Fraction(1)}
        for j, t in enumerate(counts):
            if t == 0:
                cell = {0: Fraction(1)}
            elif j in (0, m):
                cell = {1: Fraction(1)}
            else:
                cell = {1: 1 - p[t], 2: p[t]}
            convolved = {}
            for k, a in law.items():
                for c, b in cell.items():
                    convolved[k + c] = convolved.get(k + c, 0) + a * b
            law = convolved
        for k, prob in law.items():
            pmf[k] += weight * prob
    return pmf


class TestAnchorConditional:
    def test_uniform_cells(self):
        cond = conditional_on_anchors(Uniform(), [1 / 3, 2 / 3])
        assert cond.anchors == (1 / 3, 2 / 3)
        assert cond.cell_probs == pytest.approx([1 / 3, 1 / 3, 1 / 3])
        assert cond.cell_model == Uniform()

    def test_anchors_are_sorted_and_unique(self):
        cond = conditional_on_anchors(Uniform(), [0.7, 0.2])
        assert cond.anchors == (0.2, 0.7)
        with pytest.raises(ValueError, match="duplicate"):
            conditional_on_anchors(Uniform(), [0.4, 0.4])

    def test_anchor_inside_open_support(self):
        with pytest.raises(ValueError, match="outside the open support"):
            conditional_on_anchors(Uniform(), [0.0, 0.5])

    def test_non_uniform_needs_the_rescaled_construction(self):
        with pytest.raises(ValueError, match="hu_family"):
            conditional_on_anchors(TwoStep(0.4), [0.5])
        cond = conditional_on_anchors(TwoStep(0.4), [0.25, 0.5], hu_family=True)
        assert cond.cell_probs == pytest.approx([0.25, 0.25, 0.5])
        assert cond.cell_model.family == "two_step"

    def test_direct_construction_validation(self):
        with pytest.raises(ValueError, match="cell masses sum"):
            AnchorConditional((0.5,), (0.4, 0.4), Uniform())
        with pytest.raises(ValueError, match="strictly increasing"):
            AnchorConditional((0.6, 0.3), (0.3, 0.3, 0.4), Uniform())


class TestPmfConditional:
    def test_single_point_is_always_one(self):
        cond = conditional_on_anchors(Uniform(), [1 / 3, 2 / 3])
        assert pmf_conditional(cond, 1, 1) == pytest.approx(1.0, abs=1e-12)
        assert pmf_conditional(cond, 1, 0) == 0.0
        assert pmf_conditional(cond, 1, 2) == 0.0

    def test_median_anchor_splits_evenly(self):
        cond = conditional_on_anchors(Uniform(), [0.5])
        assert pmf_conditional(cond, 2, 1) == pytest.approx(0.5)
        assert pmf_conditional(cond, 2, 2) == pytest.approx(0.5)

    def test_normalization(self):
        for n, anchors in ((4, [0.3, 0.7]), (3, [0.2, 0.55, 0.8]),
                           (6, [0.25, 0.5, 0.75]), (8, [0.1, 0.35, 0.6, 0.9])):
            table = pmf_conditional_table(conditional_on_anchors(Uniform(), anchors), n)
            assert table.sum() == pytest.approx(1.0, abs=1e-9)

    def test_support_of_the_pmf(self):
        cond = conditional_on_anchors(Uniform(), [0.3, 0.7])
        n = 4
        table = pmf_conditional_table(cond, n)
        assert table[0] == 0.0
        assert table[1:].sum() == pytest.approx(1.0, abs=1e-12)
        assert len(table) == 2 * 2 + 1
        assert pmf_conditional(cond, n, 99) == 0.0
        assert pmf_conditional(cond, n, -1) == 0.0

    def test_matches_literal_composition_sum(self):
        uniform_p = [0.0] + [float(p_uniform_fraction(t)) for t in range(1, 9)]
        for n, anchors in ((4, [0.3, 0.7]), (3, [0.2, 0.55, 0.8]),
                           (5, [0.2, 0.55, 0.8]), (6, [0.5])):
            cond = conditional_on_anchors(Uniform(), anchors)
            m = len(anchors)
            for k in range(0, 2 * m + 1):
                want = reference_pmf(cond.cell_probs, uniform_p, n, k)
                assert pmf_conditional(cond, n, k) == pytest.approx(want, abs=1e-12), (n, m, k)

    def test_rescaled_cells_use_their_own_pair_probability(self):
        model = TwoStep(0.4)
        cond = conditional_on_anchors(model, [0.3, 0.6], hu_family=True)
        p_vec = [probability(model, t).value if t >= 2 else 0.0 for t in range(4)]
        for k in range(0, 5):
            want = reference_pmf(cond.cell_probs, p_vec, 3, k)
            assert pmf_conditional(cond, 3, k) == pytest.approx(want, abs=1e-12)

    def test_matches_monte_carlo(self):
        anchors = np.array([0.3, 0.7])
        n, reps = 4, 1_000_000
        rng = np.random.default_rng(11)
        xs = np.sort(rng.random((reps, n)), axis=1)
        counts = np.bincount(digraph._cell_gammas(xs, anchors)[0].sum(axis=1), minlength=6)
        table = pmf_conditional_table(conditional_on_anchors(Uniform(), list(anchors)), n)
        for k, p in enumerate(table):
            sigma = math.sqrt(max(p * (1 - p), 1e-12) / reps)
            assert abs(counts[k] / reps - p) < 4 * sigma + 1e-9, k

    def test_enumeration_cap(self):
        cond = conditional_on_anchors(Uniform(), [0.5])
        with pytest.raises(ValueError, match="Monte Carlo"):
            pmf_conditional_table(cond, 24)


class TestBatchedCellProgram:
    def test_rows_match_literal_composition_sum(self):
        n = 5
        p_vec = np.array([probability(TwoStep(0.4), t).value if t >= 2 else 0.0
                          for t in range(n + 1)])
        rows = np.array([
            [0.1, 0.2, 0.3, 0.4],
            [0.25, 0.0, 0.5, 0.25],   # empty middle cell
            [0.4, 0.6, 0.0, 0.0],     # zero tail
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
            [0.0, 1.0, 0.0, 0.0],
            [0.0, 0.5, 0.5, 0.0],
        ])
        got = _pmf_vector(rows, p_vec, n)
        assert got.shape == (len(rows), 7)
        for row, table in zip(rows, got):
            for k in range(7):
                want = reference_pmf(row, p_vec, n, k)
                assert table[k] == pytest.approx(want, abs=1e-12), (row, k)

    def test_monte_carlo_anchors_match_the_per_row_sum(self):
        n, m, reps, seed = 6, 3, 1100, 9  # more draws than one batch holds
        table = pmf_random_anchors_table(Uniform(), Uniform(), n, m, mc_reps=reps, seed=seed)
        again = pmf_random_anchors_table(Uniform(), Uniform(), n, m, mc_reps=reps, seed=seed)
        assert np.array_equal(table, again)
        ys = np.sort(Uniform().quantile(_stream(seed, 0).random((reps, m))), axis=1)
        p_pair = _pair_probs(Uniform(), n)
        rows = [_pmf_vector([np.diff(y, prepend=0.0, append=1.0)], p_pair, n)[0] for y in ys]
        want = np.array([math.fsum(column) / reps for column in zip(*rows)])
        assert np.max(np.abs(table - want)) <= 1e-15


class TestUniformCompositionProbability:
    def test_simplex_integral_spot_check(self):
        # three uniform points, two uniform anchors, one point per cell
        def integrand(b, a):
            return 6.0 * 2.0 * a * (b - a) * (1.0 - b)

        val, _ = integrate.dblquad(integrand, 0.0, 1.0, lambda a: a, 1.0)
        assert val == pytest.approx(1 / math.comb(5, 3), abs=1e-10)


class TestPmfRandomAnchors:
    def test_one_point_one_anchor(self):
        assert pmf_random_anchors(Uniform(), Uniform(), 1, 1, 1) == pytest.approx(1.0, abs=1e-12)

    def test_two_points_one_anchor(self):
        got = pmf_random_anchors(Uniform(), Uniform(), 2, 1, 2)
        assert got == pytest.approx(1.0 / 3.0, abs=1e-9)

    def test_normalization(self):
        table = pmf_random_anchors_table(Uniform(), Uniform(), 4, 2)
        assert table.sum() == pytest.approx(1.0, abs=1e-9)
        assert table[0] == 0.0

    def test_uniform_anchors_match_the_exact_composition_law(self):
        for n, m in ((4, 2), (8, 2), (5, 3)):
            want = [float(v) for v in exact_uniform_anchor_pmf(n, m)]
            got = pmf_random_anchors_table(Uniform(), Uniform(), n, m)
            assert np.max(np.abs(got - want)) <= 1e-12, (n, m)

    def test_jumping_anchor_density_normalizes(self):
        # the quadrature splits at the density's jump, where the integrand has a kink
        model = TwoStep(0.5)
        for n, m in ((4, 2), (6, 3)):
            table = pmf_random_anchors_table(model, model, n, m, hu_family=True)
            assert table.sum() == pytest.approx(1.0, abs=1e-12), (n, m)

    def test_quadrature_that_loses_mass_raises(self):
        # arc-sine anchors diverge at both ends, where Gauss nodes miss mass
        for n, m in ((4, 2), (3, 1)):
            with pytest.raises(ValueError, match="lost mass 0.0[23].*mc_reps"):
                pmf_random_anchors_table(Uniform(), ArcSine(), n, m)
        table = pmf_random_anchors_table(Uniform(), ArcSine(), 4, 2, mc_reps=2000)
        assert table.sum() == pytest.approx(1.0, abs=1e-12)

    def test_dimension_guard(self):
        with pytest.raises(ValueError, match="m <= 3"):
            pmf_random_anchors(Uniform(), Uniform(), 2, 4, 3)

    def test_monte_carlo_path(self):
        got = pmf_random_anchors(Uniform(), Uniform(), 2, 1, 2, mc_reps=4000, seed=5)
        sigma = math.sqrt((1 / 3) * (2 / 3) / 4000)
        assert abs(got - 1.0 / 3.0) < 4 * sigma
        again = pmf_random_anchors(Uniform(), Uniform(), 2, 1, 2, mc_reps=4000, seed=5)
        assert got == again
        table = pmf_random_anchors_table(Uniform(), Uniform(), 3, 4, mc_reps=500)
        assert table.sum() == pytest.approx(1.0, abs=1e-9)

    def test_support_mismatch(self):
        with pytest.raises(ValueError, match="support"):
            pmf_random_anchors(GeneralLinear(0.05, (-1.0, 3.0)), Uniform(), 2, 1, 2)


class TestExpectedGamma:
    def test_hand_values(self):
        assert expected_gamma(Uniform(), Uniform(), 1, 1) == pytest.approx(1.0, abs=1e-9)
        assert expected_gamma(Uniform(), Uniform(), 2, 1) == pytest.approx(4.0 / 3.0, abs=1e-9)
        assert expected_gamma(Uniform(), Uniform(), 2, 2) == pytest.approx(14.0 / 9.0, abs=1e-6)

    def test_matches_closed_form_for_uniform(self):
        for n, m in ((2, 2), (3, 2), (3, 3)):
            p_table = [p_uniform_fraction(i) for i in range(1, n + 1)]
            want = float(expected_gamma_hu(n, m, p_table))
            assert expected_gamma(Uniform(), Uniform(), n, m) == pytest.approx(want, abs=1e-9)

    def test_consistent_with_pmf_mean(self):
        for n, m in ((2, 2), (3, 2)):
            table = pmf_random_anchors_table(Uniform(), Uniform(), n, m)
            mean = float(np.arange(len(table)) @ table)
            assert expected_gamma(Uniform(), Uniform(), n, m) == pytest.approx(mean, abs=1e-6)

    def test_jumping_anchor_density_matches_the_pmf_mean(self):
        model = TwoStep(0.5)
        for n, m in ((4, 2), (6, 3)):
            table = pmf_random_anchors_table(model, model, n, m, hu_family=True)
            mean = float(np.arange(len(table)) @ table)
            got = expected_gamma(model, model, n, m, hu_family=True)
            assert got == pytest.approx(mean, abs=1e-9), (n, m)

    def test_quadrature_that_loses_mass_raises(self):
        # the order-statistic densities of arc-sine anchors diverge at the ends
        for n, m in ((4, 2), (3, 1), (6, 3)):
            with pytest.raises(ValueError, match="lost mass"):
                expected_gamma(Uniform(), ArcSine(), n, m)

    def test_rescaled_cells_change_the_mean(self):
        model = TwoStep(0.4)
        p_table = [0.0, probability(model, 2).value]
        want = float(expected_gamma_hu(2, 2, p_table))
        got = expected_gamma(model, Uniform(), 2, 2, hu_family=True)
        assert got == pytest.approx(want, abs=1e-9)
        with pytest.raises(ValueError, match="hu_family"):
            expected_gamma(model, Uniform(), 2, 2)


class TestPairProbabilityMemo:
    def test_each_pair_probability_is_computed_once(self, monkeypatch):
        multianchor._pair_prob.cache_clear()
        calls = []

        def counting(model, t):
            calls.append((model, t))
            return probability(model, t)

        monkeypatch.setattr(multianchor, "probability", counting)
        n = 7
        # GeneralLinear rescales to a fresh Linear on every call
        for model, anchors in ((Uniform(), [0.25, 0.5, 0.75]),
                               (GeneralLinear(0.05, (-1.0, 3.0)), [0.0, 1.0])):
            calls.clear()
            cond = conditional_on_anchors(model, anchors, hu_family=True)
            first = pmf_conditional_table(cond, n)
            assert np.array_equal(pmf_conditional_table(cond, n), first)
            expected_gamma(model, model, n, 2, hu_family=True)
            assert len(calls) == n - 1, model
        calls.clear()
        pmf_random_anchors_table(Uniform(), Uniform(), n, 1)
        assert calls == []


class TestExpectedGammaHu:
    def test_exact_values(self):
        assert expected_gamma_hu(2, 1, [Fraction(0), Fraction(1, 3)]) == Fraction(4, 3)
        assert expected_gamma_hu(2, 2, [Fraction(0), Fraction(1, 3)]) == Fraction(14, 9)
        table3 = [p_uniform_fraction(i) for i in range(1, 4)]
        assert expected_gamma_hu(3, 2, table3) == Fraction(229, 120)
        assert expected_gamma_hu(3, 3, table3) == Fraction(257, 120)

    def test_large_counts_switch_to_log_gamma(self):
        def reference(n, m, p_table):
            base = 2.0 * n / (n + m)
            log_coef = math.lgamma(n + 1) - math.lgamma(n + m + 1) + math.log(m * (m - 1))
            acc = sum(math.exp(log_coef + math.lgamma(n + m - i) - math.lgamma(n - i + 1))
                      * (1.0 + float(p)) for i, p in enumerate(p_table, start=1))
            return base + acc

        small = [p_uniform_fraction(i) for i in range(1, 161)]
        exact = expected_gamma_hu(160, 2, small)
        assert isinstance(exact, Fraction)
        assert reference(160, 2, small) == pytest.approx(float(exact), abs=1e-9)
        big = [p_uniform_fraction(i) for i in range(1, 181)]
        assert expected_gamma_hu(180, 2, big) == pytest.approx(reference(180, 2, big), abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError, match="p_table"):
            expected_gamma_hu(3, 2, [0.0])
        with pytest.raises(ValueError, match="0, 1"):
            expected_gamma_hu(2, 2, [0.0, 1.5])
        with pytest.raises(ValueError, match="n, m"):
            expected_gamma_hu(0, 2, [])


class TestAsymptoticLawFixedM:
    def test_single_anchor_is_degenerate(self):
        assert asymptotic_law_fixed_m([], 1) == {2: 1.0}

    def test_three_anchors_uniform_cells(self):
        law = asymptotic_law_fixed_m([4 / 9, 4 / 9], 3)
        assert set(law) == {4, 5, 6}
        assert law[4] == pytest.approx(25 / 81, abs=1e-15)
        assert law[5] == pytest.approx(40 / 81, abs=1e-15)
        assert law[6] == pytest.approx(16 / 81, abs=1e-15)

    def test_heterogeneous_cells(self):
        law = asymptotic_law_fixed_m([0.2, 0.7], 3)
        assert law[4] == pytest.approx(0.8 * 0.3)
        assert law[5] == pytest.approx(0.8 * 0.7 + 0.2 * 0.3)
        assert law[6] == pytest.approx(0.2 * 0.7)
        assert sum(law.values()) == pytest.approx(1.0, abs=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError, match="m - 1"):
            asymptotic_law_fixed_m([0.5], 1)
        with pytest.raises(ValueError, match="0, 1"):
            asymptotic_law_fixed_m([1.5], 2)

    def test_finite_sample_pmf_approaches_the_law(self):
        cond = conditional_on_anchors(Uniform(), [1 / 3, 2 / 3])
        table = pmf_conditional_table(cond, 22)
        law = asymptotic_law_fixed_m([4 / 9], 2)
        assert table[3] == pytest.approx(law[3], abs=0.01)
        assert table[4] == pytest.approx(law[4], abs=0.01)

    def test_many_anchors_isolate_every_point(self):
        rng = np.random.default_rng(3)
        xs = np.sort(rng.random((2000, 5)), axis=1)
        ys = np.sort(rng.random((2000, 500)), axis=1)
        assert (digraph._cell_gammas(xs, ys)[0].sum(axis=1) == 5).mean() >= 0.95


class TestGammaRows:
    def test_matches_the_digraph_core(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            n = int(rng.integers(1, 9))
            m = int(rng.integers(1, 6))
            xs = np.sort(rng.random(n))
            ys = np.sort(rng.random(m))
            got = digraph._cell_gammas(xs[None, :], ys[None, :])[0].sum()
            want = digraph.domination_number_fast(digraph.CccdInstance(xs, ys)).total
            assert got == want


class TestGammaGrowth:
    def test_means_grow_and_stay_linear(self):
        report = gamma_growth_check((5, 10, 20, 40), reps=4000, seed=1)
        assert report.strictly_increasing
        assert report.linear_bound_met
        assert report.means[-1] >= 20.0

    def test_single_point_mean_is_exact(self):
        report = gamma_growth_check((1,), reps=500, seed=2)
        assert report.means == (1.0,)

    def test_deterministic(self):
        a = gamma_growth_check((3, 6), reps=300, seed=9)
        b = gamma_growth_check((3, 6), reps=300, seed=9)
        assert a == b

    def test_validation(self):
        with pytest.raises(ValueError, match="n_grid"):
            gamma_growth_check(())
        with pytest.raises(ValueError, match="reps"):
            gamma_growth_check((2,), reps=0)
