"""Tests for the multi-anchor domination-number machinery."""

import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from scipy import integrate

from cccd import digraph, multianchor
from cccd.densities import (
    AbsSine,
    ArcSine,
    Beta,
    GapUniform,
    GeneralLinear,
    Linear,
    PieceQuadratic,
    QPower,
    TruncatedNormal,
    TwoStep,
    Uniform,
)
from cccd.exact import p_uniform_fraction, probability
from cccd.multianchor import (
    AnchorConditional,
    asymptotic_law_fixed_m,
    conditional_on_anchors,
    expected_gamma,
    expected_gamma_hu,
    pmf_conditional_table,
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


def exact_fixed_anchor_pmf(cell_probs, n):
    """Exact pmf under uniform points for fixed cell masses, as Fractions.

    Sequential binomials over the cells: with r points left, the next cell
    takes t of them with C(r, t) q^t (1 - q)^(r - t), q its mass over the mass
    left; an occupied end cell adds 1, and a middle cell with t points 1 or 2
    with p_t deciding.
    """
    probs = [Fraction(q) for q in cell_probs]
    m = len(probs) - 1
    p = [Fraction(0)] + [p_uniform_fraction(t) for t in range(1, n + 1)]
    law = {(n, 0): Fraction(1)}  # (points left, domination so far)
    for j, mass in enumerate(probs):
        q = mass / sum(probs[j:])
        new = {}
        for (r, k), a in law.items():
            for t in range(r + 1):
                w = a * math.comb(r, t) * q ** t * (1 - q) ** (r - t)
                if not w:
                    continue
                adds = {0: 1} if t == 0 else {1: 1} if j in (0, m) else {1: 1 - p[t], 2: p[t]}
                for c, b in adds.items():
                    new[r - t, k + c] = new.get((r - t, k + c), 0) + w * b
        law = new
    pmf = [Fraction(0)] * (2 * m + 1)
    for (_, k), value in law.items():
        pmf[k] += value
    return pmf


def generating_function_pmf(n, m, p):
    """[x^n] E(x, z)^2 M(x, z)^(m - 1) / C(n + m, m) as Fractions, one entry per z^k.

    E = 1 + z x / (1 - x) is an end cell and M = 1 + sum_t x^t ((1 - p_t) z + p_t z^2)
    a middle cell; polynomials are dicts keyed by (power of x, power of z).
    """
    def cell(middle):
        poly = {(0, 0): Fraction(1)}
        for t in range(1, n + 1):
            poly.update({(t, 1): 1 - p[t], (t, 2): p[t]} if middle else {(t, 1): Fraction(1)})
        return poly

    def times(a, b):
        out = {}
        for (ta, ka), va in a.items():
            for (tb, kb), vb in b.items():
                if ta + tb <= n:
                    out[ta + tb, ka + kb] = out.get((ta + tb, ka + kb), 0) + va * vb
        return out

    product = times(cell(False), cell(False))
    for _ in range(m - 1):
        product = times(product, cell(True))
    pmf = [Fraction(0)] * (2 * m + 1)
    for (t, k), value in product.items():
        if t == n:
            pmf[k] += value / math.comb(n + m, m)
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
        # the cell law of other points is built as an AnchorConditional
        with pytest.raises(ValueError, match="uniform family; build an AnchorConditional") as info:
            conditional_on_anchors(TwoStep(0.4), [0.5])
        assert "hu_family" not in str(info.value)

    def test_direct_construction_validation(self):
        with pytest.raises(ValueError, match="cell masses sum"):
            AnchorConditional((0.5,), (0.4, 0.4), Uniform())
        with pytest.raises(ValueError, match="nonnegative"):
            AnchorConditional((0.5,), (math.nan, math.nan), Uniform())
        with pytest.raises(ValueError, match="strictly increasing"):
            AnchorConditional((0.6, 0.3), (0.3, 0.3, 0.4), Uniform())
        for anchors in [(math.nan, 0.5), (0.5, math.nan), (math.nan,), (0.5, math.inf), (-math.inf,)]:
            with pytest.raises(ValueError, match="finite"):
                AnchorConditional(anchors, (0.2, 0.3, 0.5) if len(anchors) == 2 else (0.4, 0.6), Uniform())


class TestPmfConditional:
    def test_single_point_is_always_one(self):
        cond = conditional_on_anchors(Uniform(), [1 / 3, 2 / 3])
        table = pmf_conditional_table(cond, 1)
        assert table[1] == pytest.approx(1.0, abs=1e-12)
        assert table[0] == 0.0
        assert table[2] == 0.0

    def test_median_anchor_splits_evenly(self):
        cond = conditional_on_anchors(Uniform(), [0.5])
        table = pmf_conditional_table(cond, 2)
        assert table[1] == pytest.approx(0.5)
        assert table[2] == pytest.approx(0.5)

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

    def test_matches_literal_composition_sum(self):
        uniform_p = [0.0] + [float(p_uniform_fraction(t)) for t in range(1, 9)]
        for n, anchors in ((4, [0.3, 0.7]), (3, [0.2, 0.55, 0.8]),
                           (5, [0.2, 0.55, 0.8]), (6, [0.5])):
            cond = conditional_on_anchors(Uniform(), anchors)
            m = len(anchors)
            table = pmf_conditional_table(cond, n)
            for k in range(0, 2 * m + 1):
                want = reference_pmf(cond.cell_probs, uniform_p, n, k)
                assert table[k] == pytest.approx(want, abs=1e-12), (n, m, k)

    @pytest.mark.parametrize("n", [25, 40, 60])
    @pytest.mark.parametrize("anchors", [(0.25, 0.5, 0.75), (0.125, 0.5), (0.375,)], ids=str)
    def test_matches_the_exact_multinomial_law(self, anchors, n):
        # dyadic anchors make the cell masses exact in floating point
        table = pmf_conditional_table(conditional_on_anchors(Uniform(), anchors), n)
        cell_probs = np.diff(anchors, prepend=0.0, append=1.0)
        want = [float(v) for v in exact_fixed_anchor_pmf(cell_probs, n)]
        assert np.max(np.abs(table - want)) <= 2e-15

    @pytest.mark.parametrize("anchors", [(1e-6, 0.5, 1 - 1e-6), (1e-300, 0.5)], ids=str)
    def test_extreme_cells_keep_their_mass_at_the_cap(self, anchors):
        table = pmf_conditional_table(conditional_on_anchors(Uniform(), anchors), 397)
        assert abs(table.sum() - 1.0) <= 5e-14

    def test_rescaled_cells_use_their_own_pair_probability(self):
        model = TwoStep(0.4)
        cond = AnchorConditional((0.3, 0.6), (0.3, 0.3, 0.4), model)
        p_vec = [probability(model, t).value if t >= 2 else 0.0 for t in range(4)]
        table = pmf_conditional_table(cond, 3)
        for k in range(0, 5):
            want = reference_pmf(cond.cell_probs, p_vec, 3, k)
            assert table[k] == pytest.approx(want, abs=1e-12)

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
        assert pmf_random_anchors_table(Uniform(), Uniform(), 1, 1)[1] == pytest.approx(1.0, abs=1e-12)

    def test_two_points_one_anchor(self):
        got = pmf_random_anchors_table(Uniform(), Uniform(), 2, 1)[2]
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

    def test_uniform_route_equals_beta11_anchor_quadrature(self):
        # Beta(1, 1) is the uniform density, but its family takes anchor quadrature
        for m in (1, 2, 3):
            for n in range(1, 12):
                exact = pmf_random_anchors_table(Uniform(), Uniform(), n, m)
                quadrature = pmf_random_anchors_table(Uniform(), Beta(1, 1), n, m)
                assert np.max(np.abs(exact - quadrature)) <= 1e-12, (n, m)
        model = Linear(1.0)
        exact = pmf_random_anchors_table(model, Uniform(), 6, 2, hu_family=True)
        quadrature = pmf_random_anchors_table(model, Beta(1, 1), 6, 2, hu_family=True)
        assert np.max(np.abs(exact - quadrature)) <= 1e-12

    def test_uniform_route_equals_the_generating_function(self):
        for n, m in ((3, 1), (4, 2), (5, 3), (8, 2)):
            p = [Fraction(0)] + [p_uniform_fraction(t) for t in range(1, n + 1)]
            want = [float(v) for v in generating_function_pmf(n, m, p)]
            got = pmf_random_anchors_table(Uniform(), Uniform(), n, m)
            assert np.max(np.abs(got - want)) <= 1e-15, (n, m)

    def test_uniform_route_at_equal_counts(self):
        n = m = 30
        table = pmf_random_anchors_table(Uniform(), Uniform(), n, m)
        assert table.sum() == pytest.approx(1.0, abs=1e-12)
        want = expected_gamma_hu(n, m, [p_uniform_fraction(t) for t in range(1, n + 1)])
        assert float(np.arange(len(table)) @ table) == pytest.approx(float(want), abs=1e-12)

    def test_sampled_anchors_run_past_the_quadrature_cap(self):
        for n, m, reps in ((20, 8, 100), (199, 1, 20)):
            table = pmf_random_anchors_table(Uniform(), Uniform(), n, m, mc_reps=reps)
            assert table.sum() == pytest.approx(1.0, abs=1e-12), (n, m)

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
        # uniform anchors need no quadrature; other anchor densities stop at m = 3
        with pytest.raises(ValueError, match="m <= 3.*--reps"):
            pmf_random_anchors_table(Uniform(), Beta(2, 2), 2, 4)

    def test_monte_carlo_path(self):
        got = pmf_random_anchors_table(Uniform(), Uniform(), 2, 1, mc_reps=4000, seed=5)[2]
        sigma = math.sqrt((1 / 3) * (2 / 3) / 4000)
        assert abs(got - 1.0 / 3.0) < 4 * sigma
        again = pmf_random_anchors_table(Uniform(), Uniform(), 2, 1, mc_reps=4000, seed=5)[2]
        assert got == again
        table = pmf_random_anchors_table(Uniform(), Uniform(), 3, 4, mc_reps=500)
        assert table.sum() == pytest.approx(1.0, abs=1e-9)

    def test_support_mismatch(self):
        with pytest.raises(ValueError, match="support"):
            pmf_random_anchors_table(GeneralLinear(0.05, (-1.0, 3.0)), Uniform(), 2, 1)

    def test_rescaled_cells_change_the_mean(self):
        model = TwoStep(0.4)
        p_table = [0.0, probability(model, 2).value]
        want = float(expected_gamma_hu(2, 2, p_table))
        table = pmf_random_anchors_table(model, Uniform(), 2, 2, hu_family=True)
        assert float(np.arange(len(table)) @ table) == pytest.approx(want, abs=1e-9)
        with pytest.raises(ValueError, match="hu_family"):
            pmf_random_anchors_table(model, Uniform(), 2, 2)


# every route that runs the cell program: its anchor count, and (n, m) -> pmf table or mean
CAP_ROUTES = {
    "fixed": (3, lambda n, m: pmf_conditional_table(
        conditional_on_anchors(Uniform(), np.arange(1, m + 1) / (m + 1)), n)),
    "uniform": (100, lambda n, m: pmf_random_anchors_table(Uniform(), Uniform(), n, m)),
    "quadrature": (1, lambda n, m: pmf_random_anchors_table(Uniform(), Beta(2, 2), n, m)),
    "sampled": (3, lambda n, m: pmf_random_anchors_table(Uniform(), Uniform(), n, m,
                                                         mc_reps=20)),
    "expected": (3, lambda n, m: expected_gamma(Uniform(), Uniform(), n, m)),
}


@pytest.mark.parametrize("route", CAP_ROUTES)
def test_enumeration_cap(route):
    m, compute = CAP_ROUTES[route]
    n = multianchor.MAX_CELL_TOTAL - m
    result = compute(n, m)
    if route == "expected":
        assert m + 1 <= result <= 2 * m
    else:
        assert result.sum() == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError, match="Monte Carlo"):
        compute(n + 1, m)


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

    def test_matches_closed_form_at_the_cap(self):
        for n, m in ((397, 3), (390, 10)):
            p_table = [p_uniform_fraction(i) for i in range(1, n + 1)]
            want = float(expected_gamma_hu(n, m, p_table))
            assert expected_gamma(Uniform(), Uniform(), n, m) == pytest.approx(want, abs=1e-13)

    def test_consistent_with_pmf_mean(self):
        for n, m in ((2, 2), (3, 2)):
            table = pmf_random_anchors_table(Uniform(), Uniform(), n, m)
            mean = float(np.arange(len(table)) @ table)
            assert expected_gamma(Uniform(), Uniform(), n, m) == pytest.approx(mean, abs=1e-15)

    def test_jumping_anchor_density_matches_the_pmf_mean(self):
        model = TwoStep(0.5)
        for n, m in ((4, 2), (6, 3)):
            table = pmf_random_anchors_table(Uniform(), model, n, m)
            mean = float(np.arange(len(table)) @ table)
            assert expected_gamma(Uniform(), model, n, m) == pytest.approx(mean, abs=1e-15), (n, m)

    def test_quadrature_that_loses_mass_raises(self):
        # arc-sine anchors diverge at both ends, where the table's Gauss nodes miss mass
        for n, m in ((4, 2), (3, 1), (6, 3)):
            with pytest.raises(ValueError, match="lost mass"):
                expected_gamma(Uniform(), ArcSine(), n, m)

    def test_non_uniform_points_raise(self):
        with pytest.raises(ValueError, match="uniform family; the rescaled cells") as info:
            expected_gamma(TwoStep(0.4), Uniform(), 2, 2)
        assert "hu_family" not in str(info.value)


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
        for model in (Uniform(), GeneralLinear(0.05, (-1.0, 3.0))):
            calls.clear()
            first = pmf_random_anchors_table(model, model, n, 2, hu_family=True)
            again = pmf_random_anchors_table(model, model, n, 2, hu_family=True)
            assert np.array_equal(again, first)
            assert len(calls) == n - 1, model
        calls.clear()
        cond = conditional_on_anchors(Uniform(), [0.25, 0.5, 0.75])
        assert np.array_equal(pmf_conditional_table(cond, n), pmf_conditional_table(cond, n))
        expected_gamma(Uniform(), Uniform(), n, 2)
        pmf_random_anchors_table(Uniform(), Uniform(), n, 1)
        assert calls == []


class TestAnchorRuleCache:
    @staticmethod
    def anchor_quadrature_results():
        """Anchor-rule users: Beta-anchor means and a Beta-anchor table."""
        means = [expected_gamma(Uniform(), Beta(2, 2), n, m) for n in range(1, 9) for m in range(1, 4)]
        return means, pmf_random_anchors_table(Uniform(), Beta(2, 2), 5, 3)

    def test_each_rule_is_built_once(self, monkeypatch):
        multianchor._unit_gauss_rule.cache_clear()
        calls = []
        build = np.polynomial.legendre.leggauss

        def counting(nodes):
            calls.append(nodes)
            return build(nodes)

        monkeypatch.setattr(np.polynomial.legendre, "leggauss", counting)
        self.anchor_quadrature_results()
        self.anchor_quadrature_results()
        assert calls and len(calls) == len(set(calls))

    def test_cached_rule_is_read_only(self):
        x, w = multianchor._unit_gauss_rule(24)
        with pytest.raises(ValueError, match="read-only"):
            x[0] = 0.5
        with pytest.raises(ValueError, match="read-only"):
            w *= 2.0
        assert w.sum() == pytest.approx(1.0, abs=1e-15)

    def test_results_match_a_rule_rebuilt_on_every_call(self, monkeypatch):
        means, table = self.anchor_quadrature_results()
        monkeypatch.setattr(multianchor, "_unit_gauss_rule", multianchor._unit_gauss_rule.__wrapped__)
        fresh_means, fresh_table = self.anchor_quadrature_results()
        assert means == fresh_means
        assert np.array_equal(table, fresh_table)


# (point density, anchor density, its degree between knots, n, m, hu_family)
DEGREE_CASES = [
    (Uniform(), Beta(2, 2), 2, 5, 3, False),
    (Uniform(), Beta(3, 1), 2, 4, 2, False),
    (Uniform(), Beta(1, 1), 0, 4, 2, False),
    (Uniform(), TwoStep(0.5), 0, 5, 3, False),
    (Uniform(), GapUniform(0.1), 0, 4, 2, False),
    (Uniform(), PieceQuadratic(2 / 3), 2, 5, 3, False),
    (Uniform(), QPower(2), 2, 4, 2, False),
    (Uniform(), Linear(-1.0), 1, 6, 2, False),
    (Linear(1.0), Linear(1.0), 1, 6, 2, True),
    (TwoStep(0.5), TwoStep(0.5), 0, 4, 2, True),
]


class TestDegreeExactAnchorRules:
    """Polynomial anchor densities take ceil((n + m(d + 1)) / 2) nodes per knot interval."""

    @staticmethod
    def with_nodes(monkeypatch, nodes, compute, *args, **kwargs):
        with monkeypatch.context() as patch:
            patch.setattr(multianchor, "_anchor_nodes", lambda fy, n, m: nodes)
            return compute(*args, **kwargs)

    @pytest.mark.parametrize("fx, fy, d, n, m, hu", DEGREE_CASES, ids=repr)
    def test_the_fewest_exact_nodes(self, monkeypatch, fx, fy, d, n, m, hu):
        nodes = math.ceil((n + m * (d + 1)) / 2)
        assert multianchor._anchor_nodes(fy, n, m) == nodes
        table = pmf_random_anchors_table(fx, fy, n, m, hu_family=hu)
        reference = self.with_nodes(monkeypatch, 40, pmf_random_anchors_table, fx, fy, n, m,
                                    hu_family=hu)
        fewer = self.with_nodes(monkeypatch, nodes - 1, pmf_random_anchors_table, fx, fy, n, m,
                                hu_family=hu)
        assert np.max(np.abs(table - reference)) <= 1e-14
        assert np.max(np.abs(fewer - reference)) > 1e-10

    def test_rules_past_the_caps_and_non_polynomial_anchors_are_unchanged(self):
        # float.hex of the fixed 24-node results
        tables = {
            (TruncatedNormal(0.3, 0.5), 5, 3): [
                "0x0.0p+0", "0x1.a06b3d66e0cd5p-5", "0x1.4a68e0da25b5ep-2", "0x1.c0ebc1ad819e6p-2",
                "0x1.613553709520cp-3", "0x1.0034c133202e6p-6", "0x0.0p+0"],
            (AbsSine(), 4, 2): [
                "0x0.0p+0", "0x1.4bad9e7540d16p-3", "0x1.09337e67ea4a9p-1", "0x1.2c3fd34ca5c4ap-2",
                "0x1.b8260a8e53bfdp-6"],
            (Beta(2, 2), 43, 2): [  # 25 nodes would be exact
                "0x0.0p+0", "0x1.92e115bbe83c3p-14", "0x1.f094a3b6bb23ep-5", "0x1.1c86c75c19281p-1",
                "0x1.88c6aebf9a8b8p-2"],
        }
        for (fy, n, m), want in tables.items():
            got = pmf_random_anchors_table(Uniform(), fy, n, m)
            assert [float(v).hex() for v in got] == want, fy
        with pytest.raises(ValueError, match=r"nodes=24\) lost mass 1.64e-07"):
            pmf_random_anchors_table(Uniform(), Beta(2.5, 2), 4, 2)

    def test_lost_mass_names_the_nodes_used(self, monkeypatch):
        # declared as a constant, the arc-sine density takes ceil((4 + 2) / 2) = 3 nodes
        monkeypatch.setattr(ArcSine, "polynomial_degree", 0)
        with pytest.raises(ValueError, match=r"nodes=3\) lost mass"):
            pmf_random_anchors_table(Uniform(), ArcSine(), 4, 2)
        with pytest.raises(ValueError, match=r"nodes=3\) lost mass"):
            expected_gamma(Uniform(), ArcSine(), 4, 2)


class TestExpectedGammaHu:
    def test_exact_values(self):
        assert expected_gamma_hu(2, 1, [Fraction(0), Fraction(1, 3)]) == Fraction(4, 3)
        assert expected_gamma_hu(2, 2, [Fraction(0), Fraction(1, 3)]) == Fraction(14, 9)
        table3 = [p_uniform_fraction(i) for i in range(1, 4)]
        assert expected_gamma_hu(3, 2, table3) == Fraction(229, 120)
        assert expected_gamma_hu(3, 3, table3) == Fraction(257, 120)

    def test_single_point_and_anchor_mean_is_one(self):
        assert expected_gamma_hu(1, 1, [p_uniform_fraction(1)]) == 1

    def test_equal_counts_grow_linearly(self):
        means = [expected_gamma_hu(n, n, [p_uniform_fraction(i) for i in range(1, n + 1)])
                 for n in (5, 10, 20, 40)]
        assert all(b > a for a, b in zip(means, means[1:]))
        assert all(n / 2 <= mean <= n for n, mean in zip((5, 10, 20, 40), means))
        table = pmf_random_anchors_table(Uniform(), Uniform(), 10, 10)
        assert float(np.arange(len(table)) @ table) == pytest.approx(float(means[1]), rel=1e-13)

    def test_exact_at_every_size(self):
        def reference(n, m, p_table):
            """Counts compositions: C(n - i + m - 1, m - 1) of the C(n + m, m) put i
            points in a given middle cell."""
            acc = sum(math.comb(n - i + m - 1, m - 1) * (1 + p)
                      for i, p in enumerate(p_table, start=1))
            return Fraction(2 * n, n + m) + Fraction(m - 1, math.comb(n + m, m)) * acc

        for n, m in ((180, 2), (397, 3), (300, 100)):
            table = [p_uniform_fraction(i) for i in range(1, n + 1)]
            mean = expected_gamma_hu(n, m, table)
            assert isinstance(mean, Fraction)
            assert mean == reference(n, m, table)

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

    def test_fixed_anchor_pmf_meets_the_law_at_the_cap(self):
        cond = conditional_on_anchors(Uniform(), [0.25, 0.5, 0.75])
        table = pmf_conditional_table(cond, multianchor.MAX_CELL_TOTAL - 3)
        law = asymptotic_law_fixed_m([4 / 9, 4 / 9], 3)
        limit = np.array([law.get(k, 0.0) for k in range(len(table))])
        assert table.sum() == pytest.approx(1.0, abs=1e-12)
        assert 0.5 * np.abs(table - limit).sum() <= 1e-12

    def test_many_anchors_isolate_every_point(self):
        rng = np.random.default_rng(3)
        xs = np.sort(rng.random((2000, 5)), axis=1)
        ys = np.sort(rng.random((2000, 500)), axis=1)
        assert (digraph._cell_gammas(xs, ys)[0].sum(axis=1) == 5).mean() >= 0.95

