import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cccd import digraph
from cccd.densities import SquareCdf, Uniform


def covers(instance, witness):
    """True when every point is the witness itself or inside a witness ball.

    Uses exact rational arithmetic so the check matches strict open-ball
    membership even when a distance is within rounding of a radius.
    """
    anchors = [Fraction(float(y)) for y in instance.ys]

    def radius(w):
        return min(abs(Fraction(float(w)) - a) for a in anchors)

    for x in instance.xs:
        fx = Fraction(float(x))
        ok = any(x == w or abs(fx - Fraction(float(w))) < radius(w)
                 for w in witness)
        if not ok:
            return False
    return True


def random_instance(rng, n_max=12, m_max=4):
    n = int(rng.integers(1, n_max + 1))
    m = int(rng.integers(1, m_max + 1))
    xs = rng.uniform(-0.3, 1.3, size=n)
    ys = rng.uniform(0.0, 1.0, size=m)
    return digraph.build_instance(xs, ys)


class TestConstruction:
    def test_sorts_inputs(self):
        inst = digraph.build_instance([0.9, 0.1, 0.5], [0.7, 0.2])
        assert inst.xs.tolist() == [0.1, 0.5, 0.9]
        assert inst.ys.tolist() == [0.2, 0.7]
        assert (inst.n, inst.m) == (3, 2)

    def test_duplicate_point_rejected(self):
        with pytest.raises(ValueError, match=r"xs.*0\.4"):
            digraph.build_instance([0.4, 0.4, 0.6], [0.5])

    def test_duplicate_anchor_rejected(self):
        with pytest.raises(ValueError, match=r"ys.*0\.5"):
            digraph.build_instance([0.1], [0.5, 0.5])

    def test_point_anchor_collision_rejected(self):
        with pytest.raises(ValueError, match=r"collides.*0\.5"):
            digraph.build_instance([0.1, 0.5], [0.5])

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValueError, match="xs"):
            digraph.build_instance([], [0.5])
        with pytest.raises(ValueError, match="ys"):
            digraph.build_instance([0.1], [])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            digraph.build_instance([0.1, math.inf], [0.5])

    def test_cell_assignment(self):
        inst = digraph.build_instance([-0.5, 0.1, 0.4, 0.8, 1.2], [0.0, 0.5, 1.0])
        assert inst.cell_of.tolist() == [0, 1, 1, 2, 3]


class TestBallsAndArcs:
    def test_radii(self):
        inst = digraph.build_instance([-0.5, 0.3, 0.8], [0.0, 1.0])
        assert inst.radii().tolist() == pytest.approx([0.5, 0.3, 0.2])

    def test_radius_with_single_anchor(self):
        inst = digraph.build_instance([-2.0, 3.0], [1.0])
        assert inst.radii().tolist() == [3.0, 2.0]

    def test_arcs_hand_example(self):
        # balls: 0.1 -> (-0.1, 0.3); 0.3 -> (0.0, 0.6); 0.8 -> (0.6, 1.0)
        inst = digraph.build_instance([0.1, 0.3, 0.8], [0.0, 1.0])
        assert sorted(digraph.arcs(inst)) == [(1, 0)]

    def test_arcs_are_loopless(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            inst = random_instance(rng)
            assert all(i != j for i, j in digraph.arcs(inst))

    def test_membership_is_exact_at_rounding_scale(self):
        # the gap 0.5 - 1e-143 rounds to exactly 0.5 in float, but the point
        # is strictly inside the ball of -0.5 and the arc must exist
        inst = digraph.build_instance([-0.5, -1e-143], [0.0])
        assert (0, 1) in digraph.arcs(inst)
        assert digraph.boundary_contacts(inst) == []
        assert digraph.domination_number_oracle(inst) == 1
        assert digraph.domination_number_fast(inst).total == 1

    def test_boundary_contact_is_not_an_arc(self):
        # ball of 0.5 is (0.25, 0.75); 0.75 sits exactly on its boundary
        inst = digraph.build_instance([0.5, 0.75], [0.25])
        assert (0, 1) not in digraph.arcs(inst)
        assert (0, 1) in digraph.boundary_contacts(inst)
        # 0.75 has radius 0.5, so its ball (0.25, 1.25) does catch 0.5
        assert (1, 0) in digraph.arcs(inst)


class TestGammaOneRegion:
    def test_hand_value(self):
        inst = digraph.build_instance([0.1, 0.3, 0.8], [0.0, 1.0])
        region = digraph.gamma_one_region(inst, 2)
        assert region.lo == pytest.approx(0.4)
        assert region.hi == pytest.approx(0.55)

    def test_end_cells_rejected(self):
        inst = digraph.build_instance([0.1, 1.5], [0.0, 1.0])
        with pytest.raises(ValueError, match="middle"):
            digraph.gamma_one_region(inst, 1)
        with pytest.raises(ValueError, match="middle"):
            digraph.gamma_one_region(inst, 3)

    def test_empty_cell_rejected(self):
        inst = digraph.build_instance([1.5], [0.0, 1.0])
        with pytest.raises(ValueError, match="no points"):
            digraph.gamma_one_region(inst, 2)


class TestDominationFast:
    def test_two_central_points(self):
        res = digraph.domination_number_fast(
            digraph.build_instance([0.45, 0.55], [0.0, 1.0]))
        assert res.total == 1
        assert res.dominating_set == (0.45,)

    def test_split_sample_needs_two(self):
        res = digraph.domination_number_fast(
            digraph.build_instance([0.1, 0.3, 0.8], [0.0, 1.0]))
        assert res.total == 2
        assert res.dominating_set == (0.3, 0.8)

    def test_end_cells(self):
        # dyadic coordinates so float and real arithmetic coincide
        res = digraph.domination_number_fast(
            digraph.build_instance([-0.5, -0.125, 0.25, 0.625, 1.25], [0.0, 1.0]))
        by_j = {r.j: r for r in res.per_interval}
        assert by_j[1].gamma == 1 and by_j[1].witness == (-0.5,)
        assert by_j[2].gamma == 2 and by_j[2].witness == (0.25, 0.625)
        assert by_j[3].gamma == 1 and by_j[3].witness == (1.25,)
        assert res.total == 4

    def test_empty_cells_contribute_zero(self):
        res = digraph.domination_number_fast(
            digraph.build_instance([0.3], [0.0, 0.5, 1.0]))
        assert res.total == 1
        counts = {r.j: r.count for r in res.per_interval}
        assert counts == {1: 0, 2: 1, 3: 0, 4: 0}

    def test_single_point_middle_cell_is_gamma_one(self):
        for x in (0.01, 0.5, 0.99):
            res = digraph.domination_number_fast(
                digraph.build_instance([x], [0.0, 1.0]))
            assert res.total == 1

    def test_witness_dominates(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            inst = random_instance(rng)
            res = digraph.domination_number_fast(inst)
            assert len(res.dominating_set) == res.total
            assert covers(inst, res.dominating_set)

    def test_affine_invariance(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            inst = random_instance(rng)
            base = digraph.domination_number_fast(inst).total
            a, b = rng.uniform(0.1, 5.0), rng.uniform(-3.0, 3.0)
            scaled = digraph.build_instance(a * inst.xs + b, a * inst.ys + b)
            assert digraph.domination_number_fast(scaled).total == base
            mirrored = digraph.build_instance(-inst.xs, -inst.ys)
            assert digraph.domination_number_fast(mirrored).total == base


class TestDominationOracle:
    def test_guard(self):
        inst = digraph.build_instance(np.linspace(0.01, 0.99, 21), [0.0, 1.0])
        with pytest.raises(ValueError, match="n <= 20"):
            digraph.domination_number_oracle(inst)

    def test_matches_fast_on_random_instances(self):
        rng = np.random.default_rng(17)
        for _ in range(2000):
            inst = random_instance(rng)
            fast = digraph.domination_number_fast(inst).total
            assert digraph.domination_number_oracle(inst) == fast

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_fast_property(self, data):
        xs = data.draw(st.lists(
            st.floats(-0.5, 1.5, allow_nan=False), min_size=1, max_size=10,
            unique=True))
        ys = data.draw(st.lists(
            st.floats(0.0, 1.0, allow_nan=False), min_size=1, max_size=4,
            unique=True))
        if set(xs) & set(ys):
            return
        inst = digraph.build_instance(xs, ys)
        assert (digraph.domination_number_oracle(inst)
                == digraph.domination_number_fast(inst).total)


def _check_cell_kernel(xs, ys):
    """The batch kernel, in both anchor layouts, against the exact per-cell path."""
    if set(xs) & set(ys):
        return
    want = digraph.domination_number_fast(digraph.build_instance(xs, ys))
    row, anchors = np.sort(xs)[None, :], np.sort(ys)
    for layout in (anchors, anchors[None, :]):
        cells, tied = digraph._cell_gammas(row, layout)
        assert not tied[0]
        assert cells[0].tolist() == [r.gamma for r in want.per_interval]


class TestCellKernel:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(-0.5, 1.5, allow_nan=False), min_size=1, max_size=12, unique=True),
           st.lists(st.floats(0.0, 1.0, allow_nan=False), min_size=1, max_size=6, unique=True))
    def test_matches_fast_on_continuous_data(self, xs, ys):
        _check_cell_kernel(xs, ys)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(-8, 40), min_size=1, max_size=12, unique=True),
           st.lists(st.integers(0, 32), min_size=1, max_size=6, unique=True))
    def test_matches_fast_on_dyadic_data(self, xs, ys):
        # on a 1/32 grid every edge sum and doubling is exact in floats, and
        # points often sit exactly on a witness-region boundary
        _check_cell_kernel([x / 32 for x in xs], [y / 32 for y in ys])

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(-50, 150), min_size=1, max_size=12, unique=True),
           st.lists(st.integers(0, 100), min_size=1, max_size=6, unique=True))
    def test_matches_fast_on_decimal_data(self, xs, ys):
        # edge sums on a 0.01 grid round, and some land exactly on a doubled point
        _check_cell_kernel([x / 100 for x in xs], [y / 100 for y in ys])

    @pytest.mark.parametrize("xs, ys", [
        ([0.5, 4.446732402317957e-189], [0.0, 1.0]),   # 1 + tiny rounds to 2 * 0.5
        ([0.22, 0.66, 0.86, 1.1, 1.33], [0.46, 0.93]),   # 0.86 + 0.46 rounds to 2 * 0.66
    ])
    def test_rounded_edge_sum_equal_to_a_doubled_point(self, xs, ys):
        _check_cell_kernel(xs, ys)

    def test_empty_and_boundary_cells_in_one_batch(self):
        xs = np.array([[0.05, 0.1, 0.15, 0.2],          # all in the left end cell
                       [0.375, 0.5, 0.625, 0.8],        # 0.5 is a witness
                       [0.375, 0.5625, 0.625, 0.8],     # on the region's upper edge
                       [0.375, 0.4375, 0.625, 0.8]])    # on the region's lower edge
        ys = np.array([0.25, 0.75, 0.875])
        cells, tied = digraph._cell_gammas(xs, ys)
        assert not tied.any()
        for row, got in zip(xs, cells):
            want = digraph.domination_number_fast(digraph.build_instance(row, ys))
            assert got.tolist() == [r.gamma for r in want.per_interval]


class TestUpperBound:
    def test_hand_counts(self):
        inst = digraph.build_instance([-0.5, -0.125, 0.25, 0.625, 1.25], [0.0, 1.0])
        k1, k2, bound = digraph.upper_bound_counts(inst)
        assert (k1, k2) == (1, 2)
        assert bound == 4

    def test_bound_holds(self):
        rng = np.random.default_rng(19)
        for _ in range(500):
            inst = random_instance(rng)
            gamma = digraph.domination_number_fast(inst).total
            _, _, bound = digraph.upper_bound_counts(inst)
            assert 1 <= gamma <= bound <= min(inst.n, 2 * inst.m)


class TestTransformed:
    def test_uniform_model_changes_nothing(self):
        xs = [0.1, 0.3, 0.8]
        res = digraph.transformed_digraph_gamma(Uniform(), xs)
        assert res.total == digraph.domination_number_fast(
            digraph.build_instance(xs, [0.0, 1.0])).total == 2

    def test_square_cdf_images(self):
        xs = np.sqrt([0.1, 0.3, 0.8])
        res = digraph.transformed_digraph_gamma(SquareCdf(), xs)
        assert res.total == 2

    def test_pullback_ball_left_branch(self):
        # for images below 1/2 the pullback region is (0, sqrt(2) * x)
        lo, hi = digraph.transformed_ball(SquareCdf(), 0.5)
        assert lo == pytest.approx(0.0)
        assert hi == pytest.approx(math.sqrt(2) * 0.5)

    def test_pullback_ball_right_branch(self):
        lo, hi = digraph.transformed_ball(SquareCdf(), 0.9)
        assert lo == pytest.approx(math.sqrt(2 * 0.81 - 1))
        assert hi == pytest.approx(1.0)

    def test_pullback_matches_image_membership(self):
        rng = np.random.default_rng(23)
        model = SquareCdf()
        xs = np.sort(rng.uniform(0.01, 0.99, size=8))
        images = model.cdf(xs)
        radii = np.minimum(images, 1.0 - images)
        for i, x in enumerate(xs):
            lo, hi = digraph.transformed_ball(model, x)
            for k, other in enumerate(xs):
                if k == i:
                    continue
                in_pullback = lo < other < hi
                in_image = abs(images[k] - images[i]) < radii[i]
                assert in_pullback == in_image

    def test_requires_unit_anchors(self):
        with pytest.raises(ValueError, match="anchors"):
            digraph.transformed_digraph_gamma(Uniform(), [0.5], ys=(0.0, 2.0))

    def test_requires_interior_points(self):
        with pytest.raises(ValueError, match="inside"):
            digraph.transformed_digraph_gamma(Uniform(), [0.0, 0.5])


class TestSerialization:
    def test_text_round_trip(self):
        inst = digraph.build_instance([0.1, 0.3, 0.8], [0.0, 1.0])
        text = digraph.instance_to_text(inst)
        back = digraph.instance_from_text(text)
        assert back.xs.tolist() == inst.xs.tolist()
        assert back.ys.tolist() == inst.ys.tolist()

    def test_text_ignores_comments_and_blanks(self):
        inst = digraph.instance_from_text("# header\n\nx 0.25\ny 0.0\ny 1.0\n")
        assert inst.n == 1 and inst.m == 2

    def test_text_errors_name_the_line(self):
        with pytest.raises(ValueError, match="line 2"):
            digraph.instance_from_text("x 0.5\nz 1.0\n")
        with pytest.raises(ValueError, match="not a number"):
            digraph.instance_from_text("x abc\n")

    def test_json_round_trip(self):
        inst = digraph.build_instance([0.1, 0.8], [0.0, 1.0])
        back = digraph.instance_from_json(digraph.instance_to_json(inst))
        assert back.xs.tolist() == inst.xs.tolist()

    def test_json_shape_errors(self):
        with pytest.raises(ValueError, match="xs and ys"):
            digraph.instance_from_json('{"xs": [0.1]}')
        with pytest.raises(ValueError, match="instance JSON"):
            digraph.instance_from_json("not json")

    def test_result_json(self):
        res = digraph.domination_number_fast(
            digraph.build_instance([0.1, 0.3, 0.8], [0.0, 1.0]))
        obj = json.loads(res.to_json())
        assert obj["total"] == 2
        assert obj["dominating_set"] == [0.3, 0.8]
        assert [r["gamma"] for r in obj["per_interval"]] == [0, 2, 0]
