import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cccd import digraph


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


def arc_pairs(xs, ys):
    """The arcs (i, j) of one row, by sorted point index."""
    return [tuple(pair) for pair in np.argwhere(digraph.arcs([np.sort(xs)], np.sort(ys))[0]).tolist()]


def oracle_total(instance):
    return int(digraph.domination_number_oracle(instance.xs[None, :], instance.ys)[0])


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
    def test_arcs_hand_example(self):
        # balls: 0.1 -> (-0.1, 0.3); 0.3 -> (0.0, 0.6); 0.8 -> (0.6, 1.0)
        assert arc_pairs([0.1, 0.3, 0.8], [0.0, 1.0]) == [(1, 0)]

    def test_arcs_are_loopless(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            inst = random_instance(rng)
            assert all(i != j for i, j in arc_pairs(inst.xs, inst.ys))

    def test_membership_is_exact_at_rounding_scale(self):
        # the gap 0.5 - 1e-143 rounds to exactly 0.5 in float, but the point
        # is strictly inside the ball of -0.5 and the arc must exist
        inst = digraph.build_instance([-0.5, -1e-143], [0.0])
        assert (0, 1) in arc_pairs(inst.xs, inst.ys)
        assert oracle_total(inst) == 1
        assert digraph.domination_number_fast(inst).total == 1

    def test_boundary_contact_is_not_an_arc(self):
        # ball of 0.5 is (0.25, 0.75); 0.75 sits exactly on its boundary
        pairs = arc_pairs([0.5, 0.75], [0.25])
        assert (0, 1) not in pairs
        # 0.75 has radius 0.5, so its ball (0.25, 1.25) does catch 0.5
        assert (1, 0) in pairs


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
        assert [r.gamma for r in res.per_interval] == [0, 2, 0]

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


def _by_shape(instances):
    """Stack (xs, ys) pairs into one sorted (rows, n), (rows, m) batch per (n, m)."""
    groups = {}
    for xs, ys in instances:
        groups.setdefault((len(xs), len(ys)), []).append((np.sort(xs), np.sort(ys)))
    return [tuple(np.array(part) for part in zip(*group)) for group in groups.values()]


def _check_oracle(xs, ys):
    """The oracle on one row against the exact per-cell path."""
    if set(xs) & set(ys):
        return
    inst = digraph.build_instance(xs, ys)
    assert oracle_total(inst) == digraph.domination_number_fast(inst).total


class TestDominationOracle:
    def test_guard(self):
        with pytest.raises(ValueError, match="n <= 20"):
            digraph.domination_number_oracle(np.linspace(0.01, 0.99, 21)[None, :], [0.0, 1.0])

    @pytest.mark.parametrize("xs, ys", [
        ([[0.1, 0.4, 0.6], [0.4, 0.4, 0.6]], [0.5]),         # repeated point in row 1
        ([[0.1, 0.4, 0.6]], [0.5, 0.5]),                     # repeated anchor
        ([[0.1, 0.5, 0.6]], [[0.5, 0.9]]),                   # point on an anchor
        ([[0.6, 0.1]], [[0.9, 0.6]]),                        # the same, unsorted
    ])
    def test_rejects_ties(self, xs, ys):
        with pytest.raises(ValueError, match="repeated point, a repeated anchor or a point on an anchor"):
            digraph.domination_number_oracle(xs, ys)

    @pytest.mark.parametrize("grid", [False, True])
    def test_matches_kernel_at_n_20(self, grid):
        rng = np.random.default_rng(20)
        for m in (1, 3, 6):
            if grid:
                # distinct values of a 1/64 grid: edge sums and doublings are
                # exact, and some points sit on a ball's boundary
                picks = np.array([rng.permutation(np.arange(-8, 72))[:20 + m] for _ in range(6)]) / 64
                xs, ys = picks[:, :20], picks[:, 20:]
            else:
                xs, ys = rng.uniform(-0.3, 1.3, (6, 20)), rng.random((6, m))
            xs.sort(axis=1)
            ys.sort(axis=1)
            cells, tied = digraph._cell_gammas(xs, ys)
            assert not tied.any()
            assert digraph.domination_number_oracle(xs, ys).tolist() == cells.sum(axis=1).tolist()

    def test_matches_kernel_on_random_instances(self):
        rng = np.random.default_rng(17)
        instances = []
        for _ in range(2000):
            inst = random_instance(rng)
            instances.append((inst.xs, inst.ys))
        for xs, ys in _by_shape(instances):
            kernel = digraph._cell_gammas(xs, ys)[0].sum(axis=1)
            assert digraph.domination_number_oracle(xs, ys).tolist() == kernel.tolist()

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(-0.5, 1.5, allow_nan=False), min_size=1, max_size=10, unique=True),
           st.lists(st.floats(0.0, 1.0, allow_nan=False), min_size=1, max_size=4, unique=True))
    def test_matches_fast_property(self, xs, ys):
        _check_oracle(xs, ys)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(-8, 40), min_size=1, max_size=10, unique=True),
           st.lists(st.integers(0, 32), min_size=1, max_size=6, unique=True))
    def test_matches_fast_on_dyadic_data(self, xs, ys):
        # on a 1/32 grid distances and radii are exact and often equal, so
        # the suspect band sends many pairs to the Fraction re-check
        _check_oracle([x / 32 for x in xs], [y / 32 for y in ys])

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(-50, 150), min_size=1, max_size=10, unique=True),
           st.lists(st.integers(0, 100), min_size=1, max_size=6, unique=True))
    def test_matches_fast_on_decimal_data(self, xs, ys):
        # on a 0.01 grid distances and radii round, and some tie only in reals
        _check_oracle([x / 100 for x in xs], [y / 100 for y in ys])


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


class TestLowerBound:
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 9, 1024, 1025])
    @pytest.mark.parametrize("scale", [1.0, 2.0])
    def test_matches_searchsorted_on_grid_rows_with_repeats(self, n, scale):
        rng = np.random.default_rng(n)
        xs = np.sort(rng.integers(0, max(2, n // 3), size=(5, n)), axis=1) / 8
        pts = scale * xs
        # each scaled point, the grid gaps just below and above it, and both extremes
        queries = np.concatenate([pts, pts - 1 / 32, pts + 1 / 32,
                                  np.full((5, 1), -1.0), np.full((5, 1), 1e9)], axis=1)
        got = digraph._lower_bound(xs, queries, scale=scale)
        want = [np.searchsorted(row, q, side="left") for row, q in zip(pts, queries)]
        assert got.tolist() == np.array(want).tolist()


class TestCellKernelWideRows:
    # the hypothesis tests stay below 60 points, where the search takes at
    # most 6 steps; these rows take 12
    @pytest.mark.parametrize("grid", [False, True])
    def test_matches_fast_at_n_2500(self, grid):
        rng = np.random.default_rng(2500)
        if grid:
            # distinct values of a 1/4096 grid for the points, the anchors of
            # each row and the shared anchors: edge sums are exact and some
            # doubled points equal an edge
            shared = rng.choice(4096, 6, replace=False)
            rest = np.setdiff1d(np.arange(4096), shared)
            picks = np.array([rng.permutation(rest)[:2506] for _ in range(4)]) / 4096
            xs, ys, fixed = picks[:, :2500], picks[:, 2500:], np.sort(shared / 4096)
        else:
            xs, ys, fixed = rng.random((4, 2500)), rng.random((4, 6)), np.sort(rng.random(6))
        xs.sort(axis=1)
        ys.sort(axis=1)
        middle = set()
        for layout in (ys, fixed):
            cells, tied = digraph._cell_gammas(xs, layout)
            assert not tied.any()
            for row, anchors, got in zip(xs, np.broadcast_to(layout, ys.shape), cells):
                want = digraph.domination_number_fast(digraph.build_instance(row, anchors))
                assert got.tolist() == [r.gamma for r in want.per_interval]
            middle |= set(cells[:, 1:-1].ravel().tolist())
        assert middle == {1, 2}


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

