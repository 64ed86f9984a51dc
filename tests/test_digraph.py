from bisect import bisect_left
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cccd import digraph


def exact_cells(xs, ys):
    """Each cell's domination contribution, decided in Fraction arithmetic.

    An occupied end cell gives 1; an occupied middle cell (lo, hi) gives 1 when
    some point p in it has max + lo < 2p < min + hi, and 2 otherwise.
    """
    fx, fy = sorted(Fraction(float(x)) for x in xs), sorted(Fraction(float(y)) for y in ys)
    ranks = [0] + [bisect_left(fx, y) for y in fy] + [len(fx)]
    cells = []
    for c in range(len(fy) + 1):
        pts = fx[ranks[c]:ranks[c + 1]]
        if not pts or c in (0, len(fy)):
            cells.append(min(len(pts), 1))
        else:
            lo_edge, hi_edge = pts[-1] + fy[c - 1], pts[0] + fy[c]
            cells.append(1 if any(lo_edge < 2 * p < hi_edge for p in pts) else 2)
    return cells


def upper_bound_counts(xs, ys):
    """(k1, k2, bound) per row of points ``xs`` (R, n) and anchors ``ys`` (R, m): k1
    middle cells with two or more points, k2 occupied end cells and one-point middle cells,
    and the bound 2*k1 + k2."""
    cells = (np.asarray(xs)[:, :, None] > np.asarray(ys)[:, None, :]).sum(axis=2)
    counts = (cells[:, :, None] == np.arange(np.shape(ys)[1] + 1)).sum(axis=1)
    k1 = (counts[:, 1:-1] > 1).sum(axis=1)
    k2 = (counts[:, [0, -1]] > 0).sum(axis=1) + (counts[:, 1:-1] == 1).sum(axis=1)
    return k1, k2, 2 * k1 + k2


def arc_pairs(xs, ys):
    """The arcs (i, j) of one row, by sorted point index."""
    return [tuple(pair) for pair in np.argwhere(digraph.arcs([np.sort(xs)], np.sort(ys))[0]).tolist()]


def oracle_total(xs, ys):
    return int(digraph.domination_number_oracle(np.asarray(xs, dtype=float)[None, :], ys)[0])


def random_instance(rng, n_max=12, m_max=4):
    """Sorted points and anchors of one random row."""
    n = int(rng.integers(1, n_max + 1))
    m = int(rng.integers(1, m_max + 1))
    return np.sort(rng.uniform(-0.3, 1.3, size=n)), np.sort(rng.uniform(0.0, 1.0, size=m))


class TestBallsAndArcs:
    def test_arcs_hand_example(self):
        # balls: 0.1 -> (-0.1, 0.3); 0.3 -> (0.0, 0.6); 0.8 -> (0.6, 1.0)
        assert arc_pairs([0.1, 0.3, 0.8], [0.0, 1.0]) == [(1, 0)]

    def test_arcs_are_loopless(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            xs, ys = random_instance(rng)
            assert all(i != j for i, j in arc_pairs(xs, ys))

    def test_membership_is_exact_at_rounding_scale(self):
        # the gap 0.5 - 1e-143 rounds to exactly 0.5 in float, but the point
        # is strictly inside the ball of -0.5 and the arc must exist
        xs, ys = [-0.5, -1e-143], [0.0]
        assert (0, 1) in arc_pairs(xs, ys)
        assert oracle_total(xs, ys) == 1
        assert exact_cells(xs, ys) == [1, 0]

    def test_boundary_contact_is_not_an_arc(self):
        # ball of 0.5 is (0.25, 0.75); 0.75 sits exactly on its boundary
        pairs = arc_pairs([0.5, 0.75], [0.25])
        assert (0, 1) not in pairs
        # 0.75 has radius 0.5, so its ball (0.25, 1.25) does catch 0.5
        assert (1, 0) in pairs


class TestHandCells:
    @pytest.mark.parametrize("xs, ys, want", [
        ([0.45, 0.55], [0.0, 1.0], [0, 1, 0]),            # two central points
        ([0.1, 0.3, 0.8], [0.0, 1.0], [0, 2, 0]),         # a split sample needs two
        # dyadic coordinates so float and real arithmetic coincide
        ([-0.5, -0.125, 0.25, 0.625, 1.25], [0.0, 1.0], [1, 2, 1]),
        ([0.3], [0.0, 0.5, 1.0], [0, 1, 0, 0]),           # empty cells contribute zero
        ([0.01], [0.0, 1.0], [0, 1, 0]),                  # one point in a middle cell
        ([0.5], [0.0, 1.0], [0, 1, 0]),
        ([0.99], [0.0, 1.0], [0, 1, 0]),
        ([-0.5, 0.1, 0.4, 0.8, 1.2], [0.0, 0.5, 1.0], [1, 2, 1, 1]),   # a point in every cell
    ])
    def test_reference_and_kernel(self, xs, ys, want):
        assert exact_cells(xs, ys) == want
        cells, tied = digraph._cell_gammas(np.array([xs]), np.array(ys))
        assert not tied[0]
        assert cells[0].tolist() == want
        assert oracle_total(xs, ys) == sum(want)

    def test_affine_invariance(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            xs, ys = random_instance(rng)
            base = exact_cells(xs, ys)
            a, b = rng.uniform(0.1, 5.0), rng.uniform(-3.0, 3.0)
            assert exact_cells(a * xs + b, a * ys + b) == base
            assert exact_cells(-xs, -ys) == base[::-1]


# (xs, ys, which rows have a repeated point, a repeated anchor or a point on an anchor)
TIED_ROWS = [
    ([[0.1, 0.4, 0.6], [0.4, 0.4, 0.6]], [0.5], [False, True]),   # repeated point in row 1
    ([[0.1, 0.4, 0.6]], [0.5, 0.5], [True]),                      # repeated anchor
    ([[0.1, 0.5, 0.6]], [[0.5, 0.9]], [True]),                    # point on an anchor
    ([[0.6, 0.1]], [[0.9, 0.6]], [True]),                         # the same, unsorted
]

# the kernel reads all rows as one flat array; equal values that meet across a
# row end are not a tie, and some of these inputs have no tied row at all
ROW_END_PAIRS = [
    ([[0.1, 0.5], [0.5, 0.9]], [0.0, 1.0], [False, False]),        # the pair spans a row end
    ([[0.3], [0.3]], [0.0, 1.0], [False, False]),                  # one-point rows never tie
    ([[0.1, 0.2, 0.7, 0.7], [0.7, 0.8, 0.85, 0.9]], [0.0, 1.0], [True, False]),   # last pair
    ([[0.1, 0.4, 0.5], [0.5, 0.8, 0.8], [0.8, 0.85, 0.9]], [[0.0, 1.0]] * 3,
     [False, True, False]),                                        # ties at both row ends
    ([[0.1, 0.2, 0.6, 0.7], [0.1, 0.2, 0.7, 0.7]], [0.0, 1.0], [False, True]),   # last value
]


def _by_shape(instances):
    """Stack (xs, ys) pairs into one sorted (rows, n), (rows, m) batch per (n, m)."""
    groups = {}
    for xs, ys in instances:
        groups.setdefault((len(xs), len(ys)), []).append((np.sort(xs), np.sort(ys)))
    return [tuple(np.array(part) for part in zip(*group)) for group in groups.values()]


def _check_oracle(xs, ys):
    """The oracle on one row against the exact per-cell reference."""
    if set(xs) & set(ys):
        return
    assert oracle_total(xs, ys) == sum(exact_cells(xs, ys))


class TestDominationOracle:
    def test_guard(self):
        with pytest.raises(ValueError, match="n <= 20"):
            digraph.domination_number_oracle(np.linspace(0.01, 0.99, 21)[None, :], [0.0, 1.0])

    @pytest.mark.parametrize("xs, ys, tied", TIED_ROWS)
    def test_rejects_ties(self, xs, ys, tied):
        with pytest.raises(ValueError, match=f"row {tied.index(True)} has a repeated point, "
                                             "a repeated anchor or a point on an anchor"):
            digraph.domination_number_oracle(xs, ys)

    def test_sorts_its_rows(self):
        xs = np.array([[0.9, 0.1, 0.5], [0.55, 0.3, 0.45]])
        ys = np.array([[0.7, 0.2], [1.0, 0.0]])
        cells, tied = digraph._cell_gammas(np.sort(xs, axis=1), np.sort(ys, axis=1))
        assert not tied.any()
        assert digraph.domination_number_oracle(xs, ys).tolist() == cells.sum(axis=1).tolist()
        assert digraph.domination_number_oracle(xs, ys[0]).tolist() == [
            sum(exact_cells(row, ys[0])) for row in xs]

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
        for xs, ys in _by_shape([random_instance(rng) for _ in range(2000)]):
            kernel = digraph._cell_gammas(xs, ys)[0].sum(axis=1)
            assert digraph.domination_number_oracle(xs, ys).tolist() == kernel.tolist()

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(-0.5, 1.5, allow_nan=False), min_size=1, max_size=10, unique=True),
           st.lists(st.floats(0.0, 1.0, allow_nan=False), min_size=1, max_size=4, unique=True))
    def test_matches_exact_cells_property(self, xs, ys):
        _check_oracle(xs, ys)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(-8, 40), min_size=1, max_size=10, unique=True),
           st.lists(st.integers(0, 32), min_size=1, max_size=6, unique=True))
    def test_matches_exact_cells_on_dyadic_data(self, xs, ys):
        # on a 1/32 grid distances and radii are exact and often equal, so
        # the suspect band sends many pairs to the Fraction re-check
        _check_oracle([x / 32 for x in xs], [y / 32 for y in ys])

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(-50, 150), min_size=1, max_size=10, unique=True),
           st.lists(st.integers(0, 100), min_size=1, max_size=6, unique=True))
    def test_matches_exact_cells_on_decimal_data(self, xs, ys):
        # on a 0.01 grid distances and radii round, and some tie only in reals
        _check_oracle([x / 100 for x in xs], [y / 100 for y in ys])


def _check_cell_kernel(xs, ys):
    """The batch kernel, in both anchor layouts, against the exact per-cell reference."""
    if set(xs) & set(ys):
        return
    want = exact_cells(xs, ys)
    row, anchors = np.sort(xs)[None, :], np.sort(ys)
    for layout in (anchors, anchors[None, :]):
        cells, tied = digraph._cell_gammas(row, layout)
        assert not tied[0]
        assert cells[0].tolist() == want


class TestCellKernel:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(-0.5, 1.5, allow_nan=False), min_size=1, max_size=12, unique=True),
           st.lists(st.floats(0.0, 1.0, allow_nan=False), min_size=1, max_size=6, unique=True))
    def test_matches_exact_cells_on_continuous_data(self, xs, ys):
        _check_cell_kernel(xs, ys)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(-8, 40), min_size=1, max_size=12, unique=True),
           st.lists(st.integers(0, 32), min_size=1, max_size=6, unique=True))
    def test_matches_exact_cells_on_dyadic_data(self, xs, ys):
        # on a 1/32 grid every edge sum and doubling is exact in floats, and
        # points often sit exactly on a witness-region boundary
        _check_cell_kernel([x / 32 for x in xs], [y / 32 for y in ys])

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(-50, 150), min_size=1, max_size=12, unique=True),
           st.lists(st.integers(0, 100), min_size=1, max_size=6, unique=True))
    def test_matches_exact_cells_on_decimal_data(self, xs, ys):
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
            assert got.tolist() == exact_cells(row, ys)

    @pytest.mark.parametrize("xs, ys, tied", TIED_ROWS + ROW_END_PAIRS)
    def test_flags_tied_rows(self, xs, ys, tied):
        xs, ys = np.sort(xs, axis=1), np.sort(ys, axis=-1)
        assert digraph._cell_gammas(xs, ys)[1].tolist() == tied


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
        got = digraph._lower_bound(xs, queries.T, scale=scale)
        want = [np.searchsorted(row, q, side="left") for row, q in zip(pts, queries)]
        assert got.T.tolist() == np.array(want).tolist()

    @pytest.mark.parametrize("n", [1, 2, 5, 50])
    @pytest.mark.parametrize("scale", [1.0, 2.0])
    def test_shared_query_column_reaches_every_row(self, n, scale):
        rng = np.random.default_rng(100 + n)
        xs = np.sort(rng.integers(0, 16, size=(6, n)), axis=1) / 8
        # grid values, the gaps between them and both extremes, one (q, 1) column
        queries = np.array([-1.0, 0.0, 0.5, 0.5625, 1.0, 1.9375, 4.0, 1e9])[:, None]
        got = digraph._lower_bound(xs, queries, scale=scale)
        assert got.shape == (queries.size, xs.shape[0])
        want = [np.searchsorted(scale * row, queries[:, 0], side="left") for row in xs]
        assert got.T.tolist() == np.array(want).tolist()


class TestCellKernelWideRows:
    # the hypothesis tests stay below 60 points, where the search takes at
    # most 6 steps; these rows take 12
    @pytest.mark.parametrize("grid", [False, True])
    def test_matches_exact_cells_at_n_2500(self, grid):
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
                assert got.tolist() == exact_cells(row, anchors)
            middle |= set(cells[:, 1:-1].ravel().tolist())
        assert middle == {1, 2}


class TestUpperBound:
    def test_hand_counts(self):
        xs, ys = np.array([[-0.5, -0.125, 0.25, 0.625, 1.25]]), np.array([[0.0, 1.0]])
        k1, k2, bound = upper_bound_counts(xs, ys)
        assert (k1.tolist(), k2.tolist()) == ([1], [2])
        assert bound.tolist() == [4]

    def test_bound_holds(self):
        rng = np.random.default_rng(19)
        for _ in range(500):
            xs, ys = random_instance(rng)
            gamma = oracle_total(xs, ys)
            bound = int(upper_bound_counts(xs[None], ys[None])[2][0])
            assert 1 <= gamma <= bound <= min(len(xs), 2 * len(ys))

