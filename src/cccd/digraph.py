"""Catch digraphs built from points and anchors on the line.

Vertices are the points ``xs``; each vertex carries an open ball whose radius
is its distance to the nearest anchor in ``ys``. An arc runs from i to j when
x_j lies inside the ball of x_i. The anchors cut the line into cells, arcs
never cross a cell boundary, and the minimum dominating set size decomposes
into independent per-cell contributions, which is what the fast path exploits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

ORACLE_MAX_POINTS = 20


def _exact_radius(x, ys):
    """Distance to the nearest anchor, computed without rounding.

    Floats are dyadic rationals, so Fraction arithmetic on them is exact;
    this is what ball membership is defined against.
    """
    fx = Fraction(float(x))
    return min(abs(fx - Fraction(float(y))) for y in ys)


def _suspect_band(a, b):
    """True where a and b are within a few ulps, so a float comparison of
    the two may disagree with the exact one."""
    scale = np.maximum(np.abs(a), np.abs(b))
    return np.abs(a - b) <= 8.0 * np.spacing(scale)


@dataclass(frozen=True)
class IntervalReport:
    j: int              # 1-based cell index; 1 and m+1 are the end cells
    lo: float           # -inf for the left end cell
    hi: float           # +inf for the right end cell
    count: int
    gamma: int
    witness: tuple


@dataclass(frozen=True)
class DominationResult:
    total: int
    per_interval: tuple
    dominating_set: tuple


class CccdInstance:
    """Sorted points and anchors; rejects exact ties at construction."""

    def __init__(self, xs, ys):
        xs = np.sort(np.asarray(xs, dtype=float))
        ys = np.sort(np.asarray(ys, dtype=float))
        if xs.size == 0:
            raise ValueError("xs: need at least one point")
        if ys.size == 0:
            raise ValueError("ys: need at least one anchor")
        if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ys))):
            raise ValueError("xs/ys: all coordinates must be finite")
        dup_x = xs[:-1][np.diff(xs) == 0.0]
        if dup_x.size:
            raise ValueError(f"xs: duplicate point value {dup_x[0]!r}")
        dup_y = ys[:-1][np.diff(ys) == 0.0]
        if dup_y.size:
            raise ValueError(f"ys: duplicate anchor value {dup_y[0]!r}")
        collisions = np.intersect1d(xs, ys)
        if collisions.size:
            raise ValueError(f"xs/ys: point collides with anchor at {collisions[0]!r}")
        self.xs = xs
        self.ys = ys
        self.n = int(xs.size)
        self.m = int(ys.size)
        # cell index per point: 0..m, cell c spans (ys[c-1], ys[c])
        self.cell_of = np.searchsorted(ys, xs)

    def cell_bounds(self, c):
        """Bounds of 0-based cell c as floats, infinite at the ends."""
        lo = -math.inf if c == 0 else float(self.ys[c - 1])
        hi = math.inf if c == self.m else float(self.ys[c])
        return lo, hi

    def cell_points(self, c):
        return self.xs[self.cell_of == c]


def build_instance(xs, ys):
    return CccdInstance(xs, ys)


def arcs(xs, ys):
    """Strict ball membership for rows of points, exact at the boundary.

    ``xs`` is (R, n) and ``ys`` is (R, m) or (m,).  Returns the (R, n, n)
    array that is True at ``[r, i, j]`` when x_j lies inside the ball of x_i
    in row r, so each True is an arc i -> j.  The bulk is float comparison;
    pairs whose distance lands within a few ulps of the radius get re-checked
    in Fraction arithmetic, so the result matches the real-number predicate
    on the given float coordinates.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.broadcast_to(np.asarray(ys, dtype=float), (xs.shape[0], np.shape(ys)[-1]))
    r = np.abs(xs[:, :, None] - ys[:, None, :]).min(axis=2)[:, :, None]
    dist = np.abs(xs[:, None, :] - xs[:, :, None])
    inside = dist < r
    for k, i, j in zip(*np.nonzero(_suspect_band(dist, r))):
        if i != j:
            gap = abs(Fraction(float(xs[k, j])) - Fraction(float(xs[k, i])))
            inside[k, i, j] = gap < _exact_radius(xs[k, i], ys[k])
    diagonal = np.arange(xs.shape[1])
    inside[:, diagonal, diagonal] = False
    return inside


def _end_cell_report(instance, c, j):
    pts = instance.cell_points(c)
    lo, hi = instance.cell_bounds(c)
    if pts.size == 0:
        return IntervalReport(j, lo, hi, 0, 0, ())
    witness = float(pts.min()) if c == 0 else float(pts.max())
    return IntervalReport(j, lo, hi, int(pts.size), 1, (witness,))


def _middle_cell_report(instance, c, j):
    pts = instance.cell_points(c)
    lo, hi = instance.cell_bounds(c)
    if pts.size == 0:
        return IntervalReport(j, lo, hi, 0, 0, ())
    # all comparisons in exact arithmetic: points a rounding error away from
    # a region boundary must land on the mathematically correct side
    fpts = [Fraction(float(p)) for p in pts]
    lo_edge = max(fpts) + Fraction(lo)   # doubled-region bounds: compare to 2p
    hi_edge = min(fpts) + Fraction(hi)
    inside = [p for p in fpts if lo_edge < 2 * p < hi_edge]
    if inside:
        return IntervalReport(j, lo, hi, int(pts.size), 1, (float(min(inside)),))
    # gamma = 2: the rightmost point still covering min X, paired with the
    # leftmost point still covering max X
    left = max(p for p in fpts if 2 * p < hi_edge)
    right = min(p for p in fpts if 2 * p > lo_edge)
    return IntervalReport(j, lo, hi, int(pts.size), 2, (float(left), float(right)))


def domination_number_fast(instance):
    """Minimum dominating set size via the per-cell decomposition."""
    reports = []
    for c in range(instance.m + 1):
        j = c + 1
        if c == 0 or c == instance.m:
            reports.append(_end_cell_report(instance, c, j))
        else:
            reports.append(_middle_cell_report(instance, c, j))
    witness = sorted(w for r in reports for w in r.witness)
    total = sum(r.gamma for r in reports)
    return DominationResult(total, tuple(reports), tuple(witness))


def _two_sum(a, b):
    """``(s, e)`` with ``s = fl(a + b)`` and ``a + b = s + e`` exactly."""
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _lower_bound(xs, queries, scale=1.0):
    """Per row of the sorted (reps, n) ``xs``, the count of ``scale * xs``
    strictly below each of the (reps, q) ``queries``, for ``scale`` 1 or 2.

    A branchless binary search over the flat array: each step gathers one
    value per (row, query), so a call costs O(reps * q * log n).
    """
    flat, start = xs.ravel(), np.arange(xs.shape[0])[:, None] * xs.shape[1]
    at = np.repeat(start, queries.shape[1], axis=1)
    size = xs.shape[1]   # the count lies in [at - start, at - start + size]
    while size > 1:
        half = size // 2
        at += half * (scale * flat[at + half] < queries)
        size -= half
    return at - start + (scale * flat[at] < queries)


def _cell_gammas(xs, ys):
    """Per-cell domination contributions for batches of sorted rows.

    ``xs`` is (reps, n) and ``ys`` is (reps, m) or (m,), every row sorted.
    Returns ``(cells, tied)``: ``cells`` is the (reps, m + 1) contribution of
    each cell and ``tied`` flags rows with a repeated point, a repeated anchor
    or a point on an anchor, whose cells mean nothing.  Cells are found by
    rank, with one binary search for all anchors and one for all witnesses,
    so only the tie check reads every point and the rest costs
    O(reps * m * log n).  The cells equal those of ``domination_number_fast``:
    a doubled point is exact in floats, so a float comparison with a rounded
    edge sum can only be wrong when the two are equal, and there the sum's
    rounding error, from ``_two_sum``, decides.
    """
    reps, n = xs.shape
    ys = np.broadcast_to(ys, (reps, np.shape(ys)[-1]))
    m = ys.shape[1]
    flat, start = xs.ravel(), np.arange(reps)[:, None] * n
    tied = (xs[:, 1:] == xs[:, :-1]).any(axis=1) | (ys[:, 1:] == ys[:, :-1]).any(axis=1)
    # cell c holds the points of rank ranks[:, c] up to ranks[:, c + 1]
    ranks = np.zeros((reps, m + 2), dtype=np.intp)
    ranks[:, -1] = n
    ranks[:, 1:-1] = _lower_bound(xs, ys)
    tied |= (flat[start + np.minimum(ranks[:, 1:-1], n - 1)] == ys).any(axis=1)
    occupied = np.diff(ranks, axis=1) > 0
    cells = occupied.astype(np.int64)
    # one column per middle cell 1..m-1
    first, last = ranks[:, 1:m], ranks[:, 2:m + 1] - 1
    lo_edge, lo_err = _two_sum(flat[start + np.maximum(last, 0)], ys[:, :-1])
    hi_edge, hi_err = _two_sum(flat[start + np.minimum(first, n - 1)], ys[:, 1:])
    # 2x rises with rank and every point left of the cell has 2x <= lo_edge,
    # so a witness exists iff the first point past lo_edge is in the cell
    # and short of hi_edge; at most one 2x equals a rounded edge
    k = _lower_bound(xs, lo_edge, scale=2.0)
    at = 2.0 * flat[start + np.minimum(k, n - 1)]
    k += (k < n) & (at == lo_edge) & (lo_err >= 0.0)
    at = 2.0 * flat[start + np.minimum(k, n - 1)]
    witness = (k <= last) & ((at < hi_edge) | ((at == hi_edge) & (hi_err > 0.0)))
    cells[:, 1:m] += occupied[:, 1:m] & ~witness
    return cells, tied


def upper_bound_counts(instance):
    """(k1, k2, bound): cell-occupancy counts and the bound 2*k1 + k2."""
    k1 = k2 = 0
    for c in range(instance.m + 1):
        cnt = int(np.count_nonzero(instance.cell_of == c))
        if c == 0 or c == instance.m:
            k2 += 1 if cnt > 0 else 0
        elif cnt == 1:
            k2 += 1
        elif cnt > 1:
            k1 += 1
    return k1, k2, 2 * k1 + k2


def domination_number_oracle(xs, ys):
    """Exact domination number of each row by exhaustive subset search.

    ``xs`` is (R, n) and ``ys`` is (R, m) or (m,); rows need not be sorted.
    Independent of the cell decomposition: each point gets one cover bitmask
    (itself and the points in its ball, from ``arcs``), n doublings build the
    union for all 2^n subsets, and the answer is the smallest size of a subset
    whose union covers every point.  Rows go in chunks of at most 2^22
    subsets.  Guarded to small n; rows with a repeated point, a repeated
    anchor or a point on an anchor raise, as ``CccdInstance`` does.
    """
    xs = np.sort(np.asarray(xs, dtype=float), axis=1)
    reps, n = xs.shape
    ys = np.sort(np.broadcast_to(np.asarray(ys, dtype=float), (reps, np.shape(ys)[-1])), axis=1)
    if n > ORACLE_MAX_POINTS:
        raise ValueError(f"oracle: exhaustive search is limited to n <= {ORACLE_MAX_POINTS}, got {n}")
    tied = ((xs[:, 1:] == xs[:, :-1]).any(axis=1) | (ys[:, 1:] == ys[:, :-1]).any(axis=1)
            | (xs[:, :, None] == ys[:, None, :]).any(axis=(1, 2)))
    if tied.any():
        raise ValueError(f"oracle: row {int(np.argmax(tied))} has a repeated point, "
                         "a repeated anchor or a point on an anchor")
    bits = 1 << np.arange(n, dtype=np.int32)
    sizes = np.zeros(1 << n, dtype=np.int8)
    for i in range(n):
        sizes[1 << i:2 << i] = sizes[:1 << i] + 1
    gammas = np.empty(reps, dtype=np.int64)
    step = max(1, (1 << 22) >> n)
    for lo in range(0, reps, step):
        inside = arcs(xs[lo:lo + step], ys[lo:lo + step])
        covers = np.where(inside, bits, 0).sum(axis=2, dtype=np.int32) | bits
        union = np.zeros((covers.shape[0], 1 << n), dtype=np.int32)
        for i in range(n):
            np.bitwise_or(union[:, :1 << i], covers[:, i, None], out=union[:, 1 << i:2 << i])
        gammas[lo:lo + step] = np.where(union == (1 << n) - 1, sizes, n).min(axis=1)
    return gammas
