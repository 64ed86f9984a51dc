"""Catch digraphs built from points and anchors on the line.

Vertices are the points ``xs``; each vertex carries an open ball whose radius
is its distance to the nearest anchor in ``ys``. An arc runs from i to j when
x_j lies inside the ball of x_i. The anchors cut the line into cells, arcs
never cross a cell boundary, and the minimum dominating set size decomposes
into independent per-cell contributions, which ``_cell_gammas`` computes.
"""

from __future__ import annotations

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


def _two_sum(a, b):
    """``(s, e)`` with ``s = fl(a + b)`` and ``a + b = s + e`` exactly."""
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _lower_bound(xs, queries, scale=1.0):
    """Per row r of the sorted (reps, n) ``xs``, the count of ``scale * xs[r]``
    strictly below each query in column r of the (q, reps) ``queries``, or in
    one (q, 1) column shared by all rows, for ``scale`` 1 or 2.

    A branchless binary search over the flat array: each step gathers one
    value per (query, row), so a call costs O(q * reps * log n).
    """
    flat, start = xs.ravel(), np.arange(xs.shape[0]) * xs.shape[1]
    at = np.zeros(queries.shape, dtype=np.intp) + start
    size = xs.shape[1]   # the count lies in [at - start, at - start + size]
    while size > 1:
        half = size // 2
        at += half * (scale * flat[half:].take(at) < queries)
        size -= half
    return at - start + (scale * flat.take(at) < queries)


def _cell_gammas(xs, ys):
    """Per-cell domination contributions for batches of sorted rows.

    ``xs`` is (reps, n) and ``ys`` is (reps, m) or (m,), every row sorted.
    Returns ``(cells, tied)``: ``cells`` is the (reps, m + 1) contribution of
    each cell, a transposed view, and ``tied`` flags rows with a repeated
    point, a repeated anchor or a point on an anchor, whose cells mean nothing.
    Work arrays are (cells, reps), so every pass runs along the long reps axis.
    The tie check reads the flat sorted array once, and cells are found by
    rank, with one binary search for all anchors and one for all witnesses,
    so the rest costs O(reps * m * log n).  An occupied end cell gives 1; an
    occupied middle cell (lo, hi) gives 1 when some point p in it has
    max + lo < 2p < min + hi in real arithmetic (max and min over the cell),
    and 2 otherwise.  A doubled point is exact in floats, so a float comparison
    with a rounded edge sum can only be wrong when the two are equal, and
    there the sum's rounding error, from ``_two_sum``, decides.
    """
    reps, n = xs.shape
    flat, start = xs.ravel(), np.arange(reps) * n
    ys = np.atleast_2d(ys).T   # (m, reps), or (m, 1) when the anchors are shared
    m = len(ys)
    # cell c holds the points of rank ranks[c] up to ranks[c + 1]
    ranks = np.empty((m + 2, reps), dtype=np.intp)
    ranks[0], ranks[-1] = 0, n
    ranks[1:-1] = _lower_bound(xs, ys)
    tied = ((ys[1:] == ys[:-1]).any(axis=0)
            | (flat.take(start + np.minimum(ranks[1:-1], n - 1)) == ys).any(axis=0))
    hits = np.flatnonzero(flat[1:] == flat[:-1])
    tied[hits[hits % n != n - 1] // n] = True   # equal neighbours within a row
    occupied = ranks[1:] > ranks[:-1]
    cells = occupied.astype(np.int64)
    # one row per middle cell 1..m-1
    first, last = ranks[1:m], ranks[2:m + 1] - 1
    lo_edge, lo_err = _two_sum(flat.take(start + np.maximum(last, 0)), ys[:-1])
    hi_edge, hi_err = _two_sum(flat.take(start + np.minimum(first, n - 1)), ys[1:])
    # 2x rises with rank and every point left of the cell has 2x <= lo_edge,
    # so a witness exists iff the first point past lo_edge is in the cell
    # and short of hi_edge; at most one 2x equals a rounded edge
    k = _lower_bound(xs, lo_edge, scale=2.0)
    at = 2.0 * flat.take(start + np.minimum(k, n - 1))
    k += (k < n) & (at == lo_edge) & (lo_err >= 0.0)
    at = 2.0 * flat.take(start + np.minimum(k, n - 1))
    witness = (k <= last) & ((at < hi_edge) | ((at == hi_edge) & (hi_err > 0.0)))
    cells[1:m] += occupied[1:m] & ~witness
    return cells.T, tied


def domination_number_oracle(xs, ys):
    """Exact domination number of each row by exhaustive subset search.

    ``xs`` is (R, n) and ``ys`` is (R, m) or (m,); rows need not be sorted.
    Independent of the cell decomposition: each point gets one cover bitmask
    (itself and the points in its ball, from ``arcs``), n doublings build the
    union for all 2^n subsets, and the answer is the smallest size of a subset
    whose union covers every point.  Rows go in chunks of at most 2^22
    subsets.  Guarded to small n; rows with a repeated point, a repeated
    anchor or a point on an anchor, where the digraph is undefined, raise.
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
