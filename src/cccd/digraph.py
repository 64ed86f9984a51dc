"""Catch digraphs built from points and anchors on the line.

Vertices are the points ``xs``; each vertex carries an open ball whose radius
is its distance to the nearest anchor in ``ys``. An arc runs from i to j when
x_j lies inside the ball of x_i. The anchors cut the line into cells, arcs
never cross a cell boundary, and the minimum dominating set size decomposes
into independent per-cell contributions, which is what the fast path exploits.
"""

from __future__ import annotations

import itertools
import json
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
class ProximityBall:
    center: float
    radius: float

    @property
    def lo(self):
        return self.center - self.radius

    @property
    def hi(self):
        return self.center + self.radius

    def contains(self, x):
        return self.lo < x < self.hi


@dataclass(frozen=True)
class GammaOneRegion:
    """Open interval of cell points whose ball covers the whole cell."""

    lo: float
    hi: float

    def contains(self, x):
        return self.lo < x < self.hi


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

    def to_json(self):
        return json.dumps({
            "total": self.total,
            "per_interval": [{
                "j": r.j, "lo": r.lo, "hi": r.hi, "count": r.count,
                "gamma": r.gamma, "witness": list(r.witness),
            } for r in self.per_interval],
            "dominating_set": list(self.dominating_set),
        }, sort_keys=True)


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

    def radii(self):
        """Distance from each point to its nearest anchor."""
        pos = np.searchsorted(self.ys, self.xs)
        left = np.where(pos > 0, self.xs - self.ys[np.clip(pos - 1, 0, self.m - 1)], np.inf)
        right = np.where(pos < self.m, self.ys[np.clip(pos, 0, self.m - 1)] - self.xs, np.inf)
        return np.minimum(left, right)

    def balls(self):
        return [ProximityBall(float(x), float(r)) for x, r in zip(self.xs, self.radii())]

    def cell_bounds(self, c):
        """Bounds of 0-based cell c as floats, infinite at the ends."""
        lo = -math.inf if c == 0 else float(self.ys[c - 1])
        hi = math.inf if c == self.m else float(self.ys[c])
        return lo, hi

    def cell_points(self, c):
        return self.xs[self.cell_of == c]


def build_instance(xs, ys):
    return CccdInstance(xs, ys)


def _membership(instance):
    """Strict ball membership matrix, exact at the boundary.

    The bulk is float comparison; pairs whose distance lands within a few
    ulps of the radius get re-checked in Fraction arithmetic, so the result
    matches the real-number predicate on the given float coordinates.
    """
    x = instance.xs
    r = instance.radii()
    dist = np.abs(x[None, :] - x[:, None])
    inside = dist < r[:, None]
    suspect = _suspect_band(dist, r[:, None])
    np.fill_diagonal(suspect, False)
    for i, j in zip(*np.nonzero(suspect)):
        gap = abs(Fraction(float(x[j])) - Fraction(float(x[i])))
        inside[i, j] = gap < _exact_radius(x[i], instance.ys)
    np.fill_diagonal(inside, False)
    return inside


def arcs(instance):
    """All arcs (i, j) by sorted point index, i -> j when x_j is in ball i."""
    ii, jj = np.nonzero(_membership(instance))
    return list(zip(ii.tolist(), jj.tolist()))


def boundary_contacts(instance):
    """Pairs (i, j) where x_j sits exactly on the boundary of ball i.

    Membership is strict, so these are non-arcs; they are surfaced as a
    diagnostic because they usually indicate constructed or degenerate data.
    """
    x = instance.xs
    r = instance.radii()
    dist = np.abs(x[None, :] - x[:, None])
    suspect = _suspect_band(dist, r[:, None])
    np.fill_diagonal(suspect, False)
    out = []
    for i, j in zip(*np.nonzero(suspect)):
        gap = abs(Fraction(float(x[j])) - Fraction(float(x[i])))
        if gap == _exact_radius(x[i], instance.ys):
            out.append((int(i), int(j)))
    return out


def gamma_one_region(instance, j):
    """The region of cell j (1-based, middle cells only) giving gamma = 1."""
    if not 2 <= j <= instance.m:
        raise ValueError(f"j: middle cells are 2..{instance.m}, got {j}")
    c = j - 1
    pts = instance.cell_points(c)
    if pts.size == 0:
        raise ValueError(f"j: cell {j} contains no points")
    lo_anchor, hi_anchor = instance.cell_bounds(c)
    return GammaOneRegion(0.5 * (pts.max() + lo_anchor), 0.5 * (pts.min() + hi_anchor))


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


def _cell_gammas(xs, ys):
    """Per-cell domination contributions for batches of sorted rows.

    ``xs`` is (reps, n) and ``ys`` is (reps, m) or (m,), every row sorted.
    Returns ``(cells, tied)``: ``cells`` is the (reps, m + 1) contribution of
    each cell and ``tied`` flags rows with a repeated point, a repeated anchor
    or a point on an anchor, whose cells mean nothing.  Cells are found by
    rank, so each anchor costs one pass over the points and each middle cell
    one more.  The cells equal those of ``domination_number_fast``: a doubled
    point is exact in floats, so a float comparison with a rounded edge sum
    can only be wrong when the two are equal, and there the sum's rounding
    error, from ``_two_sum``, decides.
    """
    reps, n = xs.shape
    ys = np.broadcast_to(ys, (reps, np.shape(ys)[-1]))
    m = ys.shape[1]
    rows = np.arange(reps)
    tied = (np.diff(xs, axis=1) == 0.0).any(axis=1) | (np.diff(ys, axis=1) == 0.0).any(axis=1)
    # cell c holds the points of rank ranks[:, c] up to ranks[:, c + 1]
    ranks = np.zeros((reps, m + 2), dtype=np.intp)
    ranks[:, -1] = n
    for c in range(m):
        ranks[:, c + 1] = np.count_nonzero(xs < ys[:, c, None], axis=1)
        tied |= xs[rows, np.minimum(ranks[:, c + 1], n - 1)] == ys[:, c]
    occupied = np.diff(ranks, axis=1) > 0
    cells = occupied.astype(np.int64)
    doubled = 2.0 * xs
    for c in range(1, m):
        first, last = ranks[:, c], ranks[:, c + 1] - 1
        lo_edge, lo_err = _two_sum(xs[rows, np.maximum(last, 0)], ys[:, c - 1])
        hi_edge, hi_err = _two_sum(xs[rows, np.minimum(first, n - 1)], ys[:, c])
        # 2x rises with rank and every point left of the cell has 2x <= lo_edge,
        # so a witness exists iff the first point past lo_edge is in the cell
        # and short of hi_edge; at most one 2x equals a rounded edge
        k = np.count_nonzero(doubled < lo_edge[:, None], axis=1)
        at = doubled[rows, np.minimum(k, n - 1)]
        k += (k < n) & (at == lo_edge) & (lo_err >= 0.0)
        at = doubled[rows, np.minimum(k, n - 1)]
        witness = (k <= last) & ((at < hi_edge) | ((at == hi_edge) & (hi_err > 0.0)))
        cells[:, c] += occupied[:, c] & ~witness
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


def domination_number_oracle(instance):
    """Exact minimum dominating set by exhaustive subset search.

    Independent of the cell decomposition: works on the raw arc list,
    splitting only by weakly connected components. Guarded to small n.
    """
    n = instance.n
    if n > ORACLE_MAX_POINTS:
        raise ValueError(f"oracle: exhaustive search is limited to n <= {ORACLE_MAX_POINTS}, got {n}")
    arc_list = arcs(instance)
    adj = [set() for _ in range(n)]
    cover = [1 << i for i in range(n)]
    for i, j in arc_list:
        adj[i].add(j)
        adj[j].add(i)
        cover[i] |= 1 << j
    seen = [False] * n
    total = 0
    for start in range(n):
        if seen[start]:
            continue
        comp = []
        stack = [start]
        seen[start] = True
        while stack:
            v = stack.pop()
            comp.append(v)
            for w in adj[v]:
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
        target = 0
        for v in comp:
            target |= 1 << v
        found = None
        for size in range(1, len(comp) + 1):
            for subset in itertools.combinations(comp, size):
                mask = 0
                for v in subset:
                    mask |= cover[v]
                if mask & target == target:
                    found = size
                    break
            if found is not None:
                break
        total += found
    return total


def transformed_digraph_gamma(model, xs, ys=(0.0, 1.0)):
    """Domination number after mapping the points through the model cdf.

    The anchors must be {0, 1} (the model support endpoints); the image
    instance keeps the same anchors because the cdf fixes them.
    """
    ys = tuple(sorted(float(v) for v in ys))
    if ys != (0.0, 1.0):
        raise ValueError(f"ys: transformed digraphs are defined for anchors (0, 1), got {ys}")
    if not (model.support.lo == 0.0 and model.support.hi == 1.0):
        raise ValueError("model: transformed digraphs need unit support")
    xs = np.asarray(xs, dtype=float)
    if np.any((xs <= 0.0) | (xs >= 1.0)):
        raise ValueError("xs: points must lie strictly inside (0, 1)")
    images = model.cdf(xs)
    return domination_number_fast(build_instance(images, ys))


def transformed_ball(model, x):
    """Pullback, to original coordinates, of the image-space ball at x.

    The image point F(x) has radius min(F(x), 1 - F(x)) toward the anchors
    {0, 1}; applying the quantile to the clipped image ball gives the set of
    original points whose images it catches.
    """
    x = float(x)
    if not 0.0 < x < 1.0:
        raise ValueError(f"x: point must lie strictly inside (0, 1), got {x}")
    u = float(model.cdf(x))
    r = min(u, 1.0 - u)
    lo = float(model.quantile(max(0.0, u - r)))
    hi = float(model.quantile(min(1.0, u + r)))
    return lo, hi


# plain-text and JSON round trips

def instance_to_text(instance):
    lines = ([f"x {float(v)!r}" for v in instance.xs]
             + [f"y {float(v)!r}" for v in instance.ys])
    return "\n".join(lines) + "\n"


def instance_from_text(text):
    xs, ys = [], []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2 or parts[0] not in ("x", "y"):
            raise ValueError(f"line {lineno}: expected 'x <value>' or 'y <value>', got {raw!r}")
        try:
            value = float(parts[1])
        except ValueError:
            raise ValueError(f"line {lineno}: not a number: {parts[1]!r}") from None
        (xs if parts[0] == "x" else ys).append(value)
    return build_instance(xs, ys)


def instance_to_json(instance):
    return json.dumps({"xs": instance.xs.tolist(), "ys": instance.ys.tolist()},
                      sort_keys=True)


def instance_from_json(text):
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise ValueError(f"instance JSON: {e}") from e
    if not isinstance(obj, dict) or set(obj) != {"xs", "ys"}:
        raise ValueError("instance JSON: expected an object with keys xs and ys")
    return build_instance(obj["xs"], obj["ys"])
