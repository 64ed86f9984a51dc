"""Density families with known endpoint behavior.

The law of the domination number is invariant under affine maps, so every family
lives on the unit interval; ``GeneralLinear`` alone takes another support.  Every
family exposes a vectorized pdf/cdf/quantile triple and the leading term c t^a of
the density beside the support landmarks "lo", "mid" and "hi".
Models are immutable value objects; constructors validate parameters and check
that the density integrates to 1.

The uniform, step, linear and piece-quadratic families are piecewise polynomials
with exact rational coefficients. One class holds their pieces and derives every
evaluator from them; its quantile inverts a piece linearly where the cdf has
degree 1, by the stable quadratic root at degree 2, and by Newton above that.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

MASS_TOL = 1e-10
BETA_CELLS, BETA_END_CELLS = 8192, 32  # Beta quantile table; end cells go to betaincinv
# values per pass of the table route, whose 64 KiB temporaries stay under glibc's default
# 128 KiB mmap threshold and so reuse heap pages from pass to pass (256 KiB passes took 3.6
# times the minor page faults on simulate's 1 MiB chunks); x below which the series is used
BETA_CHUNK, BETA_TAIL_X = 2 ** 13, 2.0 ** -60
# 3-point Gauss-Legendre rule on [-1, 1]: the doubles leggauss(3) returns, written out so that
# importing the module skips numpy.polynomial; the end weight is not the double nearest 5/9
_GAUSS3 = (np.array([-0.7745966692414834, 0.0, 0.7745966692414834]),
           np.array([0.5555555555555557, 0.8888888888888888, 0.5555555555555557]))
# nested 7/15 Gauss-Kronrod rule on [-1, 1] (QUADPACK's qk15): nodes, Kronrod weights, Gauss weights of odd nodes
_KX = np.array([0.991455371120812639, 0.949107912342758525, 0.864864423359769073, 0.741531185599394440,
                0.586087235467691130, 0.405845151377397167, 0.207784955007898468])
_KW = np.array([0.022935322010529225, 0.063092092629978553, 0.104790010322250184, 0.140653259715525919,
                0.169004726639267903, 0.190350578064785410, 0.204432940075298892, 0.209482141084727828])
_GW = np.array([0.129484966168869693, 0.279705391489276668, 0.381830050505118945, 0.417959183673469388])
_KRONROD15 = (np.concatenate([-_KX, [0.0], _KX[::-1]]), np.concatenate([_KW, _KW[-2::-1]]),
              np.concatenate([_GW, _GW[-2::-1]]))
# mass check: panels per knot piece at the start, error budget, caps on rounds and live panels
_MASS_PANELS, _MASS_BUDGET, _MASS_ROUNDS, _MASS_LIVE = 32, 1e-12, 60, 2 ** 14


class _LazySpecial:
    """Stands in for ``scipy.special`` until the first attribute read, which imports it and
    rebinds this module's ``special`` to it.  The import takes about 0.3 s, and only the Beta
    cdf and quantile, the Beta normalizer at non-integer shapes, the ``TruncatedNormal`` cdf
    and quantile, and a ``TruncatedNormal`` whose mode lies outside [0, 1] use it."""

    def __getattr__(self, name):
        global special
        from scipy import special
        return getattr(special, name)


special = _LazySpecial()


@dataclass(frozen=True)
class SupportInterval:
    lo: float
    hi: float

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError(f"support: ends must be finite, got [{self.lo}, {self.hi}]")
        if not self.lo < self.hi:
            raise ValueError(f"support: lo={self.lo} must be < hi={self.hi}")

    @property
    def width(self):
        return self.hi - self.lo


def _as_array(x):
    return np.asarray(x, dtype=float)


def _scalar_like(x, out):
    if np.isscalar(x) or (isinstance(x, np.ndarray) and x.ndim == 0):
        return float(out)
    return out


class DensityModel:
    """Base class: a named density on ``support``, the unit interval unless a family sets its own.
    A family supplies ``_pdf``, ``_cdf`` and ``_quantile`` on points of the support, and
    ``_leading``, the leading terms beside the landmarks that the large-n limit reads.
    ``unbounded`` marks a density that diverges at the support edge."""

    family = "base"
    unbounded = False
    support = SupportInterval(0.0, 1.0)
    _param_names = ()  # the constructor's arguments other than support, each kept as an attribute
    # degree d of the pdf where it is one polynomial between interior knots, else None; anchor
    # rules take their node counts from it, so it must never be below the true degree
    polynomial_degree = None

    def __init__(self):
        self._check_mass()

    # parameters as a plain dict, used by the JSON spec round trip
    @property
    def params(self):
        return {name: getattr(self, name) for name in self._param_names}

    def interior_knots(self):
        """Points inside the support where pdf or its derivatives jump."""
        return []

    def to_unit(self):
        """The same law on [0, 1], where every family but ``GeneralLinear`` already lives."""
        return self

    def piecewise_polynomial_parts(self):
        """Per piece (lo, hi, pdf coefficients in t = x - lo) as Fractions; None if not piecewise polynomial."""
        return None

    def _in_support(self, a):
        """True for a nonempty array inside the support: no mask needed.  NaN fails, scalars go masked."""
        return a.ndim > 0 and a.size > 0 and a.min() >= self.support.lo and a.max() <= self.support.hi

    def pdf(self, x):
        a = _as_array(x)
        if self._in_support(a):
            return self._pdf(a)
        inside = (a >= self.support.lo) & (a <= self.support.hi)
        out = np.where(inside, self._pdf(np.clip(a, self.support.lo, self.support.hi)), 0.0)
        return _scalar_like(x, out)

    def cdf(self, x):
        a = _as_array(x)
        if self._in_support(a):
            out = self._cdf(a)
            return np.clip(out, 0.0, 1.0, out=None if out is a else out)
        clipped = np.clip(a, self.support.lo, self.support.hi)
        out = np.clip(self._cdf(clipped), 0.0, 1.0)
        out = np.where(a < self.support.lo, 0.0, out)
        out = np.where(a > self.support.hi, 1.0, out)
        return _scalar_like(x, out)

    def quantile(self, u):
        a = _as_array(u)
        out = self._unit_quantile(a)
        return _scalar_like(u, out.copy() if out is a else out)

    def _unit_quantile(self, a):
        """Checked quantile, clipped in place to the support, or ``a`` itself when the
        quantile is the identity: the support is then [0, 1], where the checked
        ``a`` needs no clip, and a caller that owns ``a`` pays no copy."""
        # NaN fails both comparisons, and min and max propagate it
        if a.size and not (a.min() >= 0 and a.max() <= 1):
            raise ValueError(f"quantile: u must lie in [0,1], got {a[(a < 0) | (a > 1) | ~np.isfinite(a)][:1]}")
        out, lo, hi = self._quantile(a), self.support.lo, self.support.hi
        return out if out is a else np.clip(out, lo, hi, out=out if np.ndim(out) else None)

    def leading_term(self, point, side):
        """(c, a) with f = c t^a (1 + o(1)) at distance t from the landmark ``point`` names, "lo",
        "mid" or "hi", on ``side``; (0.0, inf) where f vanishes identically there."""
        if point not in ("lo", "mid", "hi"):
            raise ValueError(f"point: expected the landmark name 'lo', 'mid' or 'hi', got {point!r}")
        if side not in ("+", "-"):
            raise ValueError(f"side: expected '+' or '-', got {side!r}")
        if point == "lo" and side == "-":
            raise ValueError("side: only '+' is defined at the lower support endpoint")
        if point == "hi" and side == "+":
            raise ValueError("side: only '-' is defined at the upper support endpoint")
        c, a = self._leading(point, side)
        return float(c), float(a)

    def _check_mass(self):
        mass = self._mass()
        if not abs(mass - 1.0) <= MASS_TOL:  # NaN fails this test too
            raise ValueError(f"{self.family}: density mass {mass!r} deviates from 1 beyond {MASS_TOL}")

    def _mass(self):
        knots = sorted(k for k in self.interior_knots() if self.support.lo < k < self.support.hi)
        return self._gauss_mass(self.pdf, [self.support.lo, *knots, self.support.hi])

    def _gauss_mass(self, f, breaks):
        """Integral of the vectorized ``f`` between the sorted ``breaks``.  Each round keeps the panels
        whose nested 7/15 Gauss-Kronrod sums differ by at most an equal share of the budget left."""
        a = np.concatenate([np.linspace(lo, hi, _MASS_PANELS + 1)[:-1] for lo, hi in zip(breaks, breaks[1:])])
        b, total, spent = np.append(a[1:], breaks[-1]), 0.0, 0.0
        for _ in range(_MASS_ROUNDS):
            half, mid = 0.5 * (b - a), 0.5 * (b + a)
            vals = f(mid + half * _KRONROD15[0][:, None])
            fine, coarse = half * (_KRONROD15[1] @ vals), half * (_KRONROD15[2] @ vals[1::2])
            err = np.abs(fine - coarse)
            split = err > (_MASS_BUDGET - spent) / err.size  # NaN splits nothing
            total, spent = total + fine[~split].sum(), spent + err[~split].sum()
            if not split.any() or 2 * np.count_nonzero(split) > _MASS_LIVE:
                break
            a, b = np.concatenate([a[split], mid[split]]), np.concatenate([mid[split], b[split]])
        if split.any():
            raise ValueError(f"{self.family}: density mass did not converge in {_MASS_ROUNDS} rounds "
                             f"of at most {_MASS_LIVE} panels")
        return float(total)

    def __repr__(self):
        inner = ", ".join(f"{k}={v!r}" for k, v in self.params.items())
        return f"{type(self).__name__}({inner})"

    def __eq__(self, other):
        return (type(self) is type(other) and self.params == other.params
                and self.support == other.support)

    def __hash__(self):
        return hash((type(self).__name__, tuple(sorted(self.params.items())),
                     self.support.lo, self.support.hi))


def _float_rows(polys):
    """Row k holds every piece's coefficient of t^k, rounded once."""
    return np.array(list(itertools.zip_longest(*polys, fillvalue=0)), dtype=float)


def _piece(knots, x):
    """The count of knots at or below x, one comparison per knot: ``searchsorted(knots, x,
    side="right")`` at every x but NaN, which counts 0.  No family has more than two interior
    knots, and on random keys the binary search mispredicts its branch at every level."""
    i = (x >= knots[0]).astype(np.intp)
    for knot in knots[1:]:
        i += x >= knot
    return i


class _PiecewisePolynomial(DensityModel):
    """A density that is one polynomial with exact rational coefficients on each piece.

    A family passes its knots, Fractions from lo to hi, and per piece the pdf's coefficients in
    t = x - piece start; the exact cdf, float rows for Horner's rule on the pdf and cdf, the
    leading terms (exact, rounded once) and the degree derive from them.
    """

    def __init__(self, knots, pieces):
        knots, self._parts, cdfs, mass = [Fraction(k) for k in knots], [], [], Fraction(0)
        for lo, hi, coefs in zip(knots, knots[1:], pieces):
            self._parts.append((lo, hi, tuple(Fraction(c) for c in coefs)))
            cdfs.append([mass, *(c / (k + 1) for k, c in enumerate(self._parts[-1][2]))])
            mass = sum(c * (hi - lo) ** k for k, c in enumerate(cdfs[-1]))
        pdfs = [coefs for _, _, coefs in self._parts]
        self.polynomial_degree = max((k for p in pdfs for k, c in enumerate(p) if c), default=0)
        self._pdf_rows = _float_rows(pdfs)
        self._cdf_rows = _float_rows(cdfs)
        self._starts = np.array([float(lo) for lo in knots[:-1]])
        self._widths = np.array([float(hi - lo) for lo, hi in zip(knots, knots[1:])])
        # the cdf's degree picks the inverse; on a piece without mass the linear
        # inverse v / height divides by inf, which puts u at the piece start
        self._inverse = min(self.polynomial_degree + 1, 3)
        self._heights = np.where(self._pdf_rows[0] > 0, self._pdf_rows[0], np.inf)
        self._exact_mass = mass
        super().__init__()

    def _keep_delta(self, delta, inside, needs):
        """Keep a family's delta as a float once ``inside`` accepts it, and return it as a Fraction."""
        d = float(delta)
        if not inside(d):
            raise ValueError(f"delta: {self.family} needs {needs}, got {d}")
        self.delta = d
        return Fraction(d)

    def interior_knots(self):
        return [float(lo) for lo, _, _ in self._parts[1:]]

    def _mass(self):
        """The pieces' exact mass, rounded once."""
        return float(self._exact_mass)

    def piecewise_polynomial_parts(self):
        return list(self._parts)

    def _at(self, rows, x):
        """The polynomial of the float rows at points x of the support.  One piece skips the search,
        and the subtraction t = x - 0; a constant on each piece is gathered."""
        one = self._starts.size == 1
        i = 0 if one else _piece(self._starts[1:], x)
        if len(rows) == 1:
            return np.full_like(x, rows[0][0]) if one else rows[0][i]
        return self._horner(rows, i, x if one and self._starts[0] == 0.0 else x - self._starts[i])

    @staticmethod
    def _horner(rows, i, t):
        """Horner's rule, in place, on rows of degree 1 and up at pieces i and offsets t."""
        out = rows[-1][i] * t
        for row in rows[-2:0:-1]:
            out += row[i]
            out *= t
        if rows[0].any():
            out += rows[0][i]
        return out

    def _pdf(self, x):
        return self._at(self._pdf_rows, x)

    def _cdf(self, x):
        return self._at(self._cdf_rows, x)

    def _quantile(self, u):
        if self._starts.size == 1:
            i, v = 0, u
        else:
            i = _piece(self._cdf_rows[0][1:], u)
            v = u - self._cdf_rows[0][i]
        if self._inverse == 1:
            t = v / self._heights[i]
        elif self._inverse == 2:
            g, a = self._pdf_rows[0][i], self._pdf_rows[1][i]
            disc = np.sqrt(np.maximum(g * g + 2.0 * a * v, 0.0))
            # g + disc is 0 only at v = 0 with a zero density at the piece start; the floor makes 0/0 a 0
            t = 2.0 * v / np.maximum(g + disc, np.finfo(float).tiny)
        else:
            t = self._newton(i, v)
        return self._starts[i] + t

    def _newton(self, i, v):
        """t in [0, width] where the cdf has risen by v from the piece start.  Each term c t^k of
        the rise alone reaches v at (v / c)^(1/k); the least of these starts Newton.  A step that
        would leave the bracket bisects it instead, and a value stops once its step is within an
        ulp of x or its bracket within four.  A stopped value keeps its t; once the stopped values
        are at least half of a pass, they are dropped from the passes that follow (dropping fewer
        costs more in copies than it saves)."""
        shape, v = np.shape(v), np.ravel(v)
        i = np.broadcast_to(i, shape).ravel()
        lo, hi = np.zeros_like(v), np.zeros_like(v) + self._widths[i]
        rise, t = np.vstack([0.0 * self._cdf_rows[0], self._cdf_rows[1:]]), hi
        out, live = np.empty_like(v), np.arange(v.size)
        with np.errstate(divide="ignore", invalid="ignore"):
            for k, row in enumerate(rise[1:], 1):
                t = np.fmin(t, v ** (1.0 / k) / (row ** (1.0 / k))[i])
            for _ in range(100):  # a safety cap: from its start, Newton needs a few steps
                excess = self._horner(rise, i, t) - v
                lo, hi = np.where(excess <= 0.0, t, lo), np.where(excess >= 0.0, t, hi)
                step = t - excess / self._horner(self._pdf_rows, i, t)
                ulp = np.spacing(self._starts[i] + t)
                done = (np.abs(step - t) <= ulp) | (hi - lo <= 4.0 * ulp)
                stopped = np.count_nonzero(done)
                if stopped == done.size:
                    break
                nxt = np.where((lo < step) & (step < hi), step, 0.5 * (lo + hi))
                if 2 * stopped < done.size:
                    t = np.where(done, t, nxt)
                    continue
                out[live[done]] = t[done]
                go = np.flatnonzero(~done)
                live, i, v, lo, hi, t = live[go], i[go], v[go], lo[go], hi[go], nxt[go]
        out[live] = t
        return out.reshape(shape)

    def _leading(self, which, side):
        """The first nonzero Taylor coefficient at x of the adjacent piece; on the left of x the
        distance is x - y, which gives the coefficient of (y - x)^j the sign (-1)^j."""
        lo, hi = self._parts[0][0], self._parts[-1][1]
        x = {"lo": lo, "hi": hi, "mid": (lo + hi) / 2}[which]
        start, _, coefs = next(p for p in self._parts if (p[0] <= x < p[1] if side == "+" else p[0] < x <= p[1]))
        for j in range(len(coefs)):
            e = sum(math.comb(k, j) * c * (x - start) ** (k - j) for k, c in enumerate(coefs[j:], j))
            if e:
                return float(e if side == "+" else (-1) ** j * e), j
        return 0.0, math.inf


class Uniform(_PiecewisePolynomial):
    family = "uniform"

    def __init__(self):
        super().__init__([0, 1], [[1]])

    # the identity, with no copy: simulate sends every uniform draw through it
    def _cdf(self, x):
        return x

    def _quantile(self, u):
        return u


class ShrunkUniform(_PiecewisePolynomial):
    """Uniform mass pulled onto [delta, 1-delta] inside the unit interval."""

    family = "shrunk_uniform"
    _param_names = ("delta",)

    def __init__(self, delta):
        fd = self._keep_delta(delta, lambda d: 0.0 <= d < 0.5, "0 <= delta < 1/2")
        h = 1 / (1 - 2 * fd)
        knots, heights = ([0, 1], [1]) if fd == 0 else ([0, fd, 1 - fd, 1], [0, h, 0])
        super().__init__(knots, [[height] for height in heights])


class GapUniform(_PiecewisePolynomial):
    """Uniform with a symmetric central gap of half-width delta."""

    family = "gap_uniform"
    _param_names = ("delta",)

    def __init__(self, delta):
        fd = self._keep_delta(delta, lambda d: 0.0 <= d < 0.5, "0 <= delta < 1/2")
        h = 1 / (1 - 2 * fd)
        if fd == 0:
            knots, heights = [0, 1], [1]
        else:
            knots, heights = [0, Fraction(1, 2) - fd, Fraction(1, 2) + fd, 1], [h, 0, h]
        super().__init__(knots, [[height] for height in heights])


class TwoStep(_PiecewisePolynomial):
    """Heights 1+delta and 1-delta on the two halves of the unit interval."""

    family = "two_step"
    _param_names = ("delta",)

    def __init__(self, delta):
        fd = self._keep_delta(delta, lambda d: -1.0 <= d <= 1.0, "-1 <= delta <= 1")
        super().__init__([0, Fraction(1, 2), 1], [[1 + fd], [1 - fd]])


class ThreeStep(_PiecewisePolynomial):
    """Heights 1+delta, 1-delta, 1+delta on quarters (0,1/4,3/4,1)."""

    family = "three_step"
    _param_names = ("delta",)

    def __init__(self, delta):
        fd = self._keep_delta(delta, lambda d: -1.0 <= d <= 1.0, "-1 <= delta <= 1")
        super().__init__([0, Fraction(1, 4), Fraction(3, 4), 1],
                         [[1 + fd], [1 - fd], [1 + fd]])


class GeneralLinear(_PiecewisePolynomial):
    """Linear density a x + b on an arbitrary interval, normalized to mass 1."""

    family = "general_linear"
    _param_names = ("a",)

    def __init__(self, a, support):
        a = float(a)
        s = support if isinstance(support, SupportInterval) else SupportInterval(*map(float, support))
        # the slope bound needs the width's square as a normal double
        if not 2.0 ** -511 <= s.width < 2.0 ** 511:
            raise ValueError(f"support: general_linear needs a width in [2**-511, 2**511), got {s.width}")
        # the bound is on the slope that ``to_unit`` hands to Linear, and the pieces take it too
        self._unit_a = a * s.width ** 2
        if not abs(self._unit_a) <= 2.0:  # NaN fails this test too
            raise ValueError(f"a: {self.family} slope must satisfy |a * width^2| <= 2, got {a}")
        self.a, self.support = a, s
        # mass 1 puts the height 1/width at the midpoint: (1 - A/2)/width + (A/width^2)(x - lo)
        unit, width = Fraction(self._unit_a), Fraction(s.hi) - Fraction(s.lo)
        super().__init__([s.lo, s.hi], [[(1 - unit / 2) / width, unit / width ** 2]])

    def to_unit(self):
        """The same shape rescaled onto [0,1]: Linear(a * width^2), or self already there."""
        if self.support == DensityModel.support:
            return self
        return Linear(self._unit_a)

    def _pdf(self, x):  # where A = -2, the rounded c0 + c1 (hi - lo) can fall an ulp below 0
        return np.maximum(super()._pdf(x), 0.0)


class Linear(GeneralLinear):
    """f(x) = a x + (1 - a/2) on the unit interval, |a| <= 2."""

    family = "linear"

    def __init__(self, a):
        super().__init__(a, DensityModel.support)


class SquareCdf(Linear):
    """Linear(2): f(x) = 2x, so the cdf is x^2 and the quantile sqrt(u)."""

    family = "square_cdf"
    _param_names = ()

    def __init__(self):
        super().__init__(2.0)

    def _quantile(self, u):
        return np.sqrt(u)


class QPower(DensityModel):
    """Density (q+1) 2^q t^q with t the distance past 0 or past 1/2."""

    family = "q_power"
    _param_names = ("q",)

    def __init__(self, q):
        q = float(q)
        if q < 0.0:
            raise ValueError(f"q: q_power exponent must be >= 0, got {q}")
        self.q = q
        self._c = (q + 1.0) * 2.0 ** q
        super().__init__()

    @property
    def polynomial_degree(self):
        return int(self.q) if self.q.is_integer() else None

    def interior_knots(self):
        return [0.5]

    def _t(self, x):
        return np.where(x <= 0.5, x, x - 0.5)

    def _pdf(self, x):
        return self._c * self._t(x) ** self.q

    def _cdf(self, x):
        t = self._t(x)
        half = 2.0 ** self.q * t ** (self.q + 1.0)
        return np.where(x <= 0.5, half, 0.5 + half)

    def _quantile(self, u):
        v = np.where(u <= 0.5, u, u - 0.5)
        t = (v / 2.0 ** self.q) ** (1.0 / (self.q + 1.0))
        return np.where(u <= 0.5, t, 0.5 + t)

    def _leading(self, which, side):
        # c t^q past 0 and past 1/2; before 1/2 and 1 the branch stands at half-width 1/2
        if side == "+":
            return self._c, self.q
        return self._c * 0.5 ** self.q, 0.0


class PieceQuadratic(_PiecewisePolynomial):
    """delta + 12(1-delta) t^2 with t the distance past 0 or past 1/2."""

    family = "piece_quadratic"
    _param_names = ("delta",)

    def __init__(self, delta):
        fd = self._keep_delta(delta, lambda d: 0.0 <= d <= 1.0, "0 <= delta <= 1")
        super().__init__([0, Fraction(1, 2), 1], [[fd, 0, 12 * (1 - fd)]] * 2)


class AbsSine(DensityModel):
    """f(x) = (pi/2) |sin(2 pi x)| on the unit interval."""

    family = "abs_sine"

    def interior_knots(self):
        return [0.5]

    def _pdf(self, x):
        return 0.5 * np.pi * np.abs(np.sin(2.0 * np.pi * x))

    def _cdf(self, x):
        co = np.cos(2.0 * np.pi * x)
        return np.where(x <= 0.5, 0.25 * (1.0 - co), 0.25 * (3.0 + co))

    def _quantile(self, u):
        lof = np.arccos(np.clip(1.0 - 4.0 * u, -1.0, 1.0)) / (2.0 * np.pi)
        hif = 1.0 - np.arccos(np.clip(4.0 * u - 3.0, -1.0, 1.0)) / (2.0 * np.pi)
        return np.where(u <= 0.5, lof, hif)

    def _leading(self, which, side):
        # (pi/2) sin(2 pi t) beside every landmark
        return math.pi ** 2, 1.0


class ArcSine(DensityModel):
    """f(x) = 1 / (pi sqrt(x(1-x))); density diverges at both endpoints."""

    family = "arc_sine"
    unbounded = True

    def _pdf(self, x):
        with np.errstate(divide="ignore"):
            return 1.0 / (np.pi * np.sqrt(np.maximum(x * (1.0 - x), 0.0)))

    def _cdf(self, x):
        return (2.0 / np.pi) * np.arcsin(np.sqrt(np.clip(x, 0.0, 1.0)))

    def _quantile(self, u):
        return np.sin(0.5 * np.pi * u) ** 2

    def _leading(self, which, side):
        return (2.0 / math.pi, 0.0) if which == "mid" else (1.0 / math.pi, -0.5)

    def _mass(self):
        # t = sin^2(pi u / 2) removes the divergence at both ends; dt/du = pi sqrt(t (1 - t)) is
        # taken from the rounded t, so that it cancels the rounding of t in pdf(t)
        def integrand(u):
            t = np.sin(0.5 * np.pi * u) ** 2
            return self.pdf(t) * np.pi * np.sqrt(t * (1.0 - t))
        return self._gauss_mass(integrand, [0.0, 1.0])


class Beta(DensityModel):
    """Beta(nu1, nu2) on the unit interval, both shapes >= 1."""

    family = "beta"
    _param_names = ("nu1", "nu2")

    def __init__(self, nu1, nu2):
        nu1, nu2 = float(nu1), float(nu2)
        if nu1 < 1.0:
            raise ValueError(f"nu1: beta shape must be >= 1, got {nu1}")
        if nu2 < 1.0:
            raise ValueError(f"nu2: beta shape must be >= 1, got {nu2}")
        self.nu1, self.nu2 = nu1, nu2
        self._lognorm = _integer_shape_lognorm(nu1, nu2)
        # otherwise the quantile table's log B, refit to its mass, is exact where betaln is
        # not; integer shapes build that table on the first quantile instead
        if self._lognorm is None:
            if nu1 > 1.0 and nu2 > 1.0:
                self._lognorm = _beta_quantile_table(nu1, nu2)[3]
            else:
                self._lognorm = special.betaln(nu1, nu2)
        # the density at an end whose shape is 1; exp(-log B) would overflow at large shapes
        self._unit_end_pdf = float(np.exp(-self._lognorm)) if min(nu1, nu2) == 1.0 else 0.0
        super().__init__()

    @property
    def polynomial_degree(self):
        if self.nu1.is_integer() and self.nu2.is_integer():
            return int(self.nu1 + self.nu2) - 2
        return None

    def _pdf(self, x):
        inner = (x > 0.0) & (x < 1.0)
        out = _beta_pdf(self.nu1, self.nu2, self._lognorm, np.where(inner, x, 0.5))
        # at an end the density is 1/B where that end's shape is 1, else 0
        unit_end = np.where(x <= 0.0, self.nu1, self.nu2) == 1.0
        return np.where(inner, out, np.where(unit_end, self._unit_end_pdf, 0.0))

    def _cdf(self, x):
        return special.betainc(self.nu1, self.nu2, x)

    def _quantile(self, u):
        a, b = self.nu1, self.nu2
        if b == 1.0:  # I(x) = x^a
            x = u ** (1.0 / a)
        elif a == 1.0:  # I(x) = 1 - (1 - x)^b
            with np.errstate(divide="ignore"):
                x = -np.expm1(np.log1p(-u) / b)
        else:  # in passes written into one output, so that the temporaries stay small
            x, flat = np.empty(u.shape), u.reshape(-1)
            out = x.reshape(-1)
            for start in range(0, flat.size, BETA_CHUNK):
                out[start:start + BETA_CHUNK] = _beta_quantile_cells(a, b, flat[start:start + BETA_CHUNK])
        tail = (u > 0.0) & (u < special.betainc(a, b, BETA_TAIL_X))
        if tail.any():  # invert I(x) = x^a / (a B) * (1 - a (b-1)/(a+1) x + O(x^2))
            y = np.exp((np.log(np.where(tail, u, 1.0)) + math.log(a) + self._lognorm) / a)
            x = np.where(tail, y * (1.0 + (b - 1.0) / (a + 1.0) * y), x)
        return x

    def _leading(self, which, side):
        if which == "mid":
            return float(_beta_pdf(self.nu1, self.nu2, self._lognorm, 0.5)), 0.0
        try:
            c = math.exp(-self._lognorm)
        except OverflowError:  # 1/B passes the float range only where both shapes are large
            c = math.inf
        return c, (self.nu1 if which == "lo" else self.nu2) - 1.0


def _integer_shape_lognorm(a, b):
    """log B(a, b) for integer shapes, from the integer 1/B = (a+b-1) C(a+b-2, a-1) rounded once,
    or None: for other shapes, or where 1/B passes the float range, as it does whenever
    min(a, b) - 1 > 1024, since C(a+b-2, min(a, b)-1) >= 2^(min(a, b)-1)."""
    if not (a.is_integer() and b.is_integer() and min(a, b) <= 1025.0):
        return None
    a, b = int(a), int(b)
    try:
        # 0.0 - turns the -0.0 of log 1 at Beta(1, 1) into 0.0
        return 0.0 - math.log(float((a + b - 1) * math.comb(a + b - 2, a - 1)))
    except OverflowError:
        return None


def _beta_pdf(a, b, lognorm, x):
    return np.exp((a - 1.0) * np.log(x) + (b - 1.0) * np.log1p(-x) - lognorm)


@functools.lru_cache(maxsize=64)
def _beta_quantile_table(a, b):
    """Nodes x_i = Q(i/n) on the 2^-53 grid, so 1 - x_i is exact and boost's ``betaincc``
    gives the defects I(x_i) - i/n to half an ulp; dQ/dt at the nodes; and log B, refit
    to the table's mass because scipy's ``betaln`` is 5e-14 off at shapes like (2, 200)."""
    n, e = BETA_CELLS, BETA_END_CELLS
    u = np.arange(n + 1) / n
    x = np.round(special.betaincinv(a, b, u) * 2.0 ** 53) * 2.0 ** -53
    low = u < 0.5  # I(x) = betaincc(b, a, 1 - x) below the median, 1 - betaincc(a, b, x) above
    ic = special.betaincc(np.where(low, b, a), np.where(low, a, b), np.where(low, 1.0 - x, x))
    defect = np.where(low, ic - u, (1.0 - u) - ic)
    lo, h, lognorm = x[e:-e - 1], 0.5 * np.diff(x[e:-e]), special.betaln(a, b)
    mass = sum(w * h * _beta_pdf(a, b, lognorm, lo + (1.0 + z) * h) for z, w in zip(*_GAUSS3)).sum()
    lognorm += math.log(mass / ((n - 2 * e) / n + defect[-e - 1] - defect[e]))
    with np.errstate(divide="ignore"):
        return x, 1.0 / (n * _beta_pdf(a, b, lognorm, x)), defect, lognorm


def _beta_quantile_cells(a, b, u):
    """Cubic Hermite start in the table cell, then one Newton step on the residual
    I(x) - u = defect + (3-point Gauss-Legendre integral of the pdf from the node).
    End cells and any step above 1e-8 x are left to ``betaincinv``."""
    nodes, dq, defect, lognorm = _beta_quantile_table(a, b)
    n, e = BETA_CELLS, BETA_END_CELLS
    outer = (u < e / n) | (u >= 1.0 - e / n)
    i = np.clip((u * n).astype(np.intp), e, n - 1 - e)
    t = np.where(outer, 0.0, u * n - i)
    x0, d0, d1, dx = nodes[i], dq[i], dq[i + 1], nodes[i + 1] - nodes[i]
    x = x0 + t * (d0 + t * (3.0 * dx - 2.0 * d0 - d1 + t * (d0 + d1 - 2.0 * dx)))
    h, r = 0.5 * (x - x0), defect[i] - t / n
    for z, w in zip(*_GAUSS3):
        r += w * h * _beta_pdf(a, b, lognorm, x0 + (1.0 + z) * h)
    step = r / _beta_pdf(a, b, lognorm, x)
    x -= step
    redo = outer | ~(np.abs(step) <= 1e-8 * x)
    x[redo] = special.betaincinv(a, b, u[redo])
    return x


class TruncatedNormal(DensityModel):
    """Normal(mu, sigma^2) conditioned on the unit interval.

    With mu in [0, 1] construction and the pdf need only ``math`` and numpy, and
    ``scipy.special`` loads on the first cdf or quantile; with mu outside [0, 1] the
    log-tail masses load it at construction."""

    family = "truncated_normal"
    _param_names = ("mu", "sigma")

    def __init__(self, mu, sigma):
        mu, sigma = float(mu), float(sigma)
        if sigma <= 0.0:
            raise ValueError(f"sigma: truncated_normal scale must be > 0, got {sigma}")
        self.mu, self.sigma = mu, sigma
        self._near = None if 0.0 <= mu <= 1.0 else float(mu > 1.0)
        if self._near is None:
            # the ends lie on either side of mu, so the mass between them is a sum of two erf
            # terms of one sign, which cannot cancel the way ndtr(b) - ndtr(a) does
            self._flo = 0.5 * math.erfc(mu / sigma / math.sqrt(2.0))
            self._z = 0.5 * (math.erf((1.0 - mu) / sigma / math.sqrt(2.0))
                             + math.erf(mu / sigma / math.sqrt(2.0)))
        else:
            # a mode outside [0, 1] leaves the interval in one tail, where a difference of
            # normal cdfs can cancel to 0; masses come from log tails, counted from the end nearer mu
            self._lnear = special.log_ndtr(-abs(self._near - mu) / sigma)
            self._lz = self._lnear + math.log1p(-math.exp(self._log_drop(1.0 - self._near)))
        super().__init__()

    def _near_split(self, x):
        """For mu outside [0, 1]: (z0, dz) = (|near - mu|, |x - near|) / sigma, whose sum is |x - mu| / sigma."""
        return abs(self._near - self.mu) / self.sigma, abs(x - self._near) / self.sigma

    def _log_drop(self, x):
        """Log of the Normal mass beyond ``x`` over that beyond the near end, for mu outside [0, 1],
        through erfcx: the two log masses are each about -z^2/2, and their difference would lose z^2 ulps."""
        z0, dz = self._near_split(x)
        ratio = special.erfcx((z0 + dz) / math.sqrt(2.0)) / special.erfcx(z0 / math.sqrt(2.0))
        return np.log(ratio) - dz * (z0 + 0.5 * dz)

    def _pdf(self, x):
        if self._near is not None:
            # exp(-z0^2/2) = 2 exp(lnear) / erfcx(z0/sqrt 2) takes the -z^2/2 out of the exponent,
            # which then holds no two terms of that size to cancel
            z0, dz = self._near_split(x)
            return 2.0 * np.exp(self._lnear - self._lz - dz * (z0 + 0.5 * dz)) / (
                self.sigma * math.sqrt(2.0 * math.pi) * special.erfcx(z0 / math.sqrt(2.0)))
        z = (x - self.mu) / self.sigma
        return np.exp(-0.5 * z * z) / (self.sigma * math.sqrt(2.0 * math.pi) * self._z)

    def _cdf(self, x):
        if self._near is None:
            return (special.ndtr((x - self.mu) / self.sigma) - self._flo) / self._z
        near = np.exp(self._lnear - self._lz) * -np.expm1(self._log_drop(x))
        return near if self._near == 0.0 else 1.0 - near

    def _quantile(self, u):
        if self._near is None:
            return self.mu + self.sigma * special.ndtri(self._flo + u * self._z)
        # |near - u| of the mass lies between the near end and x, past which the log drop is `drop`: -inf
        # for all of it, which the clip makes the far end; x counted from the near end cancels ndtri_exp's bias
        with np.errstate(divide="ignore", invalid="ignore"):
            drop = np.log1p(-abs(self._near - u) * np.exp(self._lz - self._lnear))
            t = special.ndtri_exp(self._lnear + drop) - special.ndtri_exp(self._lnear)
            x = self._near + (2.0 * self._near - 1.0) * self.sigma * t
            # lnear + drop is rounded at the scale of |lnear|: one Newton step on the log drop, whose
            # slope in |x - near| is -sqrt(2/pi) / (sigma erfcx(z / sqrt 2)), takes that error out
            z = sum(self._near_split(x))
            slope = -math.sqrt(2.0 / math.pi) / (self.sigma * special.erfcx(z / math.sqrt(2.0)))
            step = np.where(np.isfinite(drop), (self._log_drop(x) - drop) / slope, 0.0)
        return x - (1.0 - 2.0 * self._near) * step

    def _mass(self):
        if self._near is None:
            return super()._mass()
        # the near-end spike decays over sigma^2 / d: breaks at doubling distances from the near end find it
        w = self.sigma ** 2 / abs(self.mu - self._near)
        cuts = {w * 2.0 ** k for k in range(1 - math.frexp(w)[1])} if w < 1.0 else set()
        return self._gauss_mass(self.pdf, sorted({abs(self._near - c) for c in cuts} | {0.0, 1.0}))

    def _leading(self, which, side):
        return float(self._pdf(_as_array({"lo": 0.0, "mid": 0.5, "hi": 1.0}[which]))), 0.0


FAMILIES = {
    "uniform": Uniform,
    "shrunk_uniform": ShrunkUniform,
    "gap_uniform": GapUniform,
    "two_step": TwoStep,
    "three_step": ThreeStep,
    "linear": Linear,
    "q_power": QPower,
    "piece_quadratic": PieceQuadratic,
    "abs_sine": AbsSine,
    "arc_sine": ArcSine,
    "beta": Beta,
    "truncated_normal": TruncatedNormal,
    "square_cdf": SquareCdf,
    "general_linear": GeneralLinear,
}


def model_from_spec(spec):
    """Build a model from {"family": ..., "params": {...}, "support": [lo,hi]}.

    Accepts a dict or a JSON string. Raises ValueError naming the offending
    field on any malformed input.
    """
    if isinstance(spec, (str, bytes)):
        try:
            spec = json.loads(spec)
        except json.JSONDecodeError as e:
            raise ValueError(f"density spec: not valid JSON ({e})") from e
    if not isinstance(spec, dict):
        raise ValueError(f"density spec: expected an object, got {type(spec).__name__}")
    unknown = set(spec) - {"family", "params", "support"}
    if unknown:
        raise ValueError(f"density spec: unknown field(s) {sorted(unknown)}")
    if "family" not in spec:
        raise ValueError("family: field is required")
    fam = spec["family"]
    if fam not in FAMILIES:
        raise ValueError(f"family: unknown family {fam!r}; known: {sorted(FAMILIES)}")
    params = spec.get("params", {})
    if not isinstance(params, dict):
        raise ValueError(f"params: expected an object, got {type(params).__name__}")
    kwargs = dict(params)
    support = spec.get("support")
    if support is not None:
        if (not isinstance(support, (list, tuple)) or len(support) != 2
                or not all(isinstance(v, (int, float)) for v in support)):
            raise ValueError(f"support: expected [lo, hi] numbers, got {support!r}")
        try:
            lo, hi = map(float, support)
        except OverflowError as e:
            raise ValueError(f"support: ends must be finite ({e})") from e
        if fam == "general_linear":
            kwargs["support"] = (lo, hi)
        elif (lo, hi) != (0.0, 1.0):
            raise ValueError(f"support: this family is defined on [0,1], got [{lo},{hi}]")
    elif fam == "general_linear":
        raise ValueError("support: field is required for general_linear")
    try:
        return FAMILIES[fam](**kwargs)
    except TypeError as e:
        raise ValueError(f"params: invalid for family {fam!r} ({e})") from e
    except OverflowError as e:
        raise ValueError(f"params: a number is out of range for family {fam!r} ({e})") from e


def model_to_spec(model):
    return {
        "family": model.family,
        "params": dict(model.params),
        "support": [model.support.lo, model.support.hi],
    }
