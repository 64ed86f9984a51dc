"""Density families on a bounded interval with known endpoint behavior.

Every family exposes a vectorized pdf/cdf/quantile triple and one-sided
derivatives of the density at the support endpoints and midpoint (orders
0 through 2). Models are immutable value objects; constructors validate
parameters and check that the density integrates to 1.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy import special

MASS_TOL = 1e-10
QUANTILE_BISECT_TOL = 1e-12
MAX_DERIVATIVE_ORDER = 2
BETA_CELLS, BETA_END_CELLS = 8192, 32  # Beta quantile table; end cells go to betaincinv
BETA_CHUNK, BETA_TAIL_X = 2 ** 15, 2.0 ** -60  # values per pass; x below which the series is used
_GAUSS3, _GL7, _GL15 = (np.polynomial.legendre.leggauss(k) for k in (3, 7, 15))
# mass check: panels per knot piece at the start, error budget, caps on rounds and live panels
_MASS_PANELS, _MASS_BUDGET, _MASS_ROUNDS, _MASS_LIVE = 32, 1e-12, 60, 2 ** 14


@dataclass(frozen=True)
class SupportInterval:
    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError(f"support: lo={self.lo} must be < hi={self.hi}")

    @property
    def width(self):
        return self.hi - self.lo

    @property
    def mid(self):
        return 0.5 * (self.lo + self.hi)


@dataclass(frozen=True)
class OneSidedDerivative:
    """A one-sided derivative value of the density at a support landmark.

    ``is_infinite`` marks divergent limits; ``value`` then holds a signed
    float infinity rather than a large finite surrogate.
    """

    point: float
    side: str
    order: int
    value: float
    is_infinite: bool = False


def _as_array(x):
    return np.asarray(x, dtype=float)


def _scalar_like(x, out):
    if np.isscalar(x) or (isinstance(x, np.ndarray) and x.ndim == 0):
        return float(out)
    return out


class DensityModel:
    """Base class: a named density on a SupportInterval."""

    family = "base"
    unbounded = False

    def __init__(self, support=(0.0, 1.0)):
        if isinstance(support, SupportInterval):
            self.support = support
        else:
            self.support = SupportInterval(float(support[0]), float(support[1]))
        self._check_mass()

    # parameters as a plain dict, used by the JSON spec round trip
    @property
    def params(self):
        return {}

    def interior_knots(self):
        """Points inside the support where pdf or its derivatives jump."""
        return []

    def piecewise_constant_parts(self):
        """For step densities: list of (lo, hi, height) Fractions, else None."""
        return None

    def _pdf(self, x):
        raise NotImplementedError

    def _cdf(self, x):
        raise NotImplementedError

    def _quantile(self, u):
        # generic bisection; families with analytic inverses override
        u = _as_array(u)
        lo = np.full(u.shape, self.support.lo)
        hi = np.full(u.shape, self.support.hi)
        for _ in range(80):
            midp = 0.5 * (lo + hi)
            below = self._cdf(midp) < u
            lo = np.where(below, midp, lo)
            hi = np.where(below, hi, midp)
            if np.max(hi - lo) < QUANTILE_BISECT_TOL:
                break
        return 0.5 * (lo + hi)

    def pdf(self, x):
        a = _as_array(x)
        inside = (a >= self.support.lo) & (a <= self.support.hi)
        out = np.where(inside, self._pdf(np.clip(a, self.support.lo, self.support.hi)), 0.0)
        return _scalar_like(x, out)

    def cdf(self, x):
        a = _as_array(x)
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
        """Checked quantile, clipped to the support, or ``a`` itself when the
        quantile is the identity: the support is then [0, 1], where the checked
        ``a`` needs no clip, and a caller that owns ``a`` pays no copy."""
        # NaN fails both comparisons, and min and max propagate it
        if a.size and not (a.min() >= 0 and a.max() <= 1):
            raise ValueError(f"quantile: u must lie in [0,1], got {a[(a < 0) | (a > 1) | ~np.isfinite(a)][:1]}")
        out = self._quantile(a)
        return out if out is a else np.clip(out, self.support.lo, self.support.hi)

    def pdf_derivative(self, x, order):
        """Derivative of the density at interior points, orders 0 to 2."""
        if order == 0:
            return self.pdf(x)
        _check_order(order)
        a = _as_array(x)
        out = self._pdf_derivative(a, order)
        return _scalar_like(x, out)

    def _pdf_derivative(self, x, order):
        raise NotImplementedError(f"{self.family}: pdf_derivative not implemented")

    def one_sided_derivative(self, point, side, order):
        which = self._landmark(point)
        if side not in ("+", "-"):
            raise ValueError(f"side: expected '+' or '-', got {side!r}")
        if which == "lo" and side == "-":
            raise ValueError("side: only '+' is defined at the lower support endpoint")
        if which == "hi" and side == "+":
            raise ValueError("side: only '-' is defined at the upper support endpoint")
        _check_order(order)
        value, infinite = self._one_sided(which, side, order)
        pt = {"lo": self.support.lo, "mid": self.support.mid, "hi": self.support.hi}[which]
        return OneSidedDerivative(pt, side, order, float(value), infinite)

    def _landmark(self, point):
        if isinstance(point, str):
            if point in ("lo", "mid", "hi"):
                return point
            raise ValueError(f"point: expected lo/mid/hi or their coordinates, got {point!r}")
        p = float(point)
        for name, coord in (("lo", self.support.lo), ("mid", self.support.mid), ("hi", self.support.hi)):
            if math.isclose(p, coord, rel_tol=0.0, abs_tol=1e-12):
                return name
        raise ValueError(
            f"point: {p} is not a support landmark "
            f"(lo={self.support.lo}, mid={self.support.mid}, hi={self.support.hi})")

    def _one_sided(self, which, side, order):
        raise NotImplementedError

    def _check_mass(self):
        mass = self._mass()
        if not abs(mass - 1.0) <= MASS_TOL:  # NaN fails this test too
            raise ValueError(f"{self.family}: density mass {mass!r} deviates from 1 beyond {MASS_TOL}")

    def _mass(self):
        knots = sorted(k for k in self.interior_knots() if self.support.lo < k < self.support.hi)
        return self._gauss_mass(self.pdf, [self.support.lo, *knots, self.support.hi])

    def _gauss_mass(self, f, breaks):
        """Integral of the vectorized ``f`` between the sorted ``breaks``.  Each round keeps the panels
        whose 15- and 7-point Gauss-Legendre sums differ by at most an equal share of the budget left."""
        a = np.concatenate([np.linspace(lo, hi, _MASS_PANELS + 1)[:-1] for lo, hi in zip(breaks, breaks[1:])])
        b, total, spent = np.append(a[1:], breaks[-1]), 0.0, 0.0
        for _ in range(_MASS_ROUNDS):
            half, mid = 0.5 * (b - a), 0.5 * (b + a)
            fine, coarse = (half * (w @ f(mid + half * x[:, None])) for x, w in (_GL15, _GL7))
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


def _check_order(order):
    if not isinstance(order, (int, np.integer)) or order < 0:
        raise ValueError(f"order: expected a nonnegative integer, got {order!r}")
    if order > MAX_DERIVATIVE_ORDER:
        raise ValueError(f"order: derivatives above order {MAX_DERIVATIVE_ORDER} are not available, got {order}")


def _unit_support(support):
    s = support if isinstance(support, SupportInterval) else SupportInterval(*map(float, support))
    if not (s.lo == 0.0 and s.hi == 1.0):
        raise ValueError(f"support: this family is defined on [0,1], got [{s.lo},{s.hi}]")
    return s


class Uniform(DensityModel):
    family = "uniform"

    def __init__(self, support=(0.0, 1.0)):
        super().__init__(_unit_support(support))

    def _pdf(self, x):
        return np.ones_like(x)

    def _cdf(self, x):
        return x

    def _quantile(self, u):
        return u

    def _pdf_derivative(self, x, order):
        return np.zeros_like(x)

    def _one_sided(self, which, side, order):
        return (1.0, False) if order == 0 else (0.0, False)

    def piecewise_constant_parts(self):
        return [(Fraction(0), Fraction(1), Fraction(1))]


class _StepDensity(DensityModel):
    """Piecewise-constant density given by breakpoints and heights."""

    def __init__(self, breaks, heights, support=(0.0, 1.0)):
        # breaks: increasing Fractions including both endpoints
        self._breaks = [Fraction(b) for b in breaks]
        self._heights = [Fraction(h) for h in heights]
        self._bx = np.array([float(b) for b in self._breaks])
        self._hx = np.array([float(h) for h in self._heights])
        cum = [Fraction(0)]
        for (a, b), h in zip(zip(self._breaks, self._breaks[1:]), self._heights):
            cum.append(cum[-1] + (b - a) * h)
        self._cum = np.array([float(v) for v in cum])
        super().__init__(support)

    def interior_knots(self):
        return [float(b) for b in self._breaks[1:-1]]

    def piecewise_constant_parts(self):
        return [(a, b, h) for (a, b), h in zip(zip(self._breaks, self._breaks[1:]), self._heights)
                if h != 0]

    def _piece_index(self, x):
        idx = np.searchsorted(self._bx, x, side="right") - 1
        return np.clip(idx, 0, len(self._hx) - 1)

    def _pdf(self, x):
        return self._hx[self._piece_index(x)]

    def _cdf(self, x):
        i = self._piece_index(x)
        return self._cum[i] + self._hx[i] * (x - self._bx[i])

    def _quantile(self, u):
        i = np.clip(np.searchsorted(self._cum, u, side="right") - 1, 0, len(self._hx) - 1)
        # skip zero-height pieces so u strictly inside a piece inverts exactly
        h = self._hx[i]
        with np.errstate(divide="ignore", invalid="ignore"):
            off = np.where(h > 0, (u - self._cum[i]) / np.where(h > 0, h, 1.0), 0.0)
        return self._bx[i] + off

    def _pdf_derivative(self, x, order):
        return np.zeros_like(x)

    def _mass(self):
        return float(sum((b - a) * h for (a, b), h in
                         zip(zip(self._breaks, self._breaks[1:]), self._heights)))

    def _one_sided(self, which, side, order):
        if order > 0:
            return 0.0, False
        if which == "lo":
            return float(self._heights[0]), False
        if which == "hi":
            return float(self._heights[-1]), False
        mid = Fraction(1, 2) * (self._breaks[0] + self._breaks[-1])
        for (a, b), h in zip(zip(self._breaks, self._breaks[1:]), self._heights):
            if (side == "+" and a <= mid < b) or (side == "-" and a < mid <= b):
                return float(h), False
        raise AssertionError("midpoint not inside any piece")


class ShrunkUniform(_StepDensity):
    """Uniform mass pulled onto [delta, 1-delta] inside the unit interval."""

    family = "shrunk_uniform"

    def __init__(self, delta, support=(0.0, 1.0)):
        d = float(delta)
        if not 0.0 <= d < 0.5:
            raise ValueError(f"delta: shrunk_uniform needs 0 <= delta < 1/2, got {d}")
        self.delta = d
        fd = Fraction(d)
        h = 1 / (1 - 2 * fd)
        if d == 0.0:
            breaks, heights = [0, 1], [1]
        else:
            breaks, heights = [0, fd, 1 - fd, 1], [0, h, 0]
        super().__init__(breaks, heights, _unit_support(support))

    @property
    def params(self):
        return {"delta": self.delta}


class GapUniform(_StepDensity):
    """Uniform with a symmetric central gap of half-width delta.

    Only the bands delta in [0, 1/6] and [1/3, 1/2) are supported; the
    middle band has no established finite-n law here.
    """

    family = "gap_uniform"

    def __init__(self, delta, support=(0.0, 1.0)):
        d = float(delta)
        if not 0.0 <= d < 0.5:
            raise ValueError(f"delta: gap_uniform needs 0 <= delta < 1/2, got {d}")
        if 1.0 / 6.0 < d < 1.0 / 3.0:
            raise ValueError(
                f"delta: gap_uniform is implemented for [0,1/6] and [1/3,1/2) only, got {d}")
        self.delta = d
        fd = Fraction(d)
        h = 1 / (1 - 2 * fd)
        if d == 0.0:
            breaks, heights = [0, 1], [1]
        else:
            breaks = [0, Fraction(1, 2) - fd, Fraction(1, 2) + fd, 1]
            heights = [h, 0, h]
        super().__init__(breaks, heights, _unit_support(support))

    @property
    def params(self):
        return {"delta": self.delta}


class TwoStep(_StepDensity):
    """Heights 1+delta and 1-delta on the two halves of the unit interval."""

    family = "two_step"

    def __init__(self, delta, support=(0.0, 1.0)):
        d = float(delta)
        if not -1.0 <= d <= 1.0:
            raise ValueError(f"delta: two_step needs -1 <= delta <= 1, got {d}")
        self.delta = d
        fd = Fraction(d)
        super().__init__([0, Fraction(1, 2), 1], [1 + fd, 1 - fd], _unit_support(support))

    @property
    def params(self):
        return {"delta": self.delta}


class ThreeStep(_StepDensity):
    """Heights 1+delta, 1-delta, 1+delta on quarters (0,1/4,3/4,1)."""

    family = "three_step"

    def __init__(self, delta, support=(0.0, 1.0)):
        d = float(delta)
        if not -1.0 <= d <= 1.0:
            raise ValueError(f"delta: three_step needs -1 <= delta <= 1, got {d}")
        self.delta = d
        fd = Fraction(d)
        super().__init__([0, Fraction(1, 4), Fraction(3, 4), 1],
                         [1 + fd, 1 - fd, 1 + fd], _unit_support(support))

    @property
    def params(self):
        return {"delta": self.delta}


class Linear(DensityModel):
    """f(x) = a x + (1 - a/2) on the unit interval, |a| <= 2."""

    family = "linear"

    def __init__(self, a, support=(0.0, 1.0)):
        a = float(a)
        if not -2.0 <= a <= 2.0:
            raise ValueError(f"a: linear slope must satisfy |a| <= 2, got {a}")
        self.a = a
        self.b = 1.0 - 0.5 * a
        super().__init__(_unit_support(support))

    @property
    def params(self):
        return {"a": self.a}

    def _pdf(self, x):
        return self.a * x + self.b

    def _cdf(self, x):
        return (0.5 * self.a * x + self.b) * x

    def _quantile(self, u):
        if self.a == 0.0:
            return u
        disc = np.sqrt(self.b * self.b + 2.0 * self.a * u)
        return 2.0 * u / (self.b + disc)

    def _pdf_derivative(self, x, order):
        return np.full_like(x, self.a) if order == 1 else np.zeros_like(x)

    def _one_sided(self, which, side, order):
        if order == 0:
            return {"lo": self.b, "mid": 1.0, "hi": self.a + self.b}[which], False
        return (self.a, False) if order == 1 else (0.0, False)


class QPower(DensityModel):
    """Density (q+1) 2^q t^q with t the distance past 0 or past 1/2."""

    family = "q_power"

    def __init__(self, q, support=(0.0, 1.0)):
        q = float(q)
        if q < 0.0:
            raise ValueError(f"q: q_power exponent must be >= 0, got {q}")
        self.q = q
        self._c = (q + 1.0) * 2.0 ** q
        super().__init__(_unit_support(support))

    @property
    def params(self):
        return {"q": self.q}

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

    def _pdf_derivative(self, x, order):
        q = self.q
        coef = self._c * q if order == 1 else self._c * q * (q - 1.0)
        t = self._t(x)
        with np.errstate(divide="ignore"):
            return np.where(coef == 0.0, 0.0, coef * t ** (q - order))

    def _one_sided(self, which, side, order):
        q = self.q
        if which == "hi" or (which == "mid" and side == "-"):
            # smooth branch evaluated at half-width 1/2
            coef = self._c * math.prod(q - j for j in range(order))
            return coef * 0.5 ** (q - order), False
        # behavior of t^q as t -> 0+
        coef = self._c * math.prod(q - j for j in range(order))
        if q > order:
            return 0.0, False
        if q == order:
            return coef, False
        if coef == 0.0:  # integer q below the requested order
            return 0.0, False
        return math.copysign(math.inf, coef), True


class PieceQuadratic(DensityModel):
    """delta + 12(1-delta) t^2 with t the distance past 0 or past 1/2."""

    family = "piece_quadratic"

    def __init__(self, delta, support=(0.0, 1.0)):
        d = float(delta)
        if not 0.0 <= d <= 1.0:
            raise ValueError(f"delta: piece_quadratic needs 0 <= delta <= 1, got {d}")
        self.delta = d
        super().__init__(_unit_support(support))

    @property
    def params(self):
        return {"delta": self.delta}

    def interior_knots(self):
        return [0.5]

    def _t(self, x):
        return np.where(x <= 0.5, x, x - 0.5)

    def _pdf(self, x):
        t = self._t(x)
        return self.delta + 12.0 * (1.0 - self.delta) * t * t

    def _cdf(self, x):
        t = self._t(x)
        half = self.delta * t + 4.0 * (1.0 - self.delta) * t ** 3
        return np.where(x <= 0.5, half, 0.5 + half)

    def _pdf_derivative(self, x, order):
        t = self._t(x)
        if order == 1:
            return 24.0 * (1.0 - self.delta) * t
        return np.full_like(x, 24.0 * (1.0 - self.delta))

    def _one_sided(self, which, side, order):
        d = self.delta
        rising = which == "hi" or (which == "mid" and side == "-")
        t = 0.5 if rising else 0.0
        if order == 0:
            return d + 12.0 * (1.0 - d) * t * t, False
        if order == 1:
            return 24.0 * (1.0 - d) * t, False
        return 24.0 * (1.0 - d), False


class AbsSine(DensityModel):
    """f(x) = (pi/2) |sin(2 pi x)| on the unit interval."""

    family = "abs_sine"

    def interior_knots(self):
        return [0.5]

    @property
    def params(self):
        return {}

    def _pdf(self, x):
        return 0.5 * np.pi * np.abs(np.sin(2.0 * np.pi * x))

    def _cdf(self, x):
        co = np.cos(2.0 * np.pi * x)
        return np.where(x <= 0.5, 0.25 * (1.0 - co), 0.25 * (3.0 + co))

    def _quantile(self, u):
        lof = np.arccos(np.clip(1.0 - 4.0 * u, -1.0, 1.0)) / (2.0 * np.pi)
        hif = 1.0 - np.arccos(np.clip(4.0 * u - 3.0, -1.0, 1.0)) / (2.0 * np.pi)
        return np.where(u <= 0.5, lof, hif)

    def _pdf_derivative(self, x, order):
        sign = np.where(x <= 0.5, 1.0, -1.0)
        if order == 1:
            return sign * np.pi ** 2 * np.cos(2.0 * np.pi * x)
        return -sign * 2.0 * np.pi ** 3 * np.sin(2.0 * np.pi * x)

    def _one_sided(self, which, side, order):
        if order == 0 or order == 2:
            return 0.0, False
        pi2 = math.pi ** 2
        table = {("lo", "+"): pi2, ("mid", "-"): -pi2, ("mid", "+"): pi2, ("hi", "-"): -pi2}
        return table[(which, side)], False


class ArcSine(DensityModel):
    """f(x) = 1 / (pi sqrt(x(1-x))); density diverges at both endpoints."""

    family = "arc_sine"
    unbounded = True

    @property
    def params(self):
        return {}

    def _pdf(self, x):
        with np.errstate(divide="ignore"):
            return 1.0 / (np.pi * np.sqrt(np.maximum(x * (1.0 - x), 0.0)))

    def _cdf(self, x):
        return (2.0 / np.pi) * np.arcsin(np.sqrt(np.clip(x, 0.0, 1.0)))

    def _quantile(self, u):
        return np.sin(0.5 * np.pi * u) ** 2

    def _pdf_derivative(self, x, order):
        g = x * (1.0 - x)
        if order == 1:
            return (2.0 * x - 1.0) / (2.0 * np.pi * g ** 1.5)
        return 1.0 / (np.pi * g ** 1.5) + 3.0 * (2.0 * x - 1.0) ** 2 / (4.0 * np.pi * g ** 2.5)

    def _one_sided(self, which, side, order):
        if which == "mid":
            if order == 0:
                return 2.0 / math.pi, False
            if order == 1:
                return 0.0, False
            return 8.0 / math.pi, False
        if order == 0 or order == 2:
            return math.inf, True
        return (-math.inf if which == "lo" else math.inf), True

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

    def __init__(self, nu1, nu2, support=(0.0, 1.0)):
        nu1, nu2 = float(nu1), float(nu2)
        if nu1 < 1.0:
            raise ValueError(f"nu1: beta shape must be >= 1, got {nu1}")
        if nu2 < 1.0:
            raise ValueError(f"nu2: beta shape must be >= 1, got {nu2}")
        self.nu1, self.nu2 = nu1, nu2
        # the quantile table's log B is refit to its mass, exact where betaln is not; build
        # the table here in any case: built amid sample buffers, it pins the heap
        if nu1 > 1.0 and nu2 > 1.0:
            self._lognorm = _beta_quantile_table(nu1, nu2)[3]
        else:
            self._lognorm = special.betaln(nu1, nu2)
        super().__init__(_unit_support(support))

    @property
    def params(self):
        return {"nu1": self.nu1, "nu2": self.nu2}

    def _pdf(self, x):
        inner = (x > 0.0) & (x < 1.0)
        out = _beta_pdf(self.nu1, self.nu2, self._lognorm, np.where(inner, x, 0.5))
        # at an end the density is 1/B where that end's shape is 1, else 0
        unit_end = np.where(x <= 0.0, self.nu1, self.nu2) == 1.0
        return np.where(inner, out, np.where(unit_end, np.exp(-self._lognorm), 0.0))

    def _cdf(self, x):
        return special.betainc(self.nu1, self.nu2, x)

    def _quantile(self, u):
        a, b = self.nu1, self.nu2
        if u.ndim == 0:
            x = special.betaincinv(a, b, u)
        elif b == 1.0:  # I(x) = x^a
            x = u ** (1.0 / a)
        elif a == 1.0:  # I(x) = 1 - (1 - x)^b
            with np.errstate(divide="ignore"):
                x = -np.expm1(np.log1p(-u) / b)
        else:  # in chunks, so that the temporaries stay in cache
            chunks = np.split(u.reshape(-1), range(BETA_CHUNK, u.size, BETA_CHUNK))
            x = np.concatenate([_beta_quantile_cells(a, b, c) for c in chunks]).reshape(u.shape)
        tail = (u > 0.0) & (u < special.betainc(a, b, BETA_TAIL_X))
        if tail.any():  # invert I(x) = x^a / (a B) * (1 - a (b-1)/(a+1) x + O(x^2))
            y = np.exp((np.log(np.where(tail, u, 1.0)) + math.log(a) + self._lognorm) / a)
            x = np.where(tail, y * (1.0 + (b - 1.0) / (a + 1.0) * y), x)
        return x

    def _pdf_derivative(self, x, order):
        a, b = self.nu1 - 1.0, self.nu2 - 1.0
        c = math.exp(-self._lognorm)
        if order == 1:
            return c * (a * x ** (a - 1.0) * (1.0 - x) ** b
                        - b * x ** a * (1.0 - x) ** (b - 1.0))
        return c * (a * (a - 1.0) * x ** (a - 2.0) * (1.0 - x) ** b
                    - 2.0 * a * b * x ** (a - 1.0) * (1.0 - x) ** (b - 1.0)
                    + b * (b - 1.0) * x ** a * (1.0 - x) ** (b - 2.0))

    def _one_sided(self, which, side, order):
        c = math.exp(-self._lognorm)
        if which == "mid":
            return float(self.pdf_derivative(0.5, order)), False
        # at 1- the density mirrors Beta(nu2, nu1) at 0+ with sign (-1)^order
        a, b = (self.nu1 - 1.0, self.nu2 - 1.0) if which == "lo" else (self.nu2 - 1.0, self.nu1 - 1.0)
        sign = 1.0 if which == "lo" else (-1.0) ** order
        val, inf = self._power_limit(a, b, c, order)
        if inf:
            return sign * val, True
        return sign * val, False

    @staticmethod
    def _power_limit(a, b, c, order):
        """Limit of the order-th derivative of c x^a (1-x)^b as x -> 0+."""
        if order == 0:
            return (c, False) if a == 0.0 else (0.0, False)
        if order == 1:
            if a == 0.0:
                return -b * c, False
            if a == 1.0:
                return c, False
            if a < 1.0:
                return math.inf, True
            return 0.0, False
        if a == 0.0:
            return b * (b - 1.0) * c, False
        if a == 1.0:
            return -2.0 * b * c, False
        if a == 2.0:
            return 2.0 * c, False
        if a < 1.0:
            return -math.inf, True
        if a < 2.0:
            return math.inf, True
        return 0.0, False


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
    """Normal(mu, sigma^2) conditioned on the unit interval."""

    family = "truncated_normal"

    def __init__(self, mu, sigma, support=(0.0, 1.0)):
        mu, sigma = float(mu), float(sigma)
        if sigma <= 0.0:
            raise ValueError(f"sigma: truncated_normal scale must be > 0, got {sigma}")
        self.mu, self.sigma = mu, sigma
        self._flo = special.ndtr(-mu / sigma)
        self._z = special.ndtr((1.0 - mu) / sigma) - self._flo
        super().__init__(_unit_support(support))

    @property
    def params(self):
        return {"mu": self.mu, "sigma": self.sigma}

    def _pdf(self, x):
        z = (x - self.mu) / self.sigma
        return np.exp(-0.5 * z * z) / (self.sigma * math.sqrt(2.0 * math.pi) * self._z)

    def _cdf(self, x):
        return (special.ndtr((x - self.mu) / self.sigma) - self._flo) / self._z

    def _quantile(self, u):
        return self.mu + self.sigma * special.ndtri(self._flo + u * self._z)

    def _pdf_derivative(self, x, order):
        f = self._pdf(x)
        s2 = self.sigma ** 2
        if order == 1:
            return -f * (x - self.mu) / s2
        return f * (((x - self.mu) / s2) ** 2 - 1.0 / s2)

    def _one_sided(self, which, side, order):
        pt = {"lo": 0.0, "mid": 0.5, "hi": 1.0}[which]
        if order == 0:
            return float(self._pdf(np.asarray(pt))), False
        return float(self.pdf_derivative(pt, order)), False


class SquareCdf(DensityModel):
    """f(x) = 2x, so the cdf is x^2 and the quantile sqrt(u)."""

    family = "square_cdf"

    @property
    def params(self):
        return {}

    def _pdf(self, x):
        return 2.0 * x

    def _cdf(self, x):
        return x * x

    def _quantile(self, u):
        return np.sqrt(u)

    def _pdf_derivative(self, x, order):
        return np.full_like(x, 2.0) if order == 1 else np.zeros_like(x)

    def _one_sided(self, which, side, order):
        if order == 0:
            return {"lo": 0.0, "mid": 1.0, "hi": 2.0}[which], False
        return (2.0, False) if order == 1 else (0.0, False)


class GeneralLinear(DensityModel):
    """Linear density a x + b on an arbitrary interval, normalized to mass 1."""

    family = "general_linear"

    def __init__(self, a, support):
        a = float(a)
        s = support if isinstance(support, SupportInterval) else SupportInterval(*map(float, support))
        bound = 2.0 / s.width ** 2
        if abs(a) > bound * (1.0 + 1e-12):
            raise ValueError(f"a: general_linear slope must satisfy |a| <= 2/width^2 = {bound}, got {a}")
        self.a = a
        self.b = 1.0 / s.width - a * s.mid
        super().__init__(s)

    @property
    def params(self):
        return {"a": self.a}

    def _pdf(self, x):
        return self.a * x + self.b

    def _cdf(self, x):
        lo = self.support.lo
        return (0.5 * self.a * (x + lo) + self.b) * (x - lo)

    def _quantile(self, u):
        lo = self.support.lo
        if self.a == 0.0:
            return lo + u * self.support.width
        g = self.a * lo + self.b
        disc = np.sqrt(np.maximum(g * g + 2.0 * self.a * u, 0.0))
        return lo + 2.0 * u / (g + disc)

    def _pdf_derivative(self, x, order):
        return np.full_like(x, self.a) if order == 1 else np.zeros_like(x)

    def _one_sided(self, which, side, order):
        pt = {"lo": self.support.lo, "mid": self.support.mid, "hi": self.support.hi}[which]
        if order == 0:
            return self.a * pt + self.b, False
        return (self.a, False) if order == 1 else (0.0, False)

    def to_unit(self):
        """The same shape rescaled onto [0,1]: Linear(a * width^2)."""
        return Linear(self.a * self.support.width ** 2)


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
        kwargs["support"] = tuple(support)
    elif fam == "general_linear":
        raise ValueError("support: field is required for general_linear")
    try:
        return FAMILIES[fam](**kwargs)
    except TypeError as e:
        raise ValueError(f"params: invalid for family {fam!r} ({e})") from e


def model_to_spec(model):
    return {
        "family": model.family,
        "params": dict(model.params),
        "support": [model.support.lo, model.support.hi],
    }
