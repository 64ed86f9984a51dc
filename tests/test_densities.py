import hashlib
import inspect
import itertools
import json
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate, special

from cccd import densities as D, simulate


def model_zoo():
    return [
        D.Uniform(),
        D.ShrunkUniform(0.0),
        D.ShrunkUniform(0.1),
        D.ShrunkUniform(0.3),
        D.ShrunkUniform(0.45),
        D.GapUniform(0.0),
        D.GapUniform(0.1),
        D.GapUniform(1 / 6),
        D.GapUniform(0.35),
        D.GapUniform(0.45),
        D.TwoStep(-1.0),
        D.TwoStep(-0.5),
        D.TwoStep(0.5),
        D.TwoStep(1.0),
        D.ThreeStep(-0.8),
        D.ThreeStep(0.8),
        D.Linear(-2.0),
        D.Linear(-1.0),
        D.Linear(0.0),
        D.Linear(1.0),
        D.Linear(2.0),
        D.QPower(0.0),
        D.QPower(0.5),
        D.QPower(1.0),
        D.QPower(2.0),
        D.QPower(3.5),
        D.PieceQuadratic(0.0),
        D.PieceQuadratic(0.4),
        D.PieceQuadratic(1.0),
        D.AbsSine(),
        D.ArcSine(),
        D.Beta(1, 1),
        D.Beta(4, 1),
        D.Beta(1, 4),
        D.Beta(4, 2),
        D.Beta(2, 4),
        D.Beta(2, 2),
        D.Beta(1.5, 3.25),
        D.TruncatedNormal(0.5, 0.1),
        D.TruncatedNormal(0.2, 0.5),
        D.TruncatedNormal(-1.0, 2.0),
        D.SquareCdf(),
        D.GeneralLinear(0.5, (1.0, 3.0)),
        D.GeneralLinear(-0.125, (-2.0, 2.0)),
    ]


def positive_density_points(model, count=41):
    """Interior grid points of positive density, clear of any knot."""
    lo, hi = model.support.lo, model.support.hi
    grid = lo + (hi - lo) * (np.arange(1, count + 1) / (count + 1))
    grid = grid[model.pdf(grid) > 1e-12]
    for k in model.interior_knots():
        grid = grid[np.abs(grid - k) > 1e-6]
    return grid


@pytest.mark.parametrize("model", model_zoo(), ids=repr)
def test_mass_is_one(model):
    # construction already enforces the 1e-10 mass check; recompute with scipy's quad
    lo, hi = model.support.lo, model.support.hi
    if model.unbounded:  # pdf * sqrt(t (1 - t)) is bounded; quad takes the rest as its weight
        def bounded(t):  # quad samples the ends, where the pdf diverges: read it one ulp inside
            t = min(max(t, np.nextafter(lo, hi)), np.nextafter(hi, lo))
            return float(model.pdf(t)) * math.sqrt((t - lo) * (hi - t))
        val, _ = integrate.quad(bounded, lo, hi, weight="alg", wvar=(-0.5, -0.5),
                                epsabs=1e-13, epsrel=1e-13)
    else:
        val, _ = integrate.quad(lambda t: float(model.pdf(t)), lo, hi,
                                points=model.interior_knots() or None, limit=200,
                                epsabs=1e-13, epsrel=1e-13)
    assert abs(val - 1.0) < 1e-9
    assert abs(model._mass() - val) <= 1e-12


def test_kronrod_rule_nests_the_seven_point_gauss_rule():
    nodes, kronrod, gauss = D._KRONROD15
    x7, w7 = np.polynomial.legendre.leggauss(7)
    assert np.max(np.abs(nodes[1::2] - x7)) <= 1e-15
    assert np.max(np.abs(gauss - w7)) <= 1e-15
    assert abs(kronrod.sum() - 2.0) <= 1e-15 and abs(gauss.sum() - 2.0) <= 1e-15
    for k in range(23):  # K15 is exact through degree 3 * 7 + 1
        assert abs(kronrod @ nodes ** k - (1 - k % 2) * 2.0 / (k + 1)) <= 1e-15, k


# piecewise polynomial families check their exact mass, not their pdf (see
# test_piecewise_polynomial_mass_is_exact_and_still_checked)
@pytest.mark.parametrize("family, args", [(D.QPower, (0.5,)), (D.AbsSine, ()),
                                          (D.Beta, (1.22, 21.18)), (D.TruncatedNormal, (0.5, 0.01)),
                                          (D.ArcSine, ())], ids=lambda v: getattr(v, "__name__", None))
def test_mass_check_catches_a_pdf_scaled_by_1e_9(family, args):
    scaled = type("Scaled" + family.__name__, (family,),
                  {"_pdf": lambda self, x: family._pdf(self, x) * (1.0 + 1e-9)})
    family(*args)
    with pytest.raises(ValueError, match="density mass"):
        scaled(*args)


def test_mass_check_that_cannot_converge_raises(monkeypatch):
    # an oscillation that no panel resolves keeps every panel above its share, up to the panel cap
    noisy = type("Noisy", (D.DensityModel,), {"_pdf": lambda self, x: 1.0 + 1e-9 * np.sin(1e9 * x)})
    with pytest.raises(ValueError, match="did not converge"):
        noisy()
    # the square-root cusp of QPower(0.5) needs more than three rounds of halving
    monkeypatch.setattr(D, "_MASS_ROUNDS", 3)
    with pytest.raises(ValueError, match="did not converge in 3 rounds"):
        D.QPower(0.5)


def test_nan_mass_is_rejected():
    # NaN fails every comparison, so a NaN mass must be refused by name
    nan_pdf = type("NanPdf", (D.DensityModel,), {"_pdf": lambda self, x: np.full(np.shape(x), np.nan)})
    with pytest.raises(ValueError, match="density mass nan"):
        nan_pdf()


def test_piecewise_polynomial_mass_is_exact_and_still_checked(monkeypatch):
    # the pieces' exact Fraction mass is the check: no quadrature runs, and it is exactly 1
    def no_quadrature(self, f, breaks):
        raise AssertionError("quadrature ran")

    monkeypatch.setattr(D.DensityModel, "_gauss_mass", no_quadrature)
    for model in (D.Uniform(), D.TwoStep(0.5), D.GapUniform(0.1), D.PieceQuadratic(2 / 3),
                  D.GeneralLinear(0.05, (-1.0, 3.0))):
        assert model._mass() == 1.0, model
    # pieces that integrate to 1 + 5e-10, or to 2, are refused
    for pieces in ([[1], [1 + Fraction(1, 10**9)]], [[1], [3]]):
        with pytest.raises(ValueError, match="density mass .* deviates from 1"):
            D._PiecewisePolynomial([0, Fraction(1, 2), 1], pieces)


@pytest.mark.parametrize("mu", [-0.28, 1.28])
def test_truncated_normal_with_its_mode_outside_the_interval(mu):
    # ndtr(b) - ndtr(a) cancels to 0 on these laws; their masses come from log tails
    check_log_tail_law(mu, 0.002)


@pytest.mark.parametrize("mu", [-0.5, -0.4, -0.3, 1.3, 1.4, 1.5])
def test_truncated_normal_with_a_narrow_near_end_spike(mu):
    # the near-end spike is sigma^2 / d wide, 2e-6 to 3.3e-6 here, so narrow that
    # the mass check finds it only through breaks at doubling distances from the end
    check_log_tail_law(mu, 0.001)


# pdf at 0, 1, 2, 5 and 10 spike widths sigma^2 / d from the near end, from mpmath at 60 digits
TAIL_SPIKE_PDF = {
    (-1.0, 0.001): [1000000.999998, 367879.6251102892, 135335.1479010588, 6737.869513123682, 45.397705220314776],
    (2.0, 0.001): [1000000.999998, 367879.62509971054, 135335.1479083007, 6737.869512902972, 45.39770522238082],
    (5.0, 0.001): [4000000.249999969, 1471517.810465, 541341.0992016944, 26951.768629852613, 181.59916288975276],
    (5.0, 0.002): [1000000.249999875, 367879.48714573926, 135335.2494100169, 6737.927627293931, 45.39937361881073],
}


@pytest.mark.parametrize("law", sorted(TAIL_SPIKE_PDF))
def test_truncated_normal_far_from_the_interval_builds_with_a_clean_pdf(law):
    # the pdf takes exp(-z0^2/2) from the near end's log tail, so no node carries z^2 ulps of
    # noise, and the mass check converges on laws that were refused for it
    mu, sigma = law
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        model = D.TruncatedNormal(mu, sigma)
        near = 0.0 if mu < 0.0 else 1.0
        width = sigma ** 2 / abs(mu - near)
        got = model.pdf(np.array([near + (1.0 - 2.0 * near) * k * width for k in (0, 1, 2, 5, 10)]))
    want = np.array(TAIL_SPIKE_PDF[law])
    assert np.max(np.abs(got - want) / want) < 2e-15


@pytest.mark.parametrize("law", [(-1.0, 0.001), (2.0, 0.001), (5.0, 0.001), (5.0, 0.002), (-0.5, 0.001),
                                 (1.5, 0.001), (-0.28, 0.002)])
def test_truncated_normal_quantile_round_trip_with_the_mode_outside(law):
    # the quantile's log tail lnear + drop is rounded at the scale of |lnear|; a Newton step on the
    # log drop leaves only what the cdf's slope makes of an ulp of x, and the cdf's own rounding
    model = D.TruncatedNormal(*law)
    u = np.concatenate([[0.0, 1.0], np.linspace(1e-3, 1 - 1e-3, 205)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x = model.quantile(u)
    bound = 2.0 * model.pdf(x) * np.spacing(x) + 4.0 * np.finfo(float).eps
    assert np.all(np.abs(model.cdf(x) - u) <= bound)


def test_truncated_normal_masses_with_the_mode_inside_against_mpmath():
    # the mass between the ends is a sum of two erf terms of one sign; ndtr(b) - ndtr(a) cancelled
    # to 2.0e-10 relative at sigma = 1e6.  _flo = Phi(-x sqrt 2) carries the rounding of its
    # argument x = mu / (sigma sqrt 2) times erfc's condition number, about 2 x^2 past x = 1
    mp = pytest.importorskip("mpmath")
    tiny = np.nextafter(0.0, 1.0)
    for mu, sigma in itertools.product(np.linspace(0.0, 1.0, 41), np.logspace(-3.0, 6.0, 46)):
        model = D.TruncatedNormal(mu, sigma)
        with mp.workdps(40):
            flo = mp.ncdf(-mp.mpf(model.mu) / model.sigma)
            z = mp.ncdf((1 - mp.mpf(model.mu)) / model.sigma) - flo
            x = float(model.mu / (model.sigma * mp.sqrt(2)))
            assert abs(model._z - z) <= 4e-16 * z, (mu, sigma)
            assert abs(model._flo - flo) <= 4e-16 * max(1.0, 2.0 * x * x) * flo + tiny, (mu, sigma)


def check_log_tail_law(mu, sigma):
    mp = pytest.importorskip("mpmath")
    model = D.TruncatedNormal(mu, sigma)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        u = np.concatenate([[0.0, 1.0], np.linspace(1e-3, 1 - 1e-3, 211)])
        x = model.quantile(u)
        assert x[0] == 0.0 and x[1] == 1.0
        assert np.max(np.abs(model.cdf(x) - u)) < 1e-10
        assert np.all(np.diff(x[2:]) > 0.0)
        pts = np.concatenate([x, np.linspace(0.0, 1.0, 41)])
        got = model.cdf(pts)

    def tail(t):   # Normal mass beyond t on the side away from mu, by the tail's own erfc
        z = (mp.mpf(t) - mp.mpf(mu)) / mp.mpf(sigma)
        return mp.erfc((z if mu < 0 else -z) / mp.sqrt(2)) / 2

    with mp.workdps(50):
        want = [float(abs(tail(p) - tail(0.0)) / abs(tail(1.0) - tail(0.0))) for p in pts]
    assert np.max(np.abs(got - want)) < 1e-11


@pytest.mark.parametrize("model", model_zoo(), ids=repr)
def test_cdf_quantile_round_trip(model):
    u = np.linspace(1e-3, 1 - 1e-3, 211)
    x = model.quantile(u)
    assert np.all(np.diff(x) >= -1e-12)
    assert np.max(np.abs(model.cdf(x) - u)) < 1e-10
    pts = positive_density_points(model)
    back = model.quantile(model.cdf(pts))
    assert np.max(np.abs(back - pts)) < 1e-9


@pytest.mark.parametrize("model", model_zoo(), ids=repr)
def test_cdf_endpoints_and_monotone(model):
    assert model.cdf(model.support.lo) == 0.0
    assert abs(model.cdf(model.support.hi) - 1.0) < 1e-12
    xs = np.linspace(model.support.lo, model.support.hi, 301)
    c = model.cdf(xs)
    assert np.all(np.diff(c) >= -1e-14)
    assert np.all((c >= 0.0) & (c <= 1.0))


def test_beta_symmetry_identity():
    grid = np.linspace(0.0, 1.0, 1000)
    for nu1, nu2 in [(4, 1), (4, 2), (2, 2), (1.5, 3.0)]:
        left = D.Beta(nu1, nu2).cdf(grid)
        right = 1.0 - D.Beta(nu2, nu1).cdf(1.0 - grid)
        assert np.max(np.abs(left - right)) < 1e-12


def _exact_poly(coefs, t, order=0):
    """The order-th derivative of sum coefs[k] t^k at t, in Fractions."""
    return sum(math.perm(k, order) * c * t ** (k - order) for k, c in enumerate(coefs) if k >= order)


def _exact_from_parts(parts, x):
    """pdf and cdf at the Fraction x, from the piece that holds x on its left end (the
    last piece also holds the top end)."""
    below = Fraction(0)
    for lo, hi, coefs in parts:
        if lo <= x < hi or x == hi == parts[-1][1]:
            rise = sum(c * (x - lo) ** (k + 1) / (k + 1) for k, c in enumerate(coefs))
            return [_exact_poly(coefs, x - lo), below + rise]
        below += sum(c * (hi - lo) ** (k + 1) / (k + 1) for k, c in enumerate(coefs))
    raise AssertionError(f"{x} lies outside the parts")


@pytest.mark.parametrize("model", [model for model in model_zoo() if model.piecewise_polynomial_parts()]
                         + [D.PieceQuadratic(2 / 3), D.Linear(-0.3), D.GeneralLinear(0.1, (-1.0, 3.0))],
                         ids=repr)
def test_piecewise_polynomial_parts_agree_with_the_float_evaluators(model):
    parts = model.piecewise_polynomial_parts()
    lo, hi = parts[0][0], parts[-1][1]
    assert (lo, hi) == (Fraction(model.support.lo), Fraction(model.support.hi))
    assert all(a[1] == b[0] for a, b in zip(parts, parts[1:]))
    # floats are exact Fractions, so the points themselves carry no rounding
    x = np.concatenate([np.linspace(model.support.lo, model.support.hi, 257),
                        model.support.lo + model.support.width * np.random.default_rng(1).random(300)])
    want = np.array([[float(v) for v in _exact_from_parts(parts, Fraction(p))] for p in x]).T
    got = [model.pdf(x), model.cdf(x)]
    for name, g, w in zip(["pdf", "cdf"], got, want):
        # a knot such as 1/2 + delta is rounded to a float, which moves t by up to an ulp
        assert np.all(np.abs(g - w) <= 8.0 * np.spacing(np.abs(w))), name
    mid = (lo + hi) / 2
    for which, side, point in [("lo", "+", lo), ("mid", "-", mid), ("mid", "+", mid), ("hi", "-", hi)]:
        start, _, coefs = next(p for p in parts if (p[0] <= point < p[1] if side == "+" else p[0] < point <= p[1]))
        # the first nonzero derivative over its factorial, signed (-1)^j where t runs leftward
        derivs = [_exact_poly(coefs, point - start, j) for j in range(len(coefs))]
        j = next((j for j, d in enumerate(derivs) if d), None)
        want = (0.0, math.inf) if j is None else (
            float(derivs[j] / math.factorial(j) * (1 if side == "+" else (-1) ** j)), float(j))
        assert model.leading_term(which, side) == want
    u = np.concatenate([[0.0, 1.0, 2.0 ** -53, 1.0 - 2.0 ** -53], np.random.default_rng(0).random(2000)])
    q = model.quantile(u)
    assert np.all(np.abs(model.cdf(q) - u) <= 2.0 * model.pdf(q) * np.spacing(q) + 4.0 * np.finfo(float).eps)


def test_newton_quantile_keeps_every_bit():
    # Newton passes drop the values that have stopped, which leaves each value's own steps as
    # they were: the sha256 of the float64 bytes was taken before that change
    u = np.linspace(0.0, 1.0, 10_000).reshape(100, 100)
    x = D.PieceQuadratic(2 / 3).quantile(u)
    assert x.shape == u.shape
    assert hashlib.sha256(x.astype("<f8").tobytes()).hexdigest() == (
        "0ae649183927559299c9d19731ad0fee4f501dc89b81371a0c1db8431a1df737")


@pytest.mark.parametrize("model", model_zoo(), ids=repr)
def test_leading_term_matches_pdf_beside_each_landmark(model):
    lo, hi = model.support.lo, model.support.hi
    w, mid = hi - lo, 0.5 * (lo + hi)
    combos = [("lo", "+", lo, 1), ("hi", "-", hi, -1), ("mid", "+", mid, 1), ("mid", "-", mid, -1)]
    for which, side, base, direction in combos:
        c, a = model.leading_term(which, side)
        # dyadic offsets keep base + t w exact on a dyadic support
        errors = []
        for t in (2.0 ** -16, 2.0 ** -24):
            f = model.pdf(base + direction * t * w)
            if (c, a) == (0.0, math.inf):
                assert f == 0.0, (which, side)
                continue
            errors.append(abs(f - c * (t * w) ** a) / (c * (t * w) ** a))
        # f / (c t^a) - 1 must shrink toward 0 as t does
        if errors:
            assert errors[1] <= max(1e-8, 0.51 * errors[0]), (which, side, errors)


def test_leading_term_spot_values():
    pi2 = math.pi ** 2
    for which, side in [("lo", "+"), ("mid", "+"), ("mid", "-"), ("hi", "-")]:
        assert D.AbsSine().leading_term(which, side) == (pi2, 1.0)

    for model in (D.QPower(2.0), D.PieceQuadratic(0.0)):
        assert model.leading_term("lo", "+") == (12.0, 2.0)
        assert model.leading_term("mid", "+") == (12.0, 2.0)
        assert model.leading_term("mid", "-") == (3.0, 0.0)
        assert model.leading_term("hi", "-") == (3.0, 0.0)

    lin = D.Linear(1.0)
    assert lin.leading_term("lo", "+") == (0.5, 0.0)
    assert lin.leading_term("hi", "-") == (1.5, 0.0)
    assert lin.leading_term("mid", "-") == (1.0, 0.0)
    # f = 2 - 2x is 2t at distance t left of 1
    assert D.Linear(-2.0).leading_term("hi", "-") == (2.0, 1.0)
    assert D.Linear(2.0).leading_term("lo", "+") == (2.0, 1.0)

    b22 = D.Beta(2, 2)
    assert b22.leading_term("lo", "+") == (pytest.approx(6.0, rel=1e-15), 1.0)
    assert b22.leading_term("hi", "-") == (pytest.approx(6.0, rel=1e-15), 1.0)
    assert b22.leading_term("mid", "+") == (pytest.approx(1.5, rel=1e-15), 0.0)

    two = D.TwoStep(0.5)
    assert two.leading_term("mid", "-") == (1.5, 0.0)
    assert two.leading_term("mid", "+") == (0.5, 0.0)
    # a piece without mass beside the landmark
    assert D.GapUniform(0.1).leading_term("mid", "+") == (0.0, math.inf)
    assert D.ShrunkUniform(0.1).leading_term("lo", "+") == (0.0, math.inf)


def test_divergent_and_fractional_powers():
    a = D.ArcSine()
    for which, side in [("lo", "+"), ("hi", "-")]:
        assert a.leading_term(which, side) == (1.0 / math.pi, -0.5)
    assert a.leading_term("mid", "+") == (2.0 / math.pi, 0.0)

    assert D.QPower(0.5).leading_term("lo", "+") == (1.5 * 2.0 ** 0.5, 0.5)
    assert D.QPower(0.5).leading_term("mid", "+") == (1.5 * 2.0 ** 0.5, 0.5)
    assert D.QPower(1.5).leading_term("hi", "-") == (pytest.approx(2.5, rel=1e-15), 0.0)
    assert D.Beta(1.5, 1).leading_term("lo", "+") == (pytest.approx(1.5, rel=1e-15), 0.5)
    assert D.Beta(3, 1).leading_term("lo", "+") == (pytest.approx(3.0, rel=1e-15), 2.0)


def test_leading_term_errors():
    m = D.Uniform()
    with pytest.raises(ValueError, match="side"):
        m.leading_term("lo", "-")
    with pytest.raises(ValueError, match="side"):
        m.leading_term("hi", "+")
    with pytest.raises(ValueError, match="side"):
        m.leading_term("mid", "0")
    # landmarks go by name only, also where a float is a landmark's coordinate
    for point in (0.3, 0.0, 0.5, 1.0, "0.5"):
        with pytest.raises(ValueError, match="point"):
            m.leading_term(point, "+")


def test_parameter_validation_messages():
    with pytest.raises(ValueError, match="delta"):
        D.ShrunkUniform(0.5)
    with pytest.raises(ValueError, match="delta"):
        D.GapUniform(0.5)
    with pytest.raises(ValueError, match="delta"):
        D.TwoStep(1.5)
    with pytest.raises(ValueError, match="a:"):
        D.Linear(2.5)
    with pytest.raises(ValueError, match="q"):
        D.QPower(-0.5)
    with pytest.raises(ValueError, match="nu1"):
        D.Beta(0.5, 2)
    with pytest.raises(ValueError, match="nu2"):
        D.Beta(2, 0.0)
    with pytest.raises(ValueError, match="sigma"):
        D.TruncatedNormal(0.5, 0.0)
    with pytest.raises(ValueError, match="a:"):
        D.GeneralLinear(3.0, (0.0, 2.0))
    with pytest.raises(ValueError, match="support"):
        D.SupportInterval(1.0, 1.0)
    for lo, hi in ((0.0, math.inf), (-math.inf, 1.0), (math.nan, 1.0)):
        with pytest.raises(ValueError, match="support: ends must be finite"):
            D.SupportInterval(lo, hi)
    # 2 / width^2 bounds the slope, so the square must neither underflow nor overflow
    for support in ((0.0, 1e-320), (0.0, 1e-160), (0.0, 1e200)):
        with pytest.raises(ValueError, match="support: general_linear needs a width"):
            D.GeneralLinear(0.0, support)


def test_spec_round_trip():
    for model in model_zoo():
        spec = D.model_to_spec(model)
        clone = D.model_from_spec(json.dumps(spec))
        assert clone == model
        assert D.model_to_spec(clone) == spec


def test_spec_parse_errors_name_fields():
    with pytest.raises(ValueError, match="family"):
        D.model_from_spec({"params": {}})
    with pytest.raises(ValueError, match="family"):
        D.model_from_spec({"family": "nope"})
    with pytest.raises(ValueError, match="params"):
        D.model_from_spec({"family": "linear", "params": [1]})
    with pytest.raises(ValueError, match="params"):
        D.model_from_spec({"family": "linear", "params": {"slope": 1.0}})
    with pytest.raises(ValueError, match="delta"):
        D.model_from_spec({"family": "gap_uniform", "params": {"delta": 0.5}})
    with pytest.raises(ValueError, match="support"):
        D.model_from_spec({"family": "general_linear", "params": {"a": 0.1}})
    with pytest.raises(ValueError, match="support"):
        D.model_from_spec({"family": "uniform", "support": [0, 1, 2]})
    with pytest.raises(ValueError, match="not valid JSON"):
        D.model_from_spec("{family: uniform}")
    with pytest.raises(ValueError, match="unknown field"):
        D.model_from_spec({"family": "uniform", "extra": 1})
    # integers too large for a double, which float() answers with OverflowError
    with pytest.raises(ValueError, match="params: a number is out of range"):
        D.model_from_spec({"family": "two_step", "params": {"delta": 10 ** 400}})
    with pytest.raises(ValueError, match="support: ends must be finite"):
        D.model_from_spec({"family": "general_linear", "params": {"a": 0}, "support": [0, 10 ** 400]})


@pytest.mark.parametrize("family", sorted(D.FAMILIES))
def test_params_are_the_constructor_arguments(family):
    # the spec round trip passes params back to the constructor, so they must name its arguments;
    # only general_linear lives off the unit interval, and only it takes a support
    cls = D.FAMILIES[family]
    support = ("support",) if family == "general_linear" else ()
    assert tuple(inspect.signature(cls).parameters) == cls._param_names + support


@pytest.mark.parametrize("family", sorted(D.FAMILIES))
def test_spec_support_is_the_unit_interval_but_for_general_linear(family):
    model = next(m for m in model_zoo() if m.family == family)
    spec = D.model_to_spec(model)
    if family == "general_linear":
        assert D.model_from_spec({**spec, "support": [0, 2]}).support == D.SupportInterval(0.0, 2.0)
        return
    assert spec["support"] == [0.0, 1.0]
    assert D.model_from_spec({**spec, "support": [0, 1]}) == model
    for support in ([0, 2], [-1, 0], [0.0, 1.5], [1, 1]):
        with pytest.raises(ValueError, match=r"support: this family is defined on \[0,1\]"):
            D.model_from_spec({**spec, "support": support})


def test_sampling_is_sorted_deterministic_and_unbiased():
    # simulate draws points by the quantile transform, which keeps order
    u = np.sort(np.random.default_rng(7).random(100_000))
    xs = D.Uniform().quantile(u)
    assert np.all(np.diff(xs) >= 0)
    assert abs(xs.mean() - 0.5) < 0.005

    u = np.random.default_rng(123).random(1000)
    assert np.array_equal(D.Uniform().quantile(u), D.Uniform().quantile(u.copy()))

    model = D.Beta(4, 1)
    mean_oracle, _ = integrate.quad(lambda t: t * float(model.pdf(t)), 0, 1)
    assert mean_oracle == pytest.approx(0.8, abs=1e-12)
    xs = model.quantile(np.sort(np.random.default_rng(11).random(100_000)))
    assert np.all(np.diff(xs) >= 0)
    se = xs.std() / math.sqrt(xs.size)
    assert abs(xs.mean() - mean_oracle) < 4 * se
    assert xs.min() >= 0.0 and xs.max() <= 1.0


def test_gap_uniform_builds_for_every_delta_below_a_half():
    for d in np.linspace(0.0, 0.5, 51)[:-1]:
        model = D.GapUniform(d)
        assert model.delta == d and model.cdf(0.5) == pytest.approx(0.5, abs=1e-15)


def test_general_linear_bounds_the_slope_it_hands_to_linear():
    # a = +-2 / w^2 builds wherever a * w^2 rounds to at most 2 in size, the slope A of its unit
    # copy; the pieces take A too, so the pdf never dips below 0 (it read -5e-17 at the low end
    # for w = 1.1 when they took a) and is 0 at its vanishing end to within the rounding of A
    for w in (3.0, 0.3, 7.0, 1.1, 2.5, 10.0, 0.7, 1.0 / 3.0, 5.5):
        for sign in (1.0, -1.0):
            model = D.GeneralLinear(sign * 2.0 / w ** 2, (0.0, w))
            low, high = model.pdf(0.0), model.pdf(w)
            assert low >= 0.0 and high >= 0.0
            assert (low if sign > 0 else high) <= 4e-16 / w
            assert 2.0 - 4e-16 <= sign * model.to_unit().a <= 2.0
    for a in (0.50000000000001, -0.50000000000001, math.nan):
        with pytest.raises(ValueError, match="a: general_linear slope"):
            D.GeneralLinear(a, (0.0, 2.0))


def test_to_unit_returns_models_on_the_unit_interval_unchanged():
    for model in model_zoo():
        unit = model.to_unit()
        assert (unit.support.lo, unit.support.hi) == (0.0, 1.0)
        if (model.support.lo, model.support.hi) == (0.0, 1.0):
            assert unit is model


def test_general_linear_matches_unit_rescale():
    g = D.GeneralLinear(0.5, (1.0, 3.0))
    unit = g.to_unit()
    assert isinstance(unit, D.Linear)
    assert unit.a == pytest.approx(2.0)
    t = np.linspace(0.0, 1.0, 101)
    assert np.max(np.abs(g.cdf(1.0 + 2.0 * t) - unit.cdf(t))) < 1e-12
    # densities scale by the width
    assert np.max(np.abs(2.0 * g.pdf(1.0 + 2.0 * t) - unit.pdf(t))) < 1e-12


def test_declared_polynomial_degree_is_the_degree_between_knots():
    """A degree set too low would make the anchor rules inexact, which no mass check sees."""
    zoo = model_zoo()
    declaring = {model.family for model in zoo if model.polynomial_degree is not None}
    assert declaring == set(D.FAMILIES) - {"abs_sine", "arc_sine", "truncated_normal"}
    assert [model for model in zoo if model.family in ("q_power", "beta")
            and model.polynomial_degree is None] == [D.QPower(0.5), D.QPower(3.5), D.Beta(1.5, 3.25)]
    for model in zoo:
        d = model.polynomial_degree
        if d is None:
            continue
        breaks = [model.support.lo, *sorted(model.interior_knots()), model.support.hi]
        degrees = (d, d - 1) if d else (d,)
        misses = dict.fromkeys(degrees, 0.0)
        for a, b in zip(breaks, breaks[1:]):
            held_out = a + (b - a) * np.linspace(0.02, 0.98, 8)
            want = model.pdf(held_out)
            scale = np.max(np.abs(want)) or 1.0  # a gap of a step density is 0
            for degree in degrees:
                # degree + 1 Chebyshev points inside the piece, none of them held out
                x = a + 0.5 * (b - a) * (1.0 - np.cos(np.pi * (np.arange(degree + 1) + 0.5) / (degree + 1)))
                fit = np.polynomial.Polynomial.fit(x, model.pdf(x), degree)
                misses[degree] = max(misses[degree], np.max(np.abs(fit(held_out) - want)) / scale)
        assert misses[d] <= 1e-12, model
        if d:
            assert misses[d - 1] > 1e-6, model


@settings(max_examples=60, deadline=None)
@given(st.floats(0.0, 0.49, exclude_max=True), st.floats(0.0, 1.0))
def test_step_quantile_property(delta, u):
    model = D.ShrunkUniform(delta)
    x = model.quantile(u)
    assert model.support.lo <= x <= model.support.hi
    assert model.cdf(x) == pytest.approx(u, abs=1e-10)


@settings(max_examples=60, deadline=None)
@given(st.floats(-2.0, 2.0), st.floats(0.001, 0.999))
def test_linear_quantile_property(a, u):
    model = D.Linear(a)
    assert model.cdf(model.quantile(u)) == pytest.approx(u, abs=1e-10)


def test_linear_quantile_at_a_zero_density_end():
    # the root 2u / (g + sqrt(g^2 + 2au)) is 0/0 at u = 0 where the density g at lo is 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert D.Linear(2.0).quantile(0.0) == 0.0
        assert D.SquareCdf().quantile(0.0) == 0.0
        assert D.GeneralLinear(0.5, (0.0, 2.0)).quantile([0.0]).tolist() == [0.0]
        assert D.Linear(-2.0).quantile(1.0) == 1.0


@settings(max_examples=40, deadline=None)
@given(st.floats(1.0, 6.0), st.floats(1.0, 6.0))
def test_beta_pdf_nonnegative_and_mass(nu1, nu2):
    model = D.Beta(nu1, nu2)
    xs = np.linspace(0, 1, 201)
    assert np.all(model.pdf(xs) >= 0)
    assert model.cdf(1.0) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1e-300, np.nextafter(1.0, 2.0)])
def test_quantile_rejects_u_outside_the_unit_interval(bad):
    for u in (bad, np.array([0.5, bad, 0.25])):
        with pytest.raises(ValueError, match=r"u must lie in \[0,1\]"):
            D.Uniform().quantile(u)
    # the copy-free path simulate takes keeps the check
    with pytest.raises(ValueError, match=r"u must lie in \[0,1\]"):
        D.Uniform()._unit_quantile(np.array([0.5, bad]))


@pytest.mark.parametrize("model", [D.Uniform(), D.Linear(0.0), D.Beta(2, 2)])
def test_quantile_never_hands_back_its_argument(model):
    # Uniform and Linear(0) have the identity quantile
    u = np.array([0.0, 0.25, 1.0])
    out = model.quantile(u)
    assert out.tolist() == model._unit_quantile(u).tolist()
    assert not np.shares_memory(out, u)


def test_quantile_accepts_the_closed_unit_interval():
    model = D.Beta(2, 2)
    assert model.quantile(np.array([0.0, -0.0, 1.0])).tolist() == [0.0, 0.0, 1.0]
    assert model.quantile(np.array([])).shape == (0,)


def test_beta_pdf_at_the_ends():
    for (nu1, nu2), ends in {(1, 3): [3.0, 0.0], (2, 1): [0.0, 2.0], (1, 1): [1.0, 1.0],
                             (2, 2): [0.0, 0.0]}.items():
        assert D.Beta(nu1, nu2).pdf(np.array([0.0, 1.0])) == pytest.approx(ends, rel=1e-15)


def test_beta_with_large_shapes_builds_without_overflow():
    # 1/B(1000, 1000) overflows a double; only an end whose shape is 1 needs it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        model = D.Beta(1000, 1000)
        assert model.pdf(np.array([0.0, 1.0])).tolist() == [0.0, 0.0]
        assert model.pdf(0.5) == pytest.approx(35.678, rel=1e-4)
        # exp(-log B) as before, to the bit
        for shape, ends in {(1, 3): [3.0000000000000004, 0.0], (4, 1): [0.0, 4.0]}.items():
            beta = D.Beta(*shape)
            assert beta.pdf(np.array([0.0, 1.0])).tolist() == ends
            assert [beta.pdf(0.0), beta.pdf(1.0)] == ends
            assert max(ends) == np.exp(-beta._lognorm)


def test_beta_midpoint_terms_with_large_shapes_stay_finite():
    # the midpoint term is the pdf, formed in log space, so 1/B(1000, 1000) is never needed there
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        model = D.Beta(1000, 1000)
        for side in "+-":
            assert model.leading_term("mid", side) == (model.pdf(0.5), 0.0)


@pytest.mark.parametrize("which, side", [("lo", "+"), ("hi", "-")])
def test_beta_endpoint_terms_with_large_shapes_overflow_quietly(which, side):
    # 1/B(1000, 1000) passes the float range; its power 999 is what the limit reads
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert D.Beta(1000, 1000).leading_term(which, side) == (math.inf, 999.0)


def test_beta_end_terms_are_the_exact_normalizer():
    # 1/B(a, b) = (a + b - 1) C(a + b - 2, a - 1) at integer shapes; exp(-log B) keeps it to
    # about |log B| ulps, which is 42 at (30, 30)
    for nu1, nu2 in [(30, 30), (2, 5), (4, 1), (2, 2000)]:
        model = D.Beta(nu1, nu2)
        c = float((nu1 + nu2 - 1) * math.comb(nu1 + nu2 - 2, nu1 - 1))
        assert model.leading_term("lo", "+") == (pytest.approx(c, rel=1e-14), nu1 - 1.0)
        assert model.leading_term("hi", "-") == (pytest.approx(c, rel=1e-14), nu2 - 1.0)


@pytest.mark.parametrize("model", model_zoo(), ids=repr)
def test_pdf_and_cdf_skip_the_mask_inside_the_support(model, monkeypatch):
    lo, hi = model.support.lo, model.support.hi
    inside = lo + (hi - lo) * np.array([[0.0, 1e-300, 0.125, 0.25, 0.5],
                                        [0.6, 0.75, 0.9, 1.0 - 2.0 ** -53, 1.0]])
    mixed = np.array([lo - 1.0, np.nextafter(lo, -np.inf), lo, 0.5 * (lo + hi), hi,
                      np.nextafter(hi, np.inf), hi + 1.0, np.nan, -np.inf, np.inf])
    with np.errstate(divide="ignore"):
        fast = [model.pdf(inside), model.cdf(inside)]
        rest = [model.pdf(mixed), model.cdf(mixed)]
        assert not any(np.shares_memory(out, inside) for out in fast)
        monkeypatch.setattr(D.DensityModel, "_in_support", lambda self, a: False)
        masked = [model.pdf(inside), model.cdf(inside)]
        old_rest = [model.pdf(mixed), model.cdf(mixed)]
    for got, want in zip(fast + rest, masked + old_rest):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    pdf, cdf = rest
    assert pdf[[0, 1, 5, 6, 7, 8, 9]].tolist() == [0.0] * 7
    assert cdf[[0, 1, 8]].tolist() == [0.0] * 3 and cdf[[5, 6, 9]].tolist() == [1.0] * 3
    assert np.isnan(cdf[7])


@pytest.mark.parametrize("shape", [(2, 200), (100, 100), (2, 2)], ids=str)
def test_beta_normalizer_against_mpmath(shape):
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        want = mp.log(mp.beta(*shape))
    got = D.Beta(*shape)._lognorm
    assert float(abs(got - want)) <= np.spacing(abs(float(want))), (got, float(want))


def test_integer_shape_normalizer_within_half_an_ulp_of_mpmath():
    mp = pytest.importorskip("mpmath")
    for a, b in itertools.product([1, 2, 3, 7, 16, 27, 40, 200], repeat=2):
        with mp.workdps(40):
            want = mp.log(mp.beta(a, b))
        got = D.Beta(a, b)._lognorm
        assert float(abs(got - want)) <= 0.5 * np.spacing(abs(float(want))), (a, b, got, float(want))


@pytest.mark.parametrize("shape", [(2, 2), (4, 1), (1, 4), (4, 2), (2, 4), (1, 1), (30, 30), (2, 200)],
                         ids=str)
def test_integer_shape_normalizer_keeps_the_table_and_betaln_values(shape):
    # the shapes that the commands, tests and benchmark build: their densities stay bit for bit
    a, b = map(float, shape)
    want = D._beta_quantile_table(a, b)[3] if min(a, b) > 1.0 else special.betaln(a, b)
    assert D.Beta(a, b)._lognorm == want


def test_integer_shapes_build_the_quantile_table_on_the_first_quantile():
    assert math.copysign(1.0, D.Beta(1, 1)._lognorm) == 1.0  # +0.0, not the -0.0 of -log 1
    D._beta_quantile_table.cache_clear()
    model = D.Beta(3, 5)
    assert D._beta_quantile_table.cache_info().currsize == 0
    model.quantile(np.array([0.25, 0.5]))
    assert D._beta_quantile_table.cache_info().currsize == 1


# ---------------------------------------------------- Beta quantile route

BETA_ROUTE_SHAPES = [(2, 2), (2, 5), (5, 2), (1.5, 1.5), (3.5, 1.7), (9, 9), (30, 30),
                     (2, 200), (4, 1), (1, 3)]


def _route_inputs(count, seed):
    """u = 0, 1, 2^-53, 1 - 2^-53, table nodes and cell midpoints around the
    first and last inner cells and the middle, and uniform draws."""
    n, e = D.BETA_CELLS, D.BETA_END_CELLS
    nodes = np.array([1, e - 1, e, e + 1, e + 2, n // 2, n - e - 1, n - e, n - e + 1, n - 1])
    mids = np.array([0, e - 1, e, e + 1, n // 2, n - e - 2, n - e - 1, n - e, n - 1]) + 0.5
    rng = np.random.default_rng(seed)
    return np.concatenate([[0.0, 1.0, 2.0 ** -53, 1.0 - 2.0 ** -53], nodes / n, mids / n,
                           rng.random(count)])


def _mp_quantile(a, b, u):
    """The Beta(a, b) quantile of u to 40 digits: Newton on mpmath's betainc."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        a, b, u = mp.mpf(a), mp.mpf(b), mp.mpf(u)
        x = (u * a * mp.beta(a, b)) ** (1 / a)
        if x > mp.mpf(2) ** -40:
            x = mp.mpf(float(special.betaincinv(float(a), float(b), float(u))))
        for _ in range(40):
            step = (mp.betainc(a, b, 0, x, regularized=True) - u) * mp.beta(a, b) \
                / (x ** (a - 1) * (1 - x) ** (b - 1))
            x -= step
            if abs(step) < x * mp.mpf(10) ** -36:
                return x
    raise AssertionError(f"no convergence at u={u}")


def _ulps(xs, refs):
    return np.array([float(abs(x - r) / np.spacing(float(r))) for x, r in zip(xs, refs)])


def _assert_within_betaincinv_error(a, b, u, x):
    inner = (u > 0.0) & (u < 1.0)
    refs = [_mp_quantile(a, b, v) for v in u[inner]]
    route, inv = _ulps(x[inner], refs), _ulps(special.betaincinv(a, b, u[inner]), refs)
    worst = np.argmax(route - inv)
    assert route[worst] <= inv[worst] + 2.0, (
        f"Beta({a}, {b}) u={u[inner][worst]!r}: {route[worst]:.2f} ulp vs betaincinv {inv[worst]:.2f}")


@pytest.mark.parametrize("shape", BETA_ROUTE_SHAPES, ids=str)
def test_beta_quantile_route_matches_betaincinv(shape):
    a, b = shape
    u = _route_inputs(4000, seed=1)
    x, inv = D.Beta(a, b).quantile(u), special.betaincinv(a, b, u)
    assert x[0] == 0.0 and x[1] == 1.0
    assert np.all(np.diff(x[np.argsort(u)]) >= 0)
    assert x == pytest.approx(inv, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("shape, counts", [((4, 1), {1: 99041, 2: 959}),
                                           ((1, 4), {1: 99005, 2: 995})], ids=str)
def test_unit_shape_closed_form_keeps_the_criterion_05_counts(shape, counts, philox_streams):
    # counts recorded with the betaincinv quantile that the closed forms replaced
    plan = simulate.SimulationPlan(fx=D.Beta(*shape), fy=(0.0, 1.0), n=50, reps=100_000, seed=14)
    assert simulate.run(plan) == counts


@pytest.mark.parametrize("shape, counts", [((4, 1), {1: 99001, 2: 999}),
                                           ((1, 4), {1: 99026, 2: 974})], ids=str)
def test_unit_shape_criterion_05_counts_on_sfc64_streams(shape, counts):
    plan = simulate.SimulationPlan(fx=D.Beta(*shape), fy=(0.0, 1.0), n=50, reps=100_000, seed=14)
    assert simulate.run(plan) == counts


@pytest.mark.parametrize("shape", BETA_ROUTE_SHAPES, ids=str)
def test_beta_quantile_route_error_against_mpmath(shape):
    a, b = shape
    u = _route_inputs(60, seed=2)
    _assert_within_betaincinv_error(a, b, u, D.Beta(a, b).quantile(u))


@pytest.mark.parametrize("shape", BETA_ROUTE_SHAPES, ids=str)
def test_beta_quantile_scalar_and_zero_d_input(shape):
    a, b = shape
    model = D.Beta(a, b)
    # a scalar takes the array route, which is within about an ulp of mpmath
    for v in (1e-300, 0.001, 0.3, 0.999):
        for u in (v, np.float64(v), np.array(v)):
            x = model.quantile(u)
            assert isinstance(x, float) and x == model.quantile(np.array([v]))[0]


@pytest.mark.parametrize("shape", BETA_ROUTE_SHAPES + [(1.01, 50), (100, 100)], ids=str)
def test_beta_quantile_has_no_nan_at_tiny_u(shape):
    a, b = shape
    tiny = np.array([0.0, 5e-324, 1e-310, 1e-300, 1e-200])
    model = D.Beta(a, b)
    for x in (model.quantile(tiny), np.array([model.quantile(v) for v in tiny])):
        assert not np.isnan(x).any() and x[0] == 0.0 and np.all((x >= 0.0) & (x < 1.0))
        for v, got in zip(tiny[1:], x[1:]):
            want = _mp_quantile(a, b, v)
            # the series route, where the answer is a normal double
            if np.finfo(float).tiny <= want < D.BETA_TAIL_X:
                assert float(abs(got - want) / want) < 1e-12, (v, got, float(want))


def _spy_on_betaincinv(monkeypatch):
    """Record how many values each ``special.betaincinv`` call gets."""
    real, seen = special.betaincinv, []

    def spy(a, b, v):
        seen.append(np.size(v))
        return real(a, b, v)

    monkeypatch.setattr(special, "betaincinv", spy)
    return seen


def _end_cell_values(u):
    n, e = D.BETA_CELLS, D.BETA_END_CELLS
    return np.count_nonzero((u < e / n) | (u >= 1 - e / n))


def test_beta_quantile_route_replaces_betaincinv_in_inner_cells(monkeypatch):
    D._beta_quantile_table.cache_clear()
    D.Beta(4, 1), D.Beta(1, 3)
    assert D._beta_quantile_table.cache_info().currsize == 0   # unit shapes keep betaincinv
    model = D.Beta(2.5, 3.5)
    assert D._beta_quantile_table.cache_info().currsize == 1   # built with the model
    u = np.random.default_rng(3).random((64, 300))
    expect = special.betaincinv(2.5, 3.5, u)
    seen = _spy_on_betaincinv(monkeypatch)
    x = model.quantile(u)
    assert sum(seen) == _end_cell_values(u) > 0
    assert x == pytest.approx(expect, rel=1e-14, abs=0.0)
    monkeypatch.setattr(D, "BETA_CHUNK", 1000)   # 20 chunks, the last one short
    assert np.array_equal(model.quantile(u), x)


def test_beta_quantile_falls_back_on_a_skewed_start(monkeypatch):
    a, b = 2.0, 5.0
    nodes, dq, defect, lognorm = D._beta_quantile_table(a, b)
    # slopes 50% off: starts miss by up to ~1e-6 x, more than one Newton step can mend
    monkeypatch.setattr(D, "_beta_quantile_table", lambda *_: (nodes, 1.5 * dq, defect, lognorm))
    seen = _spy_on_betaincinv(monkeypatch)
    u = _route_inputs(60, seed=4)
    x = D.Beta(a, b).quantile(u)
    assert sum(seen) > _end_cell_values(u) + 40
    _assert_within_betaincinv_error(a, b, u, x)
