import json
import math

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


@pytest.mark.parametrize("family, args", [(D.Linear, (1.0,)), (D.PieceQuadratic, (2 / 3,)),
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
    noisy = type("Noisy", (D.Uniform,), {"_pdf": lambda self, x: 1.0 + 1e-9 * np.sin(1e9 * x)})
    with pytest.raises(ValueError, match="did not converge"):
        noisy()
    # the square-root cusp of QPower(0.5) needs more than three rounds of halving
    monkeypatch.setattr(D, "_MASS_ROUNDS", 3)
    with pytest.raises(ValueError, match="did not converge in 3 rounds"):
        D.QPower(0.5)


def test_nan_mass_is_rejected():
    # the normalizer underflows to 0, so the pdf is NaN or infinite everywhere
    with np.errstate(all="ignore"), pytest.raises(ValueError, match="density mass nan"):
        D.TruncatedNormal(-0.28, 0.002)


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


@pytest.mark.parametrize("model", model_zoo(), ids=repr)
def test_order_zero_one_sided_matches_pdf_limit(model):
    h1, h2 = 1e-10, 1e-10 / 4096
    w = model.support.width
    combos = [("lo", "+", model.support.lo, 1), ("hi", "-", model.support.hi, -1),
              ("mid", "+", model.support.mid, 1), ("mid", "-", model.support.mid, -1)]
    for which, side, base, direction in combos:
        d = model.one_sided_derivative(which, side, 0)
        if d.is_infinite:
            assert model.pdf(base + direction * h2 * w) > 1e4
            continue
        e1 = abs(model.pdf(base + direction * h1 * w) - d.value)
        e2 = abs(model.pdf(base + direction * h2 * w) - d.value)
        # the pdf must converge to the stated one-sided value
        assert e2 <= max(1e-8, 0.51 * e1)


def test_one_sided_derivative_spot_values():
    pi2 = math.pi ** 2
    assert D.AbsSine().one_sided_derivative("lo", "+", 1).value == pytest.approx(pi2, abs=1e-12)
    assert D.AbsSine().one_sided_derivative("mid", "+", 1).value == pytest.approx(pi2, abs=1e-12)
    assert D.AbsSine().one_sided_derivative("mid", "-", 1).value == pytest.approx(-pi2, abs=1e-12)
    assert D.AbsSine().one_sided_derivative("hi", "-", 1).value == pytest.approx(-pi2, abs=1e-12)

    q2 = D.QPower(2.0)
    assert q2.one_sided_derivative("lo", "+", 0).value == 0.0
    assert q2.one_sided_derivative("lo", "+", 1).value == 0.0
    assert q2.one_sided_derivative("lo", "+", 2).value == pytest.approx(24.0)
    assert q2.one_sided_derivative("mid", "-", 0).value == pytest.approx(3.0)
    assert q2.one_sided_derivative("hi", "-", 1).value == pytest.approx(12.0)

    pq = D.PieceQuadratic(0.0)
    assert pq.one_sided_derivative("lo", "+", 2).value == pytest.approx(24.0)
    assert pq.one_sided_derivative("mid", "+", 2).value == pytest.approx(24.0)
    assert pq.one_sided_derivative("mid", "-", 0).value == pytest.approx(3.0)
    assert pq.one_sided_derivative("hi", "-", 0).value == pytest.approx(3.0)

    lin = D.Linear(1.0)
    assert lin.one_sided_derivative("lo", "+", 0).value == pytest.approx(0.5)
    assert lin.one_sided_derivative("hi", "-", 0).value == pytest.approx(1.5)
    assert lin.one_sided_derivative("mid", "-", 1).value == pytest.approx(1.0)

    b22 = D.Beta(2, 2)
    assert b22.one_sided_derivative("lo", "+", 0).value == 0.0
    assert b22.one_sided_derivative("lo", "+", 1).value == pytest.approx(6.0)
    assert b22.one_sided_derivative("lo", "+", 2).value == pytest.approx(-12.0)
    assert b22.one_sided_derivative("hi", "-", 1).value == pytest.approx(-6.0)

    two = D.TwoStep(0.5)
    assert two.one_sided_derivative("mid", "-", 0).value == pytest.approx(1.5)
    assert two.one_sided_derivative("mid", "+", 0).value == pytest.approx(0.5)


def test_infinite_derivative_flags():
    a = D.ArcSine()
    for which, side in [("lo", "+"), ("hi", "-")]:
        d = a.one_sided_derivative(which, side, 0)
        assert d.is_infinite and math.isinf(d.value) and d.value > 0
    assert a.one_sided_derivative("lo", "+", 1).value == -math.inf
    assert a.one_sided_derivative("hi", "-", 1).value == math.inf
    assert a.one_sided_derivative("mid", "+", 0).value == pytest.approx(2 / math.pi)

    d = D.QPower(0.5).one_sided_derivative("lo", "+", 1)
    assert d.is_infinite and d.value == math.inf
    d = D.QPower(1.5).one_sided_derivative("lo", "+", 2)
    assert d.is_infinite and d.value == math.inf
    d = D.Beta(1.5, 1).one_sided_derivative("lo", "+", 1)
    assert d.is_infinite and d.value == math.inf
    # integer shapes stay finite
    assert not D.Beta(3, 1).one_sided_derivative("lo", "+", 2).is_infinite


def test_one_sided_derivative_errors():
    m = D.Uniform()
    with pytest.raises(ValueError, match="order"):
        m.one_sided_derivative("lo", "+", 3)
    with pytest.raises(ValueError, match="side"):
        m.one_sided_derivative("lo", "-", 0)
    with pytest.raises(ValueError, match="side"):
        m.one_sided_derivative("hi", "+", 0)
    with pytest.raises(ValueError, match="point"):
        m.one_sided_derivative(0.3, "+", 0)


def test_parameter_validation_messages():
    with pytest.raises(ValueError, match="delta"):
        D.ShrunkUniform(0.5)
    with pytest.raises(ValueError, match="delta"):
        D.GapUniform(0.25)
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
        D.model_from_spec({"family": "gap_uniform", "params": {"delta": 0.2}})
    with pytest.raises(ValueError, match="support"):
        D.model_from_spec({"family": "general_linear", "params": {"a": 0.1}})
    with pytest.raises(ValueError, match="support"):
        D.model_from_spec({"family": "uniform", "support": [0, 1, 2]})
    with pytest.raises(ValueError, match="not valid JSON"):
        D.model_from_spec("{family: uniform}")
    with pytest.raises(ValueError, match="unknown field"):
        D.model_from_spec({"family": "uniform", "extra": 1})


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


def test_general_linear_matches_unit_rescale():
    g = D.GeneralLinear(0.5, (1.0, 3.0))
    unit = g.to_unit()
    assert isinstance(unit, D.Linear)
    assert unit.a == pytest.approx(2.0)
    t = np.linspace(0.0, 1.0, 101)
    assert np.max(np.abs(g.cdf(1.0 + 2.0 * t) - unit.cdf(t))) < 1e-12
    # densities scale by the width
    assert np.max(np.abs(2.0 * g.pdf(1.0 + 2.0 * t) - unit.pdf(t))) < 1e-12


def test_interior_pdf_derivative_matches_finite_differences():
    probes = {
        D.Linear(1.5): [0.2, 0.7],
        D.QPower(2.0): [0.2, 0.8],
        D.PieceQuadratic(0.3): [0.2, 0.8],
        D.AbsSine(): [0.2, 0.8],
        D.ArcSine(): [0.3, 0.6],
        D.Beta(2, 4): [0.3, 0.6],
        D.TruncatedNormal(0.4, 0.3): [0.3, 0.6],
        D.SquareCdf(): [0.25, 0.75],
    }
    h = 1e-5
    for model, xs in probes.items():
        for x in xs:
            fd1 = (model.pdf(x + h) - model.pdf(x - h)) / (2 * h)
            assert model.pdf_derivative(x, 1) == pytest.approx(fd1, rel=1e-5, abs=1e-5)
            fd2 = (model.pdf(x + h) - 2 * model.pdf(x) + model.pdf(x - h)) / h ** 2
            assert model.pdf_derivative(x, 2) == pytest.approx(fd2, rel=1e-3, abs=1e-3)


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


@pytest.mark.parametrize("shape", [(2, 200), (100, 100), (2, 2)], ids=str)
def test_beta_normalizer_against_mpmath(shape):
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        want = mp.log(mp.beta(*shape))
    got = D.Beta(*shape)._lognorm
    assert float(abs(got - want)) <= np.spacing(abs(float(want))), (got, float(want))


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
def test_unit_shape_closed_form_keeps_the_criterion_05_counts(shape, counts):
    # counts recorded with the betaincinv quantile that the closed forms replaced
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
    for u in (0.3, np.float64(0.3), np.array(0.3)):
        x = model.quantile(u)
        assert isinstance(x, float) and x == special.betaincinv(a, b, 0.3)
    assert model.quantile(np.array([0.3]))[0] == pytest.approx(model.quantile(0.3), rel=1e-14)


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
