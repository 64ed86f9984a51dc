"""Acceptance gate: twelve end-to-end checks, one verdict line each.

Run with ``pytest -v tests/test_acceptance.py``; each test name is one
criterion and the PASSED/FAILED column is its verdict line.

Checks 3 and 10 grade p_n = P(gamma = 2) at large n.  With s and t the
sample minimum and maximum, gamma = 1 exactly when a point lies in
[t/2, (1+s)/2], so

    p_n = n(n-1) * integral over t > max(2s, (1+s)/2) of
          f(s) f(t) (F(t) - F(s) - F((1+s)/2) + F(t/2))^(n-2) ds dt.

The arc-sine and beta(2,2) references at n = 1000 come from integrating
this with mpmath at 20 and at 30 digits, sharing no code with ``cccd``, in
the probability coordinates a = F(s), b = 1 - F(t), on panels split
geometrically towards (a, b) = (0, 0) where the mass sits; the two
precisions agree on every digit quoted below, and the same integration
gives p_5 = 0.442708... for the uniform law.  Expanding the integral near
(s, t) = (0, 1) gives the leading terms 1 - p_n ~ pi/n for arc-sine and
p_n ~ (1024/9)/n^2 for beta(2,2), so the beta(2,2) rate exponent is fitted
from n = 1000 up, where the n^-2 term dominates.
"""

import math
import time
from fractions import Fraction

import numpy as np

from cccd import digraph, multianchor, simulate
from cccd.asymptotics import asymptotic_profile, empirical_rate_exponent
from cccd.cli import main
from cccd.densities import (
    AbsSine,
    ArcSine,
    Beta,
    GapUniform,
    Linear,
    PieceQuadratic,
    QPower,
    ShrunkUniform,
    SquareCdf,
    TwoStep,
    Uniform,
)
from cccd.exact import p_closed_form, p_uniform_fraction, probability
from test_digraph import upper_bound_counts

UNIFORM = Uniform()


def mc_quadrature(model, n):
    return probability(model, n, method="quadrature").value


def test_criterion_01_uniform_exact_law_monte_carlo():
    start = time.perf_counter()
    plan = simulate.SimulationPlan(fx=UNIFORM, fy=(0.0, 1.0), n=5,
                                   reps=200_000, seed=20260815)
    counts = simulate.run(plan)
    elapsed = time.perf_counter() - start
    phat = counts.get(2, 0) / plan.reps
    print(f"[criterion 1] phat={phat:.6f} target=0.442708 band=0.0045 time={elapsed:.1f}s")
    assert abs(phat - 0.442708) <= 0.0045
    assert elapsed < 10.0


def test_criterion_02_closed_form_vs_quadrature():
    start = time.perf_counter()
    worst = 0.0
    for model in (ShrunkUniform(0.1), GapUniform(0.1), TwoStep(0.5)):
        for n in (2, 5, 10, 25):
            gap = abs(p_closed_form(model, n) - mc_quadrature(model, n))
            worst = max(worst, gap)
    elapsed = time.perf_counter() - start
    print(f"[criterion 2] worst |closed - quadrature| = {worst:.3e} time={elapsed:.1f}s")
    assert worst <= 1e-6
    assert elapsed < 30.0


def test_criterion_03_large_n_reference_values():
    start = time.perf_counter()
    linear = mc_quadrature(Linear(1.0), 1000)
    abs_sine = mc_quadrature(AbsSine(), 1000)
    arc_sine = mc_quadrature(ArcSine(), 1000)
    beta22 = mc_quadrature(Beta(2, 2), 1000)
    elapsed = time.perf_counter() - start
    print(f"[criterion 3] linear={linear:.6f} abs_sine={abs_sine:.6f} "
          f"arc_sine={arc_sine:.6f} beta22={beta22:.3e} time={elapsed:.1f}s")
    assert elapsed < 60.0
    assert abs(linear - 0.3753) <= 5e-4
    assert abs(abs_sine - 0.6400) <= 5e-4
    # Independent mpmath values (module docstring); the tolerances
    # are ten times the default quadrature tolerance at these magnitudes.
    assert abs(arc_sine - 0.996878658764) <= 1e-7
    assert abs(beta22 - 1.06135833414e-4) <= 1e-11


def test_criterion_04_asymptotic_limits_exact():
    cases = [
        (UNIFORM, 4.0 / 9.0),
        (Linear(1.0), 3.0 / 8.0),
        (AbsSine(), 16.0 / 25.0),
        (PieceQuadratic(0.0), 16.0 / 27.0),
        (QPower(1), 8.0 / 15.0),
        (Linear(2.0), 0.0),
        (Linear(-2.0), 0.0),
    ]
    worst = max(abs(asymptotic_profile(model).p_limit - want) for model, want in cases)
    print(f"[criterion 4] worst |profile - closed formula| = {worst:.2e}")
    assert worst <= 1e-12


def test_criterion_05_symmetry_beta():
    quad_gap = abs(mc_quadrature(Beta(4, 1), 50) - mc_quadrature(Beta(1, 4), 50))
    reps = 100_000
    results = {}
    for nu in ((4, 1), (1, 4)):
        plan = simulate.SimulationPlan(fx=Beta(*nu), fy=(0.0, 1.0), n=50,
                                       reps=reps, seed=14)
        counts = simulate.run(plan)
        phat = counts.get(2, 0) / reps
        results[nu] = (phat, 4.0 * math.sqrt(max(phat * (1 - phat), 1e-12) / reps))
    (p1, b1), (p2, b2) = results[(4, 1)], results[(1, 4)]
    print(f"[criterion 5] mc {p1:.5f}+-{b1:.5f} vs {p2:.5f}+-{b2:.5f}; "
          f"quadrature gap {quad_gap:.2e}")
    assert abs(p1 - p2) <= b1 + b2
    assert quad_gap <= 1e-8


def test_criterion_06_and_07_oracle_equivalence_and_upper_bound():
    """Criterion 6 (the simulation kernel equals exhaustive search on 10^4
    instances) and criterion 7 (both published upper bounds hold on every
    generated instance) share one instance stream; criterion 7 is re-asserted
    separately below.  Instances are graded in one batch per (n, m)."""
    start = time.perf_counter()
    rng = np.random.default_rng(6)
    models = [UNIFORM, Linear(1.0), TwoStep(0.5), Beta(2, 2), SquareCdf(),
              GapUniform(0.125), AbsSine()]
    sizes, draws = [], [[] for _ in models]
    for i in range(10_000):
        n = int(rng.integers(1, 13))
        m = int(rng.integers(1, 5))
        draws[i % len(models)] += [rng.random(n), rng.random(m)]
        sizes.append((n, m))
    # one quantile call per model, split back into each instance's points and anchors
    values = [iter(np.split(model.quantile(np.concatenate(us)), np.cumsum([u.size for u in us[:-1]])))
              for model, us in zip(models, draws)]
    groups = {}
    for i, (n, m) in enumerate(sizes):
        xs, ys = next(values[i % len(models)]), next(values[i % len(models)])
        groups.setdefault((n, m), []).append((np.sort(xs), np.sort(ys)))
    mismatches = bound_violations = 0
    for (n, m), group in groups.items():
        xs, ys = (np.array(part) for part in zip(*group))
        # leave out rows with a repeated anchor or a point on an anchor
        tied = (ys[:, 1:] == ys[:, :-1]).any(axis=1) | (xs[:, :, None] == ys[:, None, :]).any(axis=(1, 2))
        xs, ys = xs[~tied], ys[~tied]
        kernel = digraph._cell_gammas(xs, ys)[0].sum(axis=1)
        mismatches += int(np.count_nonzero(kernel != digraph.domination_number_oracle(xs, ys)))
        bound = upper_bound_counts(xs, ys)[2]
        bound_violations += int(np.count_nonzero((kernel > min(n, 2 * m)) | (kernel > bound)))
    elapsed = time.perf_counter() - start
    print(f"[criterion 6] mismatches={mismatches}/10000 time={elapsed:.1f}s")
    print(f"[criterion 7] bound violations={bound_violations}/10000")
    test_criterion_06_and_07_oracle_equivalence_and_upper_bound.violations = bound_violations
    assert mismatches == 0
    assert elapsed < 60.0


def test_criterion_07_upper_bound_holds_everywhere():
    violations = getattr(
        test_criterion_06_and_07_oracle_equivalence_and_upper_bound, "violations", None)
    if violations is None:
        test_criterion_06_and_07_oracle_equivalence_and_upper_bound()
        violations = test_criterion_06_and_07_oracle_equivalence_and_upper_bound.violations
    print(f"[criterion 7] gamma <= min(n, 2m) and gamma <= 2*k1 + k2: "
          f"{violations} violations")
    assert violations == 0


def test_criterion_08_multi_anchor_exact():
    uniform_p = [p_uniform_fraction(t) for t in range(1, 3)]
    exact_value = multianchor.expected_gamma_hu(2, 2, uniform_p)
    assert exact_value == Fraction(14, 9)

    rng = np.random.default_rng(88)
    reps = 1_000_000
    ys = np.sort(rng.random((reps, 2)), axis=1)
    xs = np.sort(rng.random((reps, 2)), axis=1)
    gammas = digraph._cell_gammas(xs, ys)[0].sum(axis=1)
    mean = float(gammas.mean())
    spread = float(gammas.std(ddof=1)) / math.sqrt(reps)
    z = (mean - 14.0 / 9.0) / spread

    worst = 0.0
    for m in range(1, 12):
        for n in range(1, 13 - m):
            anchors = [(j + 1.0) / (m + 1.0) for j in range(m)]
            cond = multianchor.conditional_on_anchors(UNIFORM, anchors)
            total = float(np.sum(multianchor.pmf_conditional_table(cond, n)))
            worst = max(worst, abs(total - 1.0))
    print(f"[criterion 8] E exact={exact_value} mc mean={mean:.5f} (z={z:.2f}); "
          f"worst pmf defect={worst:.2e}")
    assert abs(z) <= 4.0
    assert worst <= 1e-9


def test_criterion_09_asymptotic_multi_law():
    start = time.perf_counter()
    plan = simulate.SimulationPlan(fx=UNIFORM, fy=(0.25, 0.5, 0.75), n=5000,
                                   reps=20_000, seed=71)
    counts = simulate.run(plan)
    law = multianchor.asymptotic_law_fixed_m([4.0 / 9.0, 4.0 / 9.0], 3)
    support = set(counts) | set(law)
    tv = 0.5 * sum(abs(counts.get(k, 0) / plan.reps - law.get(k, 0.0)) for k in support)
    elapsed = time.perf_counter() - start
    print(f"[criterion 9] total variation vs 4+Binomial(2, 4/9) = {tv:.4f} "
          f"time={elapsed:.1f}s")
    assert tv <= 0.03


def test_criterion_10_rate_exponents():
    linear_slope = empirical_rate_exponent(Linear(1.0), n_values=(50, 100, 200, 400),
                                           limit=3.0 / 8.0)
    # p_n * n^2 for beta(2,2) climbs 45.9, 66.2, 83.8, 96.5 over n = 50..400
    # towards 1024/9 ~ 113.8; from n = 1000 up the n^-2 term dominates.
    beta_slope = empirical_rate_exponent(Beta(2, 2), n_values=(1000, 2000, 4000, 8000),
                                         limit=0.0)
    print(f"[criterion 10] linear slope={linear_slope:.4f} (want 1.0+-0.15), "
          f"beta slope={beta_slope:.4f} (want 2.0+-0.3)")
    assert abs(linear_slope - 1.0) <= 0.15
    assert abs(beta_slope - 2.0) <= 0.3


def test_criterion_11_transformed_digraph_law():
    model = SquareCdf()
    rng = np.random.default_rng(11)
    reps, n = 100_000, 10
    xs = model.quantile(rng.random((reps, n)))
    transformed = np.sort(model.cdf(xs), axis=1)
    gammas = digraph._cell_gammas(transformed, np.array([0.0, 1.0]))[0].sum(axis=1)
    counts = {int(k): int(c) for k, c in zip(*np.unique(gammas, return_counts=True))}
    p10 = float(p_uniform_fraction(10))
    verdict = simulate.compare(counts, {1: 1.0 - p10, 2: p10})
    worst = max(abs(atom[3]) for atom in verdict.per_atom)
    print(f"[criterion 11] transformed law verdict={verdict.verdict} max|z|={worst:.2f}")
    assert verdict.passed


def test_criterion_12_cli_determinism(tmp_path, monkeypatch):
    path = tmp_path / "run.csv"
    argv = ["simulate", "--n", "5", "--m", "2", "--reps", "20000",
            "--seed", "3", "--format", "csv", "--out", str(path)]
    texts = {}
    for threads in ("1", "8"):
        monkeypatch.setenv("CCCD_THREADS", threads)
        assert main(argv) == 0
        first = path.read_bytes()
        assert main(argv) == 0
        assert path.read_bytes() == first
        texts[threads] = first.decode()
    normalized = texts["8"].replace('"threads": 8', '"threads": 1')
    print("[criterion 12] reruns byte-identical at 1 and 8 workers; "
          "data identical across worker counts")
    assert normalized == texts["1"]
