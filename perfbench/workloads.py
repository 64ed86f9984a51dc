"""The benchmark's workloads: their models, their fixed op lists and the checks.

Each op is one timed call sequence into the public cccd API and a check on
what it returned.  A check raises :class:`CheckFailed`; the runner counts
that, or any exception from the op itself, as a failed op.  Every random
draw derives from the workload seed through :func:`substream_seed`.
"""

from __future__ import annotations

import contextlib
import io
import json
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

import cccd.cli
from cccd import asymptotics, exact, multianchor, simulate
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
    ThreeStep,
    TruncatedNormal,
    TwoStep,
    Uniform,
)

# Anchor quadrature with nodes=24 does not normalize when the anchor density
# jumps or diverges: with TwoStep(0.5) anchors at (n, m) = (4, 2) the pmf sums
# to 1.0076.  The op stays in `multi` with the 1e-9 mass check and fails; it
# is listed here so that its failure is reported but does not mark the run as
# incorrect, and a fix shows up as one failed op fewer.
KNOWN_DEFECTS = {
    "multi.hu_two_step_4x2": "anchor quadrature (nodes=24) misses mass for jumping anchor densities",
}

# compare() threshold for Monte Carlo cross-checks.  Each run grades a few
# binomial atoms and the benchmark is run thousands of times, so 5 sigma keeps
# a false alarm below one in a thousand runs while a wrong law still fails.
Z_THRESHOLD = 5.0
TV_BOUND = 0.03
MASS_TOL = 1e-9


class CheckFailed(Exception):
    """An op returned a result that its check rejects."""


def expect(ok, message):
    if not ok:
        raise CheckFailed(message)


@dataclass(frozen=True)
class Op:
    """A named call into cccd plus the check on its result.

    ``per_pass`` ops make up one pass and are timed into ``wall_s``; the
    others run once per benchmark run, outside ``wall_s``.
    """

    name: str
    run: object
    check: object
    per_pass: bool = True


def substream_seed(seed, *words):
    """A 64-bit seed derived from the workload seed and a fixed label."""
    return int(np.random.SeedSequence([int(seed), *words]).generate_state(1, np.uint64)[0])


def capture_cli(argv):
    """Run ``cccd.cli.main`` in-process; returns (exit code, stdout text)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cccd.cli.main(argv)
    return code, buf.getvalue()


def mass_check(table, n, m):
    table = np.asarray(table, dtype=float)
    expect(table.size == 2 * m + 1, f"pmf has {table.size} atoms, want {2 * m + 1}")
    expect(bool(np.all(table >= -1e-12)), f"negative mass {table.min()!r}")
    expect(abs(table[0]) <= 1e-12, f"mass {table[0]!r} at gamma = 0")
    expect(bool(np.all(np.abs(table[min(n, 2 * m) + 1:]) <= 1e-12)), "mass above min(n, 2m)")
    total = float(np.sum(table))
    expect(abs(total - 1.0) <= MASS_TOL, f"pmf sums to {total!r}")


def uniform_mean(n, m):
    """Exact E[gamma] with uniform points and anchors, as a float."""
    return float(multianchor.expected_gamma_hu(n, m, [exact.p_uniform_fraction(t)
                                                      for t in range(1, n + 1)]))


# ---------------------------------------------------------------- sim_large

def _sim_models(seed):
    uniform, beta = Uniform(), Beta(2, 2)
    plans = {
        "uniform_1000x20": simulate.SimulationPlan(
            fx=uniform, fy=uniform, n=1000, m=20, reps=4096, seed=substream_seed(seed, 1)),
        "fixed_5000x3": simulate.SimulationPlan(
            fx=uniform, fy=(0.25, 0.5, 0.75), n=5000, reps=8192, seed=substream_seed(seed, 2)),
        "beta_200x5": simulate.SimulationPlan(
            fx=beta, fy=beta, n=200, m=5, reps=4096, seed=substream_seed(seed, 3)),
    }
    return {"plans": plans}


def _counts_check(plan):
    def check(counts):
        expect(sum(counts.values()) == plan.reps, f"counts sum to {sum(counts.values())}")
        expect(min(counts) >= 1 and max(counts) <= plan.gamma_cap,
               f"gamma outside [1, {plan.gamma_cap}]: {sorted(counts)}")
    return check


def _fixed_law_check(plan):
    base = _counts_check(plan)
    law = multianchor.asymptotic_law_fixed_m([4.0 / 9.0] * (plan.m - 1), plan.m)

    def check(counts):
        base(counts)
        tv = 0.5 * sum(abs(counts.get(k, 0) / plan.reps - law.get(k, 0.0))
                       for k in set(counts) | set(law))
        expect(tv <= TV_BOUND, f"total variation {tv:.4f} to the fixed-m limit law")
    return check


def _par2(plan, workers):
    def run():
        times = []
        counts = []
        for parallelism in (1, workers):
            start = time.perf_counter()
            counts.append(simulate.run(simulate.SimulationPlan(
                fx=plan.fx, fy=plan.fy, n=plan.n, m=plan.m, reps=plan.reps,
                seed=plan.seed, parallelism=parallelism)))
            times.append(time.perf_counter() - start)
        return {"counts": counts, "speedup": times[0] / times[1]}

    def check(result):
        one, two = result["counts"]
        expect(one == two, "counts differ between 1 and 2 workers")
        _counts_check(plan)(one)
    return Op("par2", run, check, per_pass=False)


def _sim_ops(models, seed, workers):
    plans = models["plans"]
    ops = []
    for name, plan in plans.items():
        check = _fixed_law_check(plan) if name == "fixed_5000x3" else _counts_check(plan)
        ops.append(Op(name, lambda plan=plan: simulate.run(plan), check))
    ops.append(_par2(plans["uniform_1000x20"], workers))
    return ops


# ---------------------------------------------------------------- laws

QUAD_N = {"quad_n10": 10, "quad_n1e3": 1000, "quad_n1e6": 10**6}
QUAD_TOLS = (1e-8, 1e-10)
STEP_N = (10, 50, 200)


def _laws_models(seed):
    catalog = [Linear(1.0), AbsSine(), ArcSine(), Beta(2, 2), Beta(4, 1),
               TruncatedNormal(0.3, 0.5), QPower(2), PieceQuadratic(2.0 / 3.0), SquareCdf()]
    steps = [ShrunkUniform(0.1), GapUniform(0.1), GapUniform(0.45), TwoStep(0.5), ThreeStep(0.5)]
    plans = {
        "mc_uniform_5": simulate.SimulationPlan(
            fx=Uniform(), fy=(0.0, 1.0), n=5, reps=200_000, seed=substream_seed(seed, 11)),
        "mc_two_step_8": simulate.SimulationPlan(
            fx=TwoStep(0.5), fy=(0.0, 1.0), n=8, reps=100_000, seed=substream_seed(seed, 12)),
        "mc_beta41_50": simulate.SimulationPlan(
            fx=Beta(4, 1), fy=(0.0, 1.0), n=50, reps=100_000, seed=substream_seed(seed, 13)),
    }
    return {"catalog": catalog, "steps": steps, "square": SquareCdf(), "uniform": Uniform(),
            "plans": plans}


def _limit(model):
    if model.unbounded:
        return asymptotics.limit_unbounded(model)
    return asymptotics.asymptotic_profile(model).p_limit


def _quad_op(name, n, catalog):
    def run():
        return [[exact.probability(model, n, method="quadrature",
                                   config=exact.QuadratureConfig(rel_tol=tol))
                 for tol in QUAD_TOLS] for model in catalog]

    def check(reports):
        for model, (loose, tight) in zip(catalog, reports):
            for r in (loose, tight):
                expect(r.method == "quadrature" and 0.0 <= r.value <= 1.0,
                       f"{model!r}: p_{n} = {r.value!r} by {r.method}")
            expect(abs(loose.value - tight.value) <= 1e-7 * abs(tight.value) + 1e-13,
                   f"{model!r}: p_{n} moves from {loose.value!r} to {tight.value!r} "
                   "between rel_tol 1e-8 and 1e-10")
            if n == 10**6:
                limit = _limit(model)
                expect(abs(tight.value - limit) <= 1e-4,
                       f"{model!r}: p_1e6 = {tight.value!r} but the limit is {limit!r}")
    return Op(name, run, check)


def _step_routes(steps):
    def run():
        out = []
        for model in steps:
            for n in STEP_N:
                rational = exact.probability(model, n)
                closed = (exact.p_closed_form(model, n)
                          if not isinstance(model, ThreeStep) else None)
                quad = (exact.probability(model, n, method="quadrature").value
                        if n == STEP_N[0] else None)
                out.append((model, n, rational, closed, quad))
        return out

    def check(rows):
        for model, n, rational, closed, quad in rows:
            expect(rational.method == "exact-rational" and isinstance(rational.exact, Fraction),
                   f"{model!r} n={n}: routed to {rational.method}")
            expect(float(rational.exact) == rational.value, f"{model!r} n={n}: float mismatch")
            if closed is not None:
                expect(abs(closed - rational.value) <= 1e-12,
                       f"{model!r} n={n}: closed form {closed!r} vs rational {rational.value!r}")
            if quad is not None:
                expect(abs(quad - rational.value) <= 1e-8,
                       f"{model!r} n={n}: quadrature {quad!r} vs rational {rational.value!r}")
    return Op("step_routes", run, check)


def _multinomial(square):
    def run():
        return (exact.probability(square, 60),
                exact.probability(square, 60, method="quadrature",
                                  config=exact.QuadratureConfig(rel_tol=1e-10)))

    def check(result):
        multinomial, quad = result
        expect(multinomial.method == "multinomial", f"routed to {multinomial.method}")
        expect(abs(multinomial.value - quad.value) <= 1e-9,
               f"multinomial {multinomial.value!r} vs quadrature {quad.value!r}")
    return Op("multinomial_60", run, check)


def _limits(catalog, uniform, steps):
    bounded = [m for m in catalog if not m.unbounded] + [uniform] + steps
    arcsine = next(m for m in catalog if m.unbounded)
    linear = next(m for m in catalog if m.family == "linear")

    def run():
        profiles = [asymptotics.asymptotic_profile(model) for model in bounded]
        return (profiles, asymptotics.limit_unbounded(arcsine),
                asymptotics.empirical_rate_exponent(linear, limit=3.0 / 8.0))

    def check(result):
        profiles, arcsine_limit, slope = result
        for model, profile in zip(bounded, profiles):
            try:
                formula = asymptotics.limit_family_formula(model)
            except ValueError:
                continue
            expect(abs(profile.p_limit - formula) <= 1e-9,
                   f"{model!r}: profile limit {profile.p_limit!r} vs formula {formula!r}")
        expect(abs(arcsine_limit - 1.0) <= 1e-6, f"arc-sine limit {arcsine_limit!r}")
        expect(abs(slope - 1.0) <= 0.15, f"linear(1) rate exponent {slope!r}")
    return Op("limits", run, check)


def _mc_op(name, plan):
    def run():
        p = exact.probability(plan.fx, plan.n).value
        counts = simulate.run(plan)
        return counts, simulate.compare(counts, {1: 1.0 - p, 2: p}, threshold=Z_THRESHOLD)

    def check(result):
        counts, verdict = result
        expect(sum(counts.values()) == plan.reps and set(counts) <= {1, 2},
               f"counts {counts}")
        expect(verdict.passed, f"Monte Carlo disagrees with p_{plan.n}: {verdict.per_atom}")
    return Op(name, run, check)


def _table_paper():
    def check(result):
        code, text = result
        failing = [json.loads(line)["row"]["label"] for line in text.splitlines()
                   if line.startswith('{"row"') and not json.loads(line)["row"]["pass"]]
        expect(code == 3 and failing == ["beta(2,2) p_1000"],
               f"table --paper exited {code} with failing rows {failing}")
    return Op("table_paper", lambda: capture_cli(["table", "--paper"]), check)


def _laws_ops(models, seed, workers):
    ops = [_quad_op(name, n, models["catalog"]) for name, n in QUAD_N.items()]
    ops += [_step_routes(models["steps"]), _multinomial(models["square"]),
            _limits(models["catalog"], models["uniform"], models["steps"])]
    ops += [_mc_op(name, plan) for name, plan in models["plans"].items()]
    ops.append(_table_paper())
    return ops


# ---------------------------------------------------------------- multi

EXPECTED_GRID = [(n, m) for n in range(1, 9) for m in range(1, 5)]
MC_ANCHOR_REPS = 256


def _multi_models(seed):
    return {"uniform": Uniform(), "beta": Beta(2, 2), "linear": Linear(1.0),
            "two_step": TwoStep(0.5)}


def _pmf_op(name, fx, fy, n, m, mean=None, **kwargs):
    def check(table):
        mass_check(table, n, m)
        if mean is not None:
            got = float(np.dot(np.arange(len(table)), table))
            expect(abs(got - mean) <= 1e-9, f"mean {got!r}, exact {mean!r}")
    return Op(name, lambda: multianchor.pmf_random_anchors_table(fx, fy, n, m, **kwargs), check)


def _expected(uniform):
    def run():
        return [(n, m, multianchor.expected_gamma(uniform, uniform, n, m),
                 multianchor.expected_gamma_hu(n, m, [exact.p_uniform_fraction(t)
                                                      for t in range(1, n + 1)]))
                for n, m in EXPECTED_GRID]

    def check(rows):
        for n, m, quad, hu in rows:
            expect(abs(quad - float(hu)) <= 1e-9, f"E[gamma] at ({n}, {m}): {quad!r} vs {hu}")
    return Op("expected_gamma", run, check)


def _conditional_grid(uniform):
    grid = [(n, m) for m in range(1, 12) for n in range(1, 13 - m)]

    def run():
        return [(n, m, multianchor.pmf_conditional_table(
            multianchor.conditional_on_anchors(uniform, [(j + 1.0) / (m + 1.0) for j in range(m)]),
            n)) for n, m in grid]

    def check(rows):
        for n, m, table in rows:
            total = float(np.sum(table))
            expect(abs(total - 1.0) <= MASS_TOL, f"conditional pmf at ({n}, {m}) sums to {total!r}")
    return Op("conditional_grid", run, check)


def _selftest():
    def check(result):
        code, text = result
        failing = [line for line in text.splitlines() if line.startswith("FAIL")]
        expect(code == 0 and not failing, f"selftest exited {code}: {failing}")
    return Op("selftest", lambda: capture_cli(["selftest"]), check)


def _multi_ops(models, seed, workers):
    u, beta = models["uniform"], models["beta"]
    lin, step = models["linear"], models["two_step"]
    return [
        _pmf_op("uniform_8x2", u, u, 8, 2, mean=uniform_mean(8, 2)),
        _pmf_op("uniform_5x3", u, u, 5, 3, mean=uniform_mean(5, 3)),
        _pmf_op("beta_anchors_5x3", u, beta, 5, 3),
        _pmf_op("hu_linear_6x2", lin, lin, 6, 2, hu_family=True),
        _pmf_op("hu_two_step_4x2", step, step, 4, 2, hu_family=True),
        _pmf_op("mc_anchors_12x8", u, u, 12, 8, mc_reps=MC_ANCHOR_REPS,
                seed=substream_seed(seed, 21)),
        _expected(u),
        _conditional_grid(u),
        _selftest(),
    ]


WORKLOADS = {
    "sim_large": (_sim_models, _sim_ops),
    "laws": (_laws_models, _laws_ops),
    "multi": (_multi_models, _multi_ops),
}


def build_models(name, seed):
    return WORKLOADS[name][0](seed)


def build_ops(name, models, seed, workers):
    return WORKLOADS[name][1](models, seed, workers)


def plan_reps(models):
    """{op name: reps} for the ops that are one simulate.run of a plan."""
    return {name: plan.reps for name, plan in models.get("plans", {}).items()}
