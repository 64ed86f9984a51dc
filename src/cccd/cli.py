"""Command-line front end.

Every subcommand echoes its fully resolved configuration (defaults
included) as the first line of output, then emits result rows as JSON
lines or CSV.  Given the same flags and seed, reruns are byte identical.

Exit codes: 0 success, 1 computation failure, 2 bad arguments,
3 reference-table mismatch.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, replace
from fractions import Fraction

import numpy as np

from . import asymptotics, digraph, exact, multianchor, simulate
from .densities import (
    AbsSine,
    ArcSine,
    Beta,
    GapUniform,
    GeneralLinear,
    Linear,
    PieceQuadratic,
    QPower,
    ShrunkUniform,
    SquareCdf,
    ThreeStep,
    TruncatedNormal,
    TwoStep,
    Uniform,
    model_from_spec,
    model_to_spec,
)

DEFAULT_DENSITY = '{"family": "uniform"}'
MULTI_SAMPLED_REPS = 20000  # anchor draws for `multi` when m > 3 rules out anchor quadrature


@dataclass(frozen=True)
class CommandRequest:
    """Resolved invocation; the dict form is the output header echo."""

    subcommand: str
    density: dict | None = None
    n: int | None = None
    m: int | None = None
    reps: int | None = None
    seed: int = 0
    rel_tol: float | None = None
    format: str = "json"
    out: str | None = None
    threads: int = 1
    paper: bool = False
    curves: bool = False

    def config(self) -> dict:
        return asdict(self)


def _build_parser():
    parser = argparse.ArgumentParser(prog="cccd", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, density=True):
        if density:
            p.add_argument("--density", default=DEFAULT_DENSITY,
                           help="density spec JSON, e.g. '{\"family\": \"two_step\", \"params\": {\"delta\": 0.5}}'")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("simulate", help="seeded Monte Carlo over the domination number")
    common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, default=0,
                   help="anchors drawn from the density; 0 means fixed anchors at the support endpoints")
    p.add_argument("--reps", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("exact", help="P(gamma = 2) by the best available exact route")
    common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--rel-tol", type=float, default=1e-8)

    p = sub.add_parser("quadrature", help="P(gamma = 2) by adaptive quadrature")
    common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--rel-tol", type=float, default=1e-8)

    p = sub.add_parser("asymptotic", help="large-sample limit summary for a density")
    common(p)

    p = sub.add_parser(
        "multi", help="domination-number pmf with anchors drawn at random, and the law it follows",
        description="Domination-number pmf with anchors drawn at random. The summary names the "
                    "law: 'iid' for uniform points, and 'cell-copies' for any other density, which "
                    "places an affine copy of the density in every middle cell and gives each cell "
                    "the uniform mass of its gap.")
    common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--reps", type=int, default=None,
                   help="sample this many anchor sets instead of the exact route; without it, "
                        f"non-uniform densities with m > 3 take {MULTI_SAMPLED_REPS}")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("table", help="reproduce the cited reference values with pass/fail grades")
    common(p, density=False)
    p.add_argument("--paper", action="store_true",
                   help="exit 3 if any reference row fails")
    p.add_argument("--curves", action="store_true",
                   help="write density and law curve CSV files under --out instead")

    sub.add_parser("selftest", help="fast invariant checks; nonzero exit on any failure")
    return parser


def _resolve(args) -> CommandRequest:
    threads = max(1, int(os.environ.get("CCCD_THREADS", "1")))
    fields = dict(subcommand=args.subcommand, threads=threads)
    if hasattr(args, "density"):
        model = model_from_spec(args.density)
        fields["density"] = model_to_spec(model)
    for name in ("n", "m", "reps", "seed", "rel_tol", "out", "paper", "curves"):
        if hasattr(args, name):
            fields[name] = getattr(args, name)
    if hasattr(args, "format"):
        fields["format"] = args.format
    req = CommandRequest(**fields)
    if req.curves and not req.out:
        raise ValueError("--curves needs --out pointing at a directory")
    if req.n is not None and req.n < 1:
        raise ValueError("--n must be at least 1")
    if req.subcommand == "quadrature" or (
            req.subcommand == "exact" and exact._auto_route(model.to_unit(), req.n) == "quadrature"):
        if req.n > exact.quadrature_max_n(model):
            raise ValueError(f"--n must be at most {exact.quadrature_max_n(model)}")
    least_m = 1 if req.subcommand == "multi" else 0  # simulate reads 0 as endpoint anchors
    if req.m is not None and req.m < least_m:
        raise ValueError(f"--m must be at least {least_m}")
    if req.reps is not None and req.reps < 1:
        raise ValueError("--reps must be at least 1")
    if req.rel_tol is not None and not 0 < req.rel_tol < np.inf:  # NaN fails this test too
        raise ValueError("--rel-tol must be finite and positive")
    if not 0 <= req.seed < 2**64:
        raise ValueError("--seed must fit in 64 bits")
    return req


def _model(req: CommandRequest):
    return model_from_spec(req.density)


def _cell(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, dict):
        return json.dumps(value, sort_keys=True)
    return str(value)


def _emit(req: CommandRequest, columns, rows, summary=None):
    if req.format == "json":
        lines = [json.dumps({"config": req.config()}, sort_keys=True)]
        lines += [json.dumps({"row": row}, sort_keys=True) for row in rows]
        if summary is not None:
            lines.append(json.dumps({"summary": summary}, sort_keys=True))
        text = "\n".join(lines) + "\n"
    else:
        buf = io.StringIO()
        buf.write("# " + json.dumps(req.config(), sort_keys=True) + "\n")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_cell(row[c]) for c in columns])
        if summary is not None:
            buf.write("# " + json.dumps(summary, sort_keys=True) + "\n")
        text = buf.getvalue()
    if req.out:
        with open(req.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_simulate(req: CommandRequest) -> int:
    model = _model(req)
    if req.m and req.m > 0:
        plan = simulate.SimulationPlan(fx=model, fy=model, n=req.n, m=req.m,
                                       reps=req.reps, seed=req.seed, parallelism=req.threads)
        predicted = None
        if model.family == "uniform":  # the exact uniform-anchor law, within its size cap
            if req.n + req.m <= multianchor.MAX_CELL_TOTAL:
                table = multianchor.pmf_random_anchors_table(model, model, req.n, req.m)
                predicted = {k: float(p) for k, p in enumerate(table) if p > 0.0}
            else:
                print(f"note: no predicted law: n + m = {req.n + req.m} is past the cell "
                      f"program's cap of {multianchor.MAX_CELL_TOTAL}", file=sys.stderr)
    else:
        anchors = (model.support.lo, model.support.hi)
        plan = simulate.SimulationPlan(fx=model, fy=anchors, n=req.n,
                                       reps=req.reps, seed=req.seed, parallelism=req.threads)
        p = exact._auto_value(model, req.n)
        predicted = {1: 1.0 - p, 2: p}
    counts = simulate.run(plan)
    columns = ["k", "count", "fraction", "predicted", "z"]
    if predicted is None:
        rows = [{"k": k, "count": c, "fraction": c / plan.reps, "predicted": None, "z": None}
                for k, c in sorted(counts.items())]
        summary = {"verdict": None, "statistic": None, "threshold": None}
    else:
        verdict = simulate.compare(counts, predicted)
        rows = [{"k": k, "count": counts.get(k, 0), "fraction": phat, "predicted": pk, "z": z}
                for k, phat, pk, z in verdict.per_atom]
        summary = {"verdict": verdict.verdict, "statistic": verdict.statistic,
                   "threshold": verdict.threshold}
    _emit(req, columns, rows, summary)
    return 0


def _fraction_text(value):
    """str(value), or None with a stderr note where the interpreter refuses to convert an
    integer of that many digits to a string (4,300 by default)."""
    try:
        return str(value)
    except ValueError:
        top = max(abs(value.numerator), value.denominator)
        digits = int(top.bit_length() * math.log10(2))
        digits += top >= 10 ** digits  # the estimate is the digit count or one short
        print(f"note: exact_fraction is null: it has a {digits}-digit integer, past the "
              f"interpreter's limit for integer strings", file=sys.stderr)
        return None


def _cmd_exact(req: CommandRequest) -> int:
    cfg = exact.QuadratureConfig(rel_tol=req.rel_tol)
    report = exact.probability(_model(req), req.n, config=cfg)
    row = {
        "n": report.n,
        "p": report.value,
        "method": report.method,
        "exact_fraction": _fraction_text(report.exact) if report.exact is not None else None,
        "error_estimate": report.error_estimate,
    }
    _emit(req, list(row), [row])
    return 0


def _cmd_quadrature(req: CommandRequest) -> int:
    cfg = exact.QuadratureConfig(rel_tol=req.rel_tol)
    report = exact.probability(_model(req), req.n, method="quadrature", config=cfg)
    row = {
        "n": report.n,
        "p": report.value,
        "rel_tol": req.rel_tol,
        "error_estimate": report.error_estimate,
        "panels": report.panels,
    }
    _emit(req, list(row), [row])
    return 0


def _cmd_asymptotic(req: CommandRequest) -> int:
    row = asymptotics.describe_limit(_model(req))
    _emit(req, list(row), [row])
    return 0


def _cmd_multi(req: CommandRequest) -> int:
    model = _model(req)
    hu = model.family != "uniform"
    if req.reps is None and hu and req.m > multianchor.MAX_QUADRATURE_M:
        req = replace(req, reps=MULTI_SAMPLED_REPS)
    table = multianchor.pmf_random_anchors_table(model, model, req.n, req.m,
                                                 mc_reps=req.reps, seed=req.seed, hu_family=hu)
    rows = [{"k": k, "probability": float(p)} for k, p in enumerate(table) if p > 0.0]
    expected = sum(row["k"] * row["probability"] for row in rows)
    _emit(req, ["k", "probability"], rows,
          {"expected_gamma": expected, "law": "cell-copies" if hu else "iid"})
    return 0


def _row(label, paper_value, computed, method, tol):
    diff = abs(computed - paper_value)
    return {
        "label": label,
        "paper_value": float(paper_value),
        "computed_value": float(computed),
        "method": method,
        "abs_diff": diff,
        "pass": bool(diff <= tol),
    }


def _paper_rows():
    """Every cited checkable number, graded against a fresh computation."""
    rows = []
    uniform = Uniform()
    quad = lambda model, n: exact.probability(model, n, method="quadrature").value
    paper_limit = asymptotics.limit_family_formula
    limit_row = lambda label, model: _row(f"{label} limit", paper_limit(model),
                                          asymptotics.asymptotic_profile(model).p_limit,
                                          "leading-term profile", 1e-12)

    for n in (1, 2, 5):
        rows.append(_row(f"uniform p_{n}", float(exact.p_uniform_fraction(n)),
                         quad(uniform, n), "quadrature vs closed form", 1e-8))
    rows.append(limit_row("uniform", uniform))

    rows.append(_row("shrunk-uniform(0.1) p_10",
                     exact.p_closed_form(ShrunkUniform(0.1), 10),
                     quad(ShrunkUniform(0.1), 10), "quadrature vs closed form", 1e-8))
    rows.append(_row("gap-uniform(0.1) p_10",
                     exact.p_closed_form(GapUniform(0.1), 10),
                     quad(GapUniform(0.1), 10), "quadrature vs closed form", 1e-8))
    rows.append(_row("gap-uniform(0.45) p_10",
                     exact.p_closed_form(GapUniform(0.45), 10),
                     quad(GapUniform(0.45), 10), "quadrature vs closed form", 1e-8))
    rows.append(_row("two-step(0.5) p_10",
                     exact.p_closed_form(TwoStep(0.5), 10),
                     quad(TwoStep(0.5), 10), "quadrature vs closed form", 1e-8))
    rows.append(_row("two-step(0) p_3 reduces to uniform",
                     float(exact.p_uniform_fraction(3)),
                     exact.p_closed_form(TwoStep(0.0), 3), "closed form identity", 1e-12))

    rows.append(limit_row("linear(1)", Linear(1.0)))
    rows.append(limit_row("abs-sine", AbsSine()))
    rows.append(limit_row("piece-quadratic(0)", PieceQuadratic(0.0)))
    rows += [limit_row(f"linear({a})", Linear(a)) for a in (-2.0, -1.0, -0.5, 0.5, 1.5, 2.0)]
    rows += [limit_row(f"q-power({q})", QPower(q)) for q in (0, 1, 2, 3, 4, 5)]
    rows += [limit_row(f"two-step({d})", TwoStep(d)) for d in (0.25, 0.5, 0.75)]
    rows += [limit_row(f"three-step({d})", ThreeStep(d)) for d in (-0.5, 0.5)]
    rows.append(limit_row("arc-sine", ArcSine()))

    rows.append(_row("linear(1) p_1000", 0.3753, quad(Linear(1.0), 1000),
                     "quadrature n=1000", 5e-4))
    rows.append(_row("abs-sine p_1000", 0.6400, quad(AbsSine(), 1000),
                     "quadrature n=1000", 5e-4))
    rows.append(_row("arc-sine p_1000", 1.000, quad(ArcSine(), 1000),
                     "quadrature n=1000", 5e-3))
    rows.append(_row("beta(4,1) p_1000", 0.000005, quad(Beta(4, 1), 1000),
                     "quadrature n=1000", 1e-5))
    rows.append(_row("beta(1,4) p_1000", 0.000005, quad(Beta(1, 4), 1000),
                     "quadrature n=1000", 1e-5))
    rows.append(_row("beta(4,2) p_1000 below bound", 0.0, quad(Beta(4, 2), 1000),
                     "quadrature n=1000, cited bound is < 1e-5", 1e-5))
    rows.append(_row("beta(2,4) p_1000 below bound", 0.0, quad(Beta(2, 4), 1000),
                     "quadrature n=1000, cited bound is < 1e-5", 1e-5))
    rows.append(_row("beta(2,2) p_1000", 0.000001, quad(Beta(2, 2), 1000),
                     "quadrature n=1000; dual routes give ~1.06e-4, see README", 1e-5))

    for n, m, reference in [(1, 1, Fraction(1)), (2, 1, Fraction(4, 3)),
                            (2, 2, Fraction(14, 9)), (3, 2, Fraction(229, 120)),
                            (3, 3, Fraction(257, 120))]:
        rows.append(_row(f"uniform E[gamma(D_{n},{m})]", float(reference),
                         multianchor.expected_gamma(uniform, uniform, n, m),
                         "mean of the uniform-composition pmf table", 1e-8))
    return rows


_CURVE_MODELS = (
    ("q-power-2", QPower(2)),
    ("piece-quadratic-2-3", PieceQuadratic(2.0 / 3.0)),
    ("arc-sine", ArcSine()),
    ("abs-sine", AbsSine()),
)
_CURVE_N = (1, 2, 3, 5, 10, 20, 50, 100, 200, 500, 1000)


def _write_curves(req: CommandRequest):
    os.makedirs(req.out, exist_ok=True)
    written = []
    xs = np.linspace(0.0, 1.0, 513)[1:-1]
    for label, model in _CURVE_MODELS:
        path = os.path.join(req.out, f"density-{label}.csv")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["x", "density"])
            for x, f in zip(xs, model.pdf(xs)):
                writer.writerow([repr(float(x)), repr(float(f))])
        written.append({"file": os.path.basename(path), "points": xs.size})
        path = os.path.join(req.out, f"law-{label}.csv")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["n", "p_n"])
            for n in _CURVE_N:
                value = exact.probability(model, n, method="quadrature").value
                writer.writerow([n, repr(float(value))])
        written.append({"file": os.path.basename(path), "points": len(_CURVE_N)})
    return written


def _cmd_table(req: CommandRequest) -> int:
    if req.curves:
        rows = _write_curves(req)
        if req.format == "json":
            for line in [json.dumps({"config": req.config()}, sort_keys=True)] + [
                    json.dumps({"row": r}, sort_keys=True) for r in rows]:
                sys.stdout.write(line + "\n")
        else:
            sys.stdout.write("# " + json.dumps(req.config(), sort_keys=True) + "\n")
            for r in rows:
                sys.stdout.write(f"{r['file']},{r['points']}\n")
        return 0
    rows = _paper_rows()
    failures = [r for r in rows if not r["pass"]]
    summary = {"rows": len(rows), "failures": len(failures)}
    _emit(req, ["label", "paper_value", "computed_value", "method", "abs_diff", "pass"],
          rows, summary)
    if req.paper and failures:
        return 3
    return 0


def _selftest_checks():
    rng = simulate._stream(20260815, 0)
    fails = 0

    def grade(name, ok):
        nonlocal fails
        fails += 0 if ok else 1
        sys.stdout.write(("ok " if ok else "FAIL ") + name + "\n")

    # the kernel behind every simulate.run count against the exhaustive
    # oracle, one call of each per (n, m) group of the 1000 instances;
    # instance k takes its n points and m anchors from row k of one block
    ns, ms = rng.integers(2, 8, size=1000), rng.integers(1, 4, size=1000)
    block = rng.random((1000, 10))
    first = None
    for n, m in sorted(set(zip(ns.tolist(), ms.tolist()))):
        index = np.flatnonzero((ns == n) & (ms == m))
        xs, ys = np.sort(block[index, :n], axis=1), np.sort(block[index, n:n + m], axis=1)
        kernel = digraph._cell_gammas(xs, ys)[0].sum(axis=1)
        oracle = digraph.domination_number_oracle(xs, ys)
        bad = np.flatnonzero(kernel != oracle)
        if bad.size and (first is None or index[bad[0]] < first[0]):
            row = bad[0]
            first = (index[row], xs[row].tolist(), ys[row].tolist(), kernel[row], oracle[row])
    if first is not None:
        sys.stderr.write("oracle-equivalence-1000: instance {} xs={} ys={} kernel={} oracle={}\n"
                         .format(*first))
    grade("oracle-equivalence-1000", first is None)

    uniform = Uniform()
    ok = all(
        abs(float(exact.p_uniform_fraction(n))
            - exact.probability(uniform, n, method="quadrature").value) <= 1e-8
        for n in (2, 5, 10))
    grade("uniform-closed-vs-quadrature", ok)

    two_step = TwoStep(0.5)
    ok = all(
        abs(exact.p_closed_form(two_step, n)
            - exact.probability(two_step, n, method="quadrature").value) <= 1e-8
        for n in (2, 5, 10))
    grade("two-step-closed-vs-quadrature", ok)

    square = SquareCdf()
    ok = all(
        abs(float(exact.p_multinomial_squarecdf(n))
            - exact.probability(square, n, method="quadrature").value) <= 1e-8
        for n in (2, 5, 10))
    grade("square-cdf-multinomial-vs-quadrature", ok)

    u = np.linspace(0.0, 1.0, 513)[1:-1]
    catalog = [uniform, ShrunkUniform(0.1), GapUniform(0.125), two_step, ThreeStep(0.5),
               Linear(1.0), QPower(2), PieceQuadratic(1.0 / 3.0), AbsSine(), ArcSine(),
               Beta(2, 2), TruncatedNormal(0.3, 0.5), square, GeneralLinear(0.25, (0.0, 2.0))]
    ok = all(float(np.abs(model.cdf(model.quantile(u)) - u).max()) <= 1e-9 for model in catalog)
    grade("cdf-quantile-roundtrip", ok)

    # Beta(1, 1) is uniform, but its family sends it through anchor quadrature
    exact_law = multianchor.pmf_random_anchors_table(uniform, uniform, 4, 2)
    quadrature = multianchor.pmf_random_anchors_table(uniform, Beta(1, 1), 4, 2)
    grade("multi-uniform-law-vs-anchor-quadrature",
          float(np.max(np.abs(exact_law - quadrature))) <= 1e-12)

    plan = dict(fx=uniform, fy=uniform, n=4, m=2, reps=2000, seed=1)
    first = simulate.run(simulate.SimulationPlan(**plan))
    second = simulate.run(simulate.SimulationPlan(parallelism=2, **plan))
    grade("simulate-determinism", first == second)

    return fails


def _cmd_selftest(req: CommandRequest) -> int:
    sys.stdout.write("# " + json.dumps(req.config(), sort_keys=True) + "\n")
    return 1 if _selftest_checks() else 0


_DISPATCH = {
    "simulate": _cmd_simulate,
    "exact": _cmd_exact,
    "quadrature": _cmd_quadrature,
    "asymptotic": _cmd_asymptotic,
    "multi": _cmd_multi,
    "table": _cmd_table,
    "selftest": _cmd_selftest,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        request = _resolve(args)
    except (ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return _DISPATCH[request.subcommand](request)
    except Exception as exc:  # noqa: BLE001 - any computation failure maps to exit 1
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
