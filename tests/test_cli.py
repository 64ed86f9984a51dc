"""Command-line behavior: exit codes, output shape, reproducibility."""

import csv
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from cccd import multianchor
from cccd.cli import MULTI_SAMPLED_REPS, main
from cccd.densities import Uniform
from cccd.exact import QUADRATURE_MAX_N, p_uniform_fraction

LINEAR = '{"family": "linear", "params": {"a": 1.0}}'


def run_cli(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def parse_json_lines(text):
    records = [json.loads(line) for line in text.strip().splitlines()]
    config = records[0]["config"]
    rows = [r["row"] for r in records if "row" in r]
    summaries = [r["summary"] for r in records if "summary" in r]
    return config, rows, (summaries[0] if summaries else None)


def parse_csv(text):
    lines = text.strip().splitlines()
    assert lines[0].startswith("# ")
    config = json.loads(lines[0][2:])
    tail = [ln for ln in lines[1:] if not ln.startswith("# ")]
    comments = [json.loads(ln[2:]) for ln in lines[1:] if ln.startswith("# ")]
    rows = list(csv.DictReader(tail))
    return config, rows, (comments[0] if comments else None)


class TestArgumentHandling:
    def test_missing_subcommand_is_usage_error(self, capsys):
        assert run_cli(capsys, [])[0] == 2

    def test_unknown_subcommand(self, capsys):
        assert run_cli(capsys, ["frobnicate"])[0] == 2

    def test_missing_required_flag(self, capsys):
        assert run_cli(capsys, ["simulate"])[0] == 2

    def test_bad_density_json(self, capsys):
        rc, _, err = run_cli(capsys, ["exact", "--density", "{oops", "--n", "3"])
        assert rc == 2
        assert "JSON" in err

    def test_unknown_family(self, capsys):
        rc, _, err = run_cli(capsys, ["exact", "--density", '{"family": "cauchy"}', "--n", "3"])
        assert rc == 2
        assert "unknown family" in err

    def test_bad_sizes(self, capsys):
        assert run_cli(capsys, ["exact", "--n", "0"])[0] == 2
        assert run_cli(capsys, ["simulate", "--n", "3", "--reps", "0"])[0] == 2
        for rel_tol in ("-1", "nan", "inf"):
            assert run_cli(capsys, ["quadrature", "--n", "3", "--rel-tol", rel_tol])[0] == 2
        assert run_cli(capsys, ["multi", "--n", "3", "--m", "0"])[0] == 2

    def test_help_exits_zero(self, capsys):
        assert run_cli(capsys, ["--help"])[0] == 0

    def test_density_with_nan_mass_exits_two(self, capsys):
        # a NaN scale makes the mass NaN, which once passed the mass check
        spec = '{"family": "truncated_normal", "params": {"mu": 0.3, "sigma": NaN}}'
        rc, out, err = run_cli(capsys, ["exact", "--density", spec, "--n", "5"])
        assert rc == 2 and out == ""
        assert "density mass nan" in err

    @pytest.mark.parametrize("spec", ['{"family": "arc_sine", "support": [0, 2]}',
                                      '{"family": "abs_sine", "support": [-1, 0]}'],
                             ids=["arc_sine", "abs_sine"])
    def test_unit_family_on_another_support_exits_two(self, capsys, spec):
        # these pdfs ignore the interval, so a support they would not honour is refused up front
        for argv in (["exact", "--n", "10"], ["simulate", "--n", "10", "--m", "2"],
                     ["asymptotic"], ["multi", "--n", "5", "--m", "2"]):
            rc, out, err = run_cli(capsys, argv + ["--density", spec])
            assert rc == 2 and out == "", argv
            assert "support: this family is defined on [0,1]" in err

    @pytest.mark.parametrize("spec, message", [
        ('{"family": "general_linear", "params": {"a": 0}, "support": [0, Infinity]}',
         "support: ends must be finite"),
        ('{"family": "general_linear", "params": {"a": 0}, "support": [0, 1e-320]}',
         "support: general_linear needs a width"),
        ('{"family": "two_step", "params": {"delta": %s}}' % ("1" * 401),
         "params: a number is out of range"),
    ], ids=["infinite_end", "width_square_underflows", "huge_integer"])
    def test_malformed_numbers_in_a_spec_exit_two(self, capsys, spec, message):
        rc, out, err = run_cli(capsys, ["exact", "--n", "3", "--density", spec])
        assert rc == 2 and out == ""
        assert message in err and "Traceback" not in err

    def test_computation_failure_maps_to_one(self, capsys):
        # the cell program is capped at n + m = 400 on every route
        n = str(multianchor.MAX_CELL_TOTAL - 1)
        rc, _, err = run_cli(capsys, ["multi", "--density", LINEAR, "--n", n, "--m", "2"])
        assert rc == 1
        assert "Monte Carlo" in err

    def test_curves_requires_out(self, capsys):
        assert run_cli(capsys, ["table", "--curves"])[0] == 2


class TestConfigEcho:
    def test_json_header_carries_defaults(self, capsys):
        rc, out, _ = run_cli(capsys, ["simulate", "--n", "4"])
        assert rc == 0
        config, _, _ = parse_json_lines(out)
        assert config["subcommand"] == "simulate"
        assert config["reps"] == 10000
        assert config["seed"] == 0
        assert config["format"] == "json"
        assert config["density"]["family"] == "uniform"
        assert config["density"]["support"] == [0.0, 1.0]

    def test_csv_header_carries_defaults(self, capsys):
        rc, out, _ = run_cli(capsys, ["exact", "--n", "3", "--format", "csv"])
        assert rc == 0
        config, _, _ = parse_csv(out)
        assert config["rel_tol"] == 1e-8
        assert config["subcommand"] == "exact"


class TestSimulate:
    def test_endpoint_anchor_run_grades_against_exact_law(self, capsys):
        rc, out, _ = run_cli(capsys, ["simulate", "--n", "5", "--reps", "20000", "--seed", "9"])
        assert rc == 0
        config, rows, summary = parse_json_lines(out)
        assert [row["k"] for row in rows] == [1, 2]
        p5 = float(p_uniform_fraction(5))
        assert rows[1]["predicted"] == pytest.approx(p5, abs=1e-12)
        assert sum(row["count"] for row in rows) == 20000
        assert all(abs(row["z"]) <= 4.0 for row in rows)
        assert summary["verdict"] == "pass"

    def test_csv_columns_match_contract(self, capsys):
        rc, out, _ = run_cli(
            capsys, ["simulate", "--n", "5", "--reps", "5000", "--format", "csv"])
        assert rc == 0
        lines = out.strip().splitlines()
        assert lines[1] == "k,count,fraction,predicted,z"

    def test_random_anchor_prediction_matches_pmf_table(self, capsys):
        rc, out, _ = run_cli(
            capsys, ["simulate", "--n", "4", "--m", "2", "--reps", "5000", "--seed", "9"])
        assert rc == 0
        _, rows, summary = parse_json_lines(out)
        table = multianchor.pmf_random_anchors_table(Uniform(), Uniform(), 4, 2)
        for row in rows:
            assert row["predicted"] == pytest.approx(float(table[row["k"]]), abs=1e-12)
        assert summary["verdict"] == "pass"

    def test_many_anchor_run_grades_against_exact_law(self, capsys):
        rc, out, _ = run_cli(
            capsys, ["simulate", "--n", "3", "--m", "50", "--reps", "2000", "--format", "csv"])
        assert rc == 0
        _, rows, summary = parse_csv(out)
        assert all(row["predicted"] != "" for row in rows)
        assert summary["verdict"] == "pass"
        assert max(int(row["k"]) for row in rows) <= 3

    def test_equal_counts_run_grades_against_exact_law(self, capsys):
        rc, out, _ = run_cli(capsys, ["simulate", "--n", "30", "--m", "30", "--reps", "20000"])
        assert rc == 0
        _, rows, summary = parse_json_lines(out)
        assert all(row["predicted"] is not None for row in rows)
        assert sum(row["predicted"] for row in rows) == pytest.approx(1.0, abs=1e-12)
        assert summary["verdict"] == "pass"

    def test_runs_past_the_exact_cap_have_no_prediction(self, capsys):
        n = multianchor.MAX_CELL_TOTAL
        rc, out, err = run_cli(capsys, ["simulate", "--n", str(n), "--m", "1", "--reps", "50"])
        assert rc == 0
        assert f"cap of {n}" in err
        _, rows, summary = parse_json_lines(out)
        assert all(row["predicted"] is None for row in rows)
        assert summary["verdict"] is None

    def test_reruns_are_byte_identical(self, tmp_path):
        path = tmp_path / "run.csv"
        argv = ["simulate", "--n", "6", "--m", "2", "--reps", "8000",
                "--seed", "31", "--format", "csv", "--out", str(path)]
        assert main(argv) == 0
        first = path.read_bytes()
        assert main(argv) == 0
        assert path.read_bytes() == first

    def test_thread_env_does_not_change_output(self, tmp_path, monkeypatch):
        path = tmp_path / "run.csv"
        argv = ["simulate", "--n", "6", "--m", "2", "--reps", "30000",
                "--seed", "31", "--format", "csv", "--out", str(path)]
        assert main(argv) == 0
        serial_text = path.read_text()
        monkeypatch.setenv("CCCD_THREADS", "8")
        assert main(argv) == 0
        threaded_text = path.read_text()
        assert serial_text == threaded_text.replace('"threads": 8', '"threads": 1')


class TestExactAndQuadrature:
    def test_exact_uniform_reports_fraction(self, capsys):
        rc, out, _ = run_cli(capsys, ["exact", "--n", "5"])
        assert rc == 0
        _, rows, _ = parse_json_lines(out)
        assert rows[0]["p"] == pytest.approx(float(p_uniform_fraction(5)), abs=1e-15)
        assert rows[0]["exact_fraction"] is not None

    @pytest.mark.parametrize("n, digits", [(7145, 4301), (10_000, 6020)])
    def test_exact_past_the_integer_string_limit_prints_p(self, capsys, n, digits):
        # the denominator of p_n has more digits than str() converts by default
        rc, out, err = run_cli(capsys, ["exact", "--n", str(n)])
        assert rc == 0
        _, rows, _ = parse_json_lines(out)
        assert rows[0]["p"] == float(p_uniform_fraction(n))
        assert rows[0]["exact_fraction"] is None
        assert err.count("\n") == 1 and f"{digits}-digit" in err

    @pytest.mark.parametrize("argv", [
        ["quadrature", "--n", str(10**26)],
        ["exact", "--n", str(10**16), "--density", LINEAR],
        ["exact", "--n", str(10**26)],
        ["exact", "--n", str(QUADRATURE_MAX_N + 1)],
    ], ids=["quadrature", "exact_linear", "exact_uniform", "exact_past_the_cap"])
    def test_n_past_the_quadrature_cap_exits_two(self, capsys, argv):
        # quadrature printed p = 6.16e19 and 1.18 here, and exact on the uniform never returned
        start = time.perf_counter()
        rc, out, err = run_cli(capsys, argv)
        assert time.perf_counter() - start < 1.0
        assert rc == 2 and out == ""
        assert f"--n must be at most {QUADRATURE_MAX_N}" in err

    def test_exact_past_the_rational_cap_takes_quadrature(self, capsys):
        # the exact-rational route took 102 s on this law at n = 10^6
        density = '{"family": "two_step", "params": {"delta": 0.5}}'
        start = time.perf_counter()
        rc, out, _ = run_cli(capsys, ["exact", "--n", str(10**6), "--density", density])
        assert time.perf_counter() - start < 0.1
        assert rc == 0
        _, rows, _ = parse_json_lines(out)
        assert (rows[0]["method"], rows[0]["exact_fraction"]) == ("quadrature", None)
        assert abs(rows[0]["p"] - 12 / 35) <= 1e-12

    @pytest.mark.parametrize("command", ["exact", "quadrature"])
    def test_unbounded_density_past_its_cap_exits_two(self, capsys, command):
        # at 3e9 quadrature printed p = 2.66e-16 for the arc-sine, whose p_n tends to 1
        density = '{"family": "arc_sine"}'
        rc, out, err = run_cli(capsys, [command, "--n", str(10**8 + 1), "--density", density])
        assert rc == 2 and out == ""
        assert "--n must be at most 100000000" in err
        rc, out, _ = run_cli(capsys, [command, "--n", str(10**8), "--density", density])
        assert rc == 0 and parse_json_lines(out)[1][0]["p"] > 1.0 - 1e-7

    def test_exact_gap_uniform_inside_the_old_band(self, capsys):
        density = '{"family": "gap_uniform", "params": {"delta": 0.25}}'
        rc, out, _ = run_cli(capsys, ["exact", "--n", "10", "--density", density])
        assert rc == 0
        row = parse_json_lines(out)[1][0]
        assert (row["p"], row["method"], row["exact_fraction"]) == (0.998046875, "exact-rational", "511/512")

    def test_general_linear_slope_past_two_over_width_squared_exits_two(self, capsys):
        # it used to build inside a 1e-12 slack with pdf(0) = -1e-14, and exact then exited 1
        density = '{"family": "general_linear", "params": {"a": 0.50000000000001}, "support": [0, 2]}'
        rc, out, err = run_cli(capsys, ["exact", "--n", "5", "--density", density])
        assert rc == 2 and out == "" and "a: general_linear slope" in err

    def test_quadrature_agrees_with_closed_form(self, capsys):
        rc, out, _ = run_cli(
            capsys, ["quadrature", "--n", "5", "--rel-tol", "1e-10"])
        assert rc == 0
        config, rows, _ = parse_json_lines(out)
        assert config["rel_tol"] == 1e-10
        assert rows[0]["p"] == pytest.approx(float(p_uniform_fraction(5)), abs=1e-9)
        assert rows[0]["panels"] >= 1


class TestAsymptotic:
    def test_linear_limit_row(self, capsys):
        rc, out, _ = run_cli(
            capsys, ["asymptotic", "--density", '{"family": "linear", "params": {"a": 1.0}}'])
        assert rc == 0
        _, rows, _ = parse_json_lines(out)
        row = rows[0]
        assert (row["k"], row["ell"]) == (0, 0)
        assert row["p_limit"] == pytest.approx(0.375, abs=1e-12)
        assert row["method"] == "derivative-profile"

    def test_divergent_density_uses_derivative_profile(self, capsys):
        rc, out, _ = run_cli(capsys, ["asymptotic", "--density", '{"family": "arc_sine"}'])
        assert rc == 0
        _, rows, _ = parse_json_lines(out)
        assert (rows[0]["method"], rows[0]["p_limit"]) == ("derivative-profile", 1.0)
        assert (rows[0]["k"], rows[0]["ell"]) == (0, 0)


    def test_beta_with_large_shapes_exits_zero(self, capsys):
        density = '{"family": "beta", "params": {"nu1": 1000, "nu2": 1000}}'
        rc, out, _ = run_cli(capsys, ["asymptotic", "--density", density])
        assert rc == 0
        _, rows, _ = parse_json_lines(out)
        assert (rows[0]["method"], rows[0]["p_limit"]) == ("derivative-profile", 0.0)

    def test_fractional_power_exits_zero(self, capsys):
        rc, out, _ = run_cli(capsys, ["asymptotic", "--density",
                                      '{"family": "q_power", "params": {"q": 0.5}}'])
        assert rc == 0
        _, rows, _ = parse_json_lines(out)
        assert (rows[0]["k"], rows[0]["ell"]) == (1, 0)
        assert rows[0]["p_limit"] == pytest.approx(2.0 ** 2.5 / (3.0 * (1.0 + 2.0 ** 1.5)), rel=1e-15)

    def test_underflowing_density_exits_one_and_says_so(self, capsys):
        density = '{"family": "truncated_normal", "params": {"mu": -0.28, "sigma": 0.002}}'
        rc, out, err = run_cli(capsys, ["asymptotic", "--density", density])
        assert (rc, out) == (1, "")
        assert "underflows to 0 at both the right endpoint and the midpoint" in err

class TestMulti:
    def test_pmf_rows_normalize_and_match_expected_value(self, capsys):
        rc, out, _ = run_cli(capsys, ["multi", "--n", "4", "--m", "2"])
        assert rc == 0
        _, rows, summary = parse_json_lines(out)
        total = sum(row["probability"] for row in rows)
        assert total == pytest.approx(1.0, abs=1e-9)
        mean = sum(row["k"] * row["probability"] for row in rows)
        assert summary["expected_gamma"] == pytest.approx(mean, abs=1e-6)
        assert summary["law"] == "iid"

    def test_sampled_anchors_report_the_mean_of_their_table(self, capsys):
        # arc-sine anchors lose mass under quadrature; for m > 3 both the
        # table and its mean come from sampled anchors
        rc, out, _ = run_cli(capsys, ["multi", "--density", '{"family": "arc_sine"}',
                                      "--n", "8", "--m", "5", "--reps", "2000"])
        assert rc == 0
        _, rows, summary = parse_json_lines(out)
        assert sum(row["probability"] for row in rows) == pytest.approx(1.0, abs=1e-9)
        mean = sum(row["k"] * row["probability"] for row in rows)
        assert summary["expected_gamma"] == pytest.approx(mean, abs=1e-12)

    def test_uniform_anchors_run_exactly_at_any_m(self, capsys):
        rc, out, _ = run_cli(capsys, ["multi", "--n", "30", "--m", "30"])
        assert rc == 0
        config, rows, summary = parse_json_lines(out)
        assert config["reps"] is None
        assert sum(row["probability"] for row in rows) == pytest.approx(1.0, abs=1e-12)
        p_table = [p_uniform_fraction(t) for t in range(1, 31)]
        want = float(multianchor.expected_gamma_hu(30, 30, p_table))
        assert summary["expected_gamma"] == pytest.approx(want, abs=1e-12)

    def test_reps_samples_anchors_at_any_m(self, capsys):
        rc, out, _ = run_cli(capsys, ["multi", "--density", '{"family": "arc_sine"}',
                                      "--n", "4", "--m", "2", "--reps", "2000"])
        assert rc == 0
        config, rows, _ = parse_json_lines(out)
        assert config["reps"] == 2000
        assert sum(row["probability"] for row in rows) == pytest.approx(1.0, abs=1e-12)

    def test_non_uniform_many_anchors_default_to_sampling(self, capsys):
        rc, out, _ = run_cli(capsys, ["multi", "--density", LINEAR, "--n", "4", "--m", "4"])
        assert rc == 0
        config, rows, summary = parse_json_lines(out)
        assert config["reps"] == MULTI_SAMPLED_REPS
        assert summary["law"] == "cell-copies"
        assert sum(row["probability"] for row in rows) == pytest.approx(1.0, abs=1e-12)

    def test_anchor_quadrature_mass_loss_exits_one(self, capsys):
        rc, out, err = run_cli(capsys, ["multi", "--density", '{"family": "arc_sine"}',
                                        "--n", "4", "--m", "2"])
        assert rc == 1
        assert out == ""
        assert "lost mass" in err and "mc_reps" in err and "--reps" in err


class TestTable:
    def test_paper_flag_reports_single_known_failure(self, capsys):
        rc, out, _ = run_cli(capsys, ["table", "--paper", "--format", "csv"])
        assert rc == 3
        _, rows, summary = parse_csv(out)
        failing = [row["label"] for row in rows if row["pass"] == "false"]
        assert failing == ["beta(2,2) p_1000"]
        assert summary == {"failures": 1, "rows": len(rows)}
        by_label = {row["label"]: row for row in rows}
        assert float(by_label["uniform limit"]["computed_value"]) == pytest.approx(4 / 9)
        assert float(by_label["abs-sine p_1000"]["abs_diff"]) <= 5e-4

    def test_without_paper_flag_exit_is_zero(self, capsys):
        assert run_cli(capsys, ["table"])[0] == 0

    def test_mutated_limit_computation_trips_exit_three(self, capsys, monkeypatch):
        import types

        import cccd.asymptotics as asym

        monkeypatch.setattr(
            asym, "asymptotic_profile",
            lambda model: types.SimpleNamespace(p_limit=0.123))
        rc, out, _ = run_cli(capsys, ["table", "--paper"])
        assert rc == 3
        _, rows, _ = parse_json_lines(out)
        assert sum(1 for row in rows if not row["pass"]) > 10

    def test_reruns_are_byte_identical(self, tmp_path):
        path = tmp_path / "table.jsonl"
        argv = ["table", "--paper", "--out", str(path)]
        assert main(argv) == 3
        first = path.read_bytes()
        assert main(argv) == 3
        assert path.read_bytes() == first


class TestCurves:
    def test_curve_files_written_and_deterministic(self, tmp_path):
        first = tmp_path / "one"
        second = tmp_path / "two"
        for target in (first, second):
            assert main(["table", "--curves", "--out", str(target)]) == 0
        names = sorted(p.name for p in first.iterdir())
        assert names == sorted(
            f"{kind}-{label}.csv"
            for kind in ("density", "law")
            for label in ("q-power-2", "piece-quadratic-2-3", "arc-sine", "abs-sine"))
        density = (first / "density-abs-sine.csv").read_text().splitlines()
        assert density[0] == "x,density"
        assert len(density) == 512
        law = (first / "law-abs-sine.csv").read_text().splitlines()
        assert law[0] == "n,p_n"
        assert float(law[-1].split(",")[1]) == pytest.approx(0.64, abs=5e-3)
        for name in names:
            assert (first / name).read_bytes() == (second / name).read_bytes()


class TestSelftest:
    def test_clean_build_passes(self, capsys):
        rc, out, err = run_cli(capsys, ["selftest"])
        assert rc == 0 and err == ""
        assert out.splitlines()[1:] == [
            "ok oracle-equivalence-1000", "ok uniform-closed-vs-quadrature",
            "ok two-step-closed-vs-quadrature", "ok square-cdf-multinomial-vs-quadrature",
            "ok cdf-quantile-roundtrip", "ok multi-uniform-law-vs-anchor-quadrature",
            "ok simulate-determinism"]

    def test_corrupted_closed_form_fails(self, capsys, monkeypatch):
        from fractions import Fraction

        import cccd.exact as exact_module

        monkeypatch.setattr(exact_module, "p_uniform_fraction", lambda n: Fraction(1, 2))
        rc, out, _ = run_cli(capsys, ["selftest"])
        assert rc == 1
        assert "FAIL uniform-closed-vs-quadrature" in out

    def test_broken_kernel_fails_and_names_the_instance(self, capsys, monkeypatch):
        import re

        import numpy as np

        from cccd import digraph

        kernel = digraph._cell_gammas

        def off_by_one(xs, ys):
            # one cell of one row: the last row of the (n, m) = (5, 2) group
            cells, tied = kernel(xs, ys)
            if xs.shape[1:] == (5,) and np.shape(ys)[-1] == 2:
                cells[-1, 0] += 1
            return cells, tied

        monkeypatch.setattr(digraph, "_cell_gammas", off_by_one)
        rc, out, err = run_cli(capsys, ["selftest"])
        assert rc == 1
        lines = out.strip().splitlines()[1:]
        assert lines[0] == "FAIL oracle-equivalence-1000"
        assert all(line.startswith("ok ") for line in lines[1:])
        found = re.fullmatch(r"oracle-equivalence-1000: instance (\d+) xs=(\[.*\]) ys=(\[.*\]) "
                             r"kernel=(\d+) oracle=(\d+)\n", err)
        assert found
        xs, ys = json.loads(found[2]), json.loads(found[3])
        assert (len(xs), len(ys)) == (5, 2)
        want = int(digraph.domination_number_oracle([xs], ys)[0])
        assert (int(found[4]), int(found[5])) == (want + 1, want)


def _fresh_python(code):
    """stdout of ``code`` run in a new interpreter that imports cccd from this checkout."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=60, check=True)
    return done.stdout.split()


def test_import_leaves_scipy_integrate_and_its_dependencies_unloaded():
    # every command pays for its imports; scipy.special loads on the first special-function
    # call, which no uniform, step, linear, integer-shape Beta or truncated normal model with
    # its mode in [0, 1] makes at construction
    heavy = ("scipy.special", "scipy.integrate", "scipy.optimize", "scipy.sparse", "scipy.linalg")
    loaded = f"print(sum(m in sys.modules for m in {heavy!r}), 'scipy.special' in sys.modules)"
    code = ("import sys, cccd.cli\n"
            "from cccd.densities import Beta, Linear, TruncatedNormal, TwoStep, Uniform\n"
            f"{loaded}\nUniform(), Linear(1.0), TwoStep(0.5), Beta(2, 2), Beta(4, 1), "
            f"TruncatedNormal(0.3, 0.5)\n{loaded}\nBeta(2, 2).cdf(0.3)\n{loaded}")
    assert _fresh_python(code) == ["0", "False", "0", "False", "1", "True"]


def test_truncated_normal_loads_scipy_special_only_for_a_mode_outside():
    # with the mode in [0, 1] the masses come from math.erf and math.erfc; outside it they
    # come from scipy's log tails, and the first cdf loads scipy.special either way
    head = "import sys\nfrom cccd.densities import TruncatedNormal\n"
    loaded = "print('scipy.special' in sys.modules)"
    code = (f"{head}inside = [TruncatedNormal(*law) for law in ((0.3, 0.5), (0, 1), (1, 0.3))]\n"
            f"{loaded}\ninside[0].cdf(0.5)\n{loaded}")
    assert _fresh_python(code) == ["False", "True"]
    for far in ((-0.28, 0.002), (1.5, 0.2)):
        assert _fresh_python(f"{head}TruncatedNormal{far!r}\n{loaded}") == ["True"], far
