"""The benchmark in ``perfbench/`` drives cccd from outside the package and
finds what it traces by name at run time, so a renamed or deleted function
would only show when the benchmark runs.  These tests catch it here.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    return importlib.import_module("layertrace"), importlib.import_module("workloads")


def test_every_traced_target_resolves(perfbench):
    layertrace, _ = perfbench
    targets = layertrace._targets()
    assert {name for _, _, name, _ in targets} >= {f"exact.{r}" for r in layertrace.ROUTES}
    for owner, attr, name, _ in targets:
        assert callable(owner.__dict__.get(attr)), name


def test_every_package_name_the_workloads_read_resolves():
    # an op that calls a deleted name fails only when it runs, where it shows as a lost ok_frac
    modules = {name: importlib.import_module(f"cccd.{name}")
               for name in ("asymptotics", "exact", "multianchor", "simulate")}
    tree = ast.parse((ROOT / "perfbench" / "workloads.py").read_text())
    used = {(node.value.id, node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in modules}
    assert ("asymptotics", "limit_unbounded") in used
    assert [f"{mod}.{attr}" for mod, attr in sorted(used) if not hasattr(modules[mod], attr)] == []


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_ops_build(perfbench, workload):
    _, workloads = perfbench
    models = workloads.build_models(workload, 0)
    ops = workloads.build_ops(workload, models, 0, 2)
    assert ops and all(callable(op.run) and callable(op.check) for op in ops)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_models_build_without_scipy_special(workload):
    # set-up is timed from a cold start to the built models; scipy.special costs about 0.3 s
    # there, so no model of any workload may load it before its first cdf or quantile
    src, bench = str(ROOT / "src"), str(ROOT / "perfbench")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, bench, os.environ.get("PYTHONPATH")]))}
    code = ("import sys, cccd.cli, workloads\nworkloads.build_models(sys.argv[1], 0)\n"
            "print('scipy.special' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", code, workload], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120, check=True)
    assert done.stdout.split() == ["False"]
