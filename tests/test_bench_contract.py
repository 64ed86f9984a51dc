"""The benchmark in ``perfbench/`` drives cccd from outside the package and
finds what it traces by name at run time, so a renamed or deleted function
would only show when the benchmark runs.  These tests catch it here.
"""

import importlib
import json
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


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_ops_build(perfbench, workload):
    _, workloads = perfbench
    models = workloads.build_models(workload, 0)
    ops = workloads.build_ops(workload, models, 0, 2)
    assert ops and all(callable(op.run) and callable(op.check) for op in ops)
