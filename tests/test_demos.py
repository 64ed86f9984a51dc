"""Each demo script runs to its end in-process and prints its tour, and so does the README's
library tour, whose comments give the values it returns."""

import ast
import re
import runpy
from fractions import Fraction
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("path", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out.strip()


README = Path(__file__).resolve().parent.parent / "README.md"


def _claims(comment):
    """The checks a tour comment states about its line's value: Fraction(a, b), name='text',
    a quoted string, leading digits followed by "...", and the keys of {k: ..., ...}."""
    checks = [lambda v, f=Fraction(int(a), int(b)): getattr(v, "exact", v) == f
              for a, b in re.findall(r"Fraction\((\d+), (\d+)\)", comment)]
    checks += [lambda v, a=attr, w=want: getattr(v, a) == w
               for attr, want in re.findall(r"(\w+)='([^']*)'", comment)]
    checks += [lambda v, w=want: v == w for want in re.findall(r'^"([^"]*)"', comment)]
    checks += [lambda v, d=digits: repr(float(v)).startswith(d)
               for digits in re.findall(r"(\d+\.\d+)\.\.\.", comment)]
    keys = re.findall(r"(\d+): \.\.\.", comment)
    if keys:
        checks.append(lambda v: sorted(v) == [int(k) for k in keys])
    return checks


def test_readme_library_tour_runs_and_matches_its_comments():
    block = README.read_text().split("## Library tour", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    namespace, checked = {}, 0
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        if not code.strip():
            continue
        stmt = ast.parse(code).body[0]
        if isinstance(stmt, ast.Expr):
            value = eval(compile(ast.Expression(stmt.value), "README", "eval"), namespace)
        else:
            exec(compile(code, "README", "exec"), namespace)
            value = namespace[stmt.targets[0].id] if isinstance(stmt, ast.Assign) else None
        checks = _claims(comment.strip())
        # every comment states something this test can check
        assert checks or not comment, line
        for check in checks:
            assert check(value), (line, value)
        checked += len(checks)
    assert checked
