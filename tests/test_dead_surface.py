"""Every public function and class of cccd is reached from outside the tests.

A public module-level name in ``src/cccd`` must be named in ``src/cccd``,
``demos/`` or ``perfbench/`` somewhere other than inside its own definition:
as a name, an attribute, an import or a string (the benchmark's tracer looks
some functions up by name).  Code that only tests reach should be deleted
with its tests, or wired into a command, a demo or the benchmark.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "cccd"
CALLER_DIRS = (PACKAGE, ROOT / "demos", ROOT / "perfbench")

# public names that stay without a caller, and why
ALLOWED = {
    "upper_bound_counts": "acceptance criteria 06/07 check the occupancy bound 2 k1 + k2 with it",
}


def _named(node):
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name.rpartition(".")[2]
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            yield sub.value


def _mentions():
    """How often each name occurs, leaving out a top-level definition's own name."""
    seen = Counter()
    for directory in CALLER_DIRS:
        for path in sorted(directory.rglob("*.py")):
            for stmt in ast.parse(path.read_text()).body:
                own = getattr(stmt, "name", None)
                seen.update(name for name in _named(stmt) if name != own)
    return seen


def test_every_public_name_has_a_caller_outside_the_tests():
    defined = [stmt.name for path in sorted(PACKAGE.glob("*.py"))
               for stmt in ast.parse(path.read_text()).body
               if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
               and not stmt.name.startswith("_")]
    assert set(ALLOWED) <= set(defined)
    mentions = _mentions()
    assert sorted(name for name in defined
                  if not mentions[name] and name not in ALLOWED) == []
