"""Every function, class and constant of cccd is reached from outside the tests.

A module-level function, class or UPPERCASE constant in ``src/cccd``, and any
private (leading underscore) module-level name there, must be named in
``src/cccd``, ``demos/`` or ``perfbench/`` somewhere other than inside its own
definition or assignment: as a name, an attribute, an import or a string (the
benchmark's tracer looks some functions up by name). So must every method or
property defined on a class there, public or private (bar dunders), as an
attribute read (``obj.name``) somewhere other than inside its own def; a local
variable or a string of that name is no use of it. Code that only tests reach
should be deleted with its tests, or wired into a command, a demo or the
benchmark.

Every name a module in ``src/cccd``, ``tests/`` or ``demos/`` imports is also
read in that module, bar ``from __future__`` imports and the package's
``__init__`` re-exports.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "cccd"
CALLER_DIRS = (PACKAGE, ROOT / "demos", ROOT / "perfbench")

# public names that stay without a caller, and why
ALLOWED = {}


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


def _own(stmt):
    """Names a top-level statement defines: a def's or class's name, an assignment's targets."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return {stmt.name}
    if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        return {sub.id for target in targets for sub in ast.walk(target)
                if isinstance(sub, ast.Name)}
    return set()


def _mentions():
    """How often each name occurs, leaving out a top-level definition's own names."""
    seen = Counter()
    for directory in CALLER_DIRS:
        for path in sorted(directory.rglob("*.py")):
            for stmt in ast.parse(path.read_text()).body:
                own = _own(stmt)
                seen.update(name for name in _named(stmt) if name not in own)
    return seen


def _public(stmt):
    """Public functions and classes, and UPPERCASE constants."""
    names = _own(stmt)
    if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        names = {name for name in names if name.isupper()}
    return sorted(name for name in names if not name.startswith("_"))


def _private(stmt):
    """Private functions, classes and assigned names, bar dunders."""
    return sorted(name for name in _own(stmt) if name.startswith("_") and not name.startswith("__"))


def test_every_private_name_is_read_outside_its_definition():
    defined = [name for path in sorted(PACKAGE.glob("*.py"))
               for stmt in ast.parse(path.read_text()).body for name in _private(stmt)]
    assert defined
    mentions = _mentions()
    assert sorted(name for name in defined if not mentions[name]) == []


def test_every_public_name_has_a_caller_outside_the_tests():
    defined = [name for path in sorted(PACKAGE.glob("*.py"))
               for stmt in ast.parse(path.read_text()).body for name in _public(stmt)]
    assert set(ALLOWED) <= set(defined)
    mentions = _mentions()
    assert sorted(name for name in defined
                  if not mentions[name] and name not in ALLOWED) == []


def _methods(tree):
    """Methods and properties of a module's top-level classes, bar dunders, each as its def."""
    for stmt in tree.body:
        if isinstance(stmt, ast.ClassDef):
            for item in stmt.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                    yield item


def _attribute_reads(node):
    return Counter(sub.attr for sub in ast.walk(node)
                   if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load))


def test_every_method_is_named_outside_its_own_def():
    methods = [item for path in sorted(PACKAGE.glob("*.py")) for item in _methods(ast.parse(path.read_text()))]
    assert methods
    reads = sum((_attribute_reads(ast.parse(path.read_text()))
                 for directory in CALLER_DIRS for path in sorted(directory.rglob("*.py"))), Counter())
    # a method that reads itself, say to recurse, takes those reads back out
    assert sorted(item.name for item in methods
                  if reads[item.name] <= _attribute_reads(item)[item.name]) == []


def _imports(tree):
    """Each import alias in a module with the name it binds, bar ``from __future__``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((alias, alias.asname or alias.name.partition(".")[0]) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from ((alias, alias.asname or alias.name) for alias in node.names)


def test_every_import_is_read():
    unread = []
    for directory in (PACKAGE, ROOT / "tests", ROOT / "demos"):
        for path in sorted(directory.rglob("*.py")):
            if path == PACKAGE / "__init__.py":
                continue
            tree = ast.parse(path.read_text())
            imports = list(_imports(tree))
            # _named counts each alias once as a mention; take those back out
            seen = Counter(_named(tree))
            seen.subtract(name for alias, _ in imports for name in _named(alias))
            unread += [f"{path.relative_to(ROOT)}: {bound}" for _, bound in imports if seen[bound] <= 0]
    assert unread == []
