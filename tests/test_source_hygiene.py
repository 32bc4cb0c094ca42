"""Static checks over the package's modules: every name a module imports is
read in it, every module-level private function or class is used in it,
every public one is used by the package or by perfbench, not by tests
alone, and every module-level constant is read somewhere in the package.
``__init__.py`` re-exports what it imports, and ``__future__`` imports are
compiler directives, so neither is checked for reads."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "voxsplat"
MODULES = sorted(SRC.glob("*.py"))
BENCH = sorted((ROOT / "perfbench").glob("*.py"))


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _read(tree) -> set[str]:
    """Every name loaded in ``tree``; ``a.b.c`` loads ``a``."""
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def _referenced(trees) -> set[str]:
    """Every name loaded in ``trees`` and every attribute read from a name."""
    read = set().union(*map(_read, trees))
    return read | {node.attr for tree in trees for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def _imported(tree) -> set[str]:
    """The names bound by the module's imports, ``__future__`` left out."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(alias.asname or alias.name for alias in node.names)
    return names


def test_the_scan_sees_the_package():
    assert {path.name for path in MODULES} >= {"__init__.py", "blending.py", "cli.py"}


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_every_imported_name_is_read(path):
    tree = _parse(path)
    assert sorted(_imported(tree) - _read(tree)) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_private_function_and_class_is_used(path):
    tree = _parse(path)
    private = {node.name for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
               and node.name.startswith("_") and not node.name.endswith("__")}
    assert sorted(private - _read(tree)) == []


def _constants(tree) -> set[str]:
    """The UPPER_CASE names a module binds at its top level, ``_``-prefixed included."""
    targets = [t for node in tree.body if isinstance(node, ast.Assign) for t in node.targets]
    targets += [node.target for node in tree.body if isinstance(node, ast.AnnAssign)]
    return {t.id for t in targets
            if isinstance(t, ast.Name) and re.fullmatch(r"_?[A-Z][A-Z0-9_]*", t.id)}


def test_every_constant_is_read_in_the_package():
    """A constant whose last reader a derivation replaced is left behind unread."""
    trees = [_parse(path) for path in MODULES]
    read = _referenced(trees)
    constants = {name: path.name for path, tree in zip(MODULES, trees)
                 if path.name != "__init__.py" for name in _constants(tree)}
    assert "INDEX_BITS" in constants and "_HEADER" in constants
    assert sorted(f"{constants[name]}: {name}" for name in constants.keys() - read) == []


def test_every_public_function_and_class_is_used_outside_the_tests():
    """A public function or class that only tests call is a parallel API:
    the real path takes it in or it goes.  Re-exports in ``__init__.py``
    are no use."""
    trees = {path.name: _parse(path) for path in MODULES if path.name != "__init__.py"}
    assert len(BENCH) >= 3 and "cli.py" in trees
    used = _referenced([*trees.values(), *map(_parse, BENCH)])
    public = {f"{name}: {node.name}" for name, tree in trees.items() for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
              and not node.name.startswith("_")}
    assert sorted(item for item in public if item.split(": ")[1] not in used) == []


def _names(tree) -> set[str]:
    """Every name and attribute ``tree`` reads or imports."""
    return (_referenced([tree])
            | {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
               for alias in node.names})


def test_every_oracle_is_used_by_a_test():
    """An oracle serves a test module, itself or through another oracle;
    the oracle of deleted code leaves with it."""
    tests = ROOT / "tests"
    oracles = _parse(tests / "oracles.py")
    defined = {node.name: node for node in oracles.body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}
    modules = [path for path in sorted(tests.glob("*.py")) if path.name != "oracles.py"]
    assert len(defined) > 20 and len(modules) > 10
    used = set().union(*(_names(_parse(path)) for path in modules)) & defined.keys()
    reached = set(used)
    while reached:
        reached = set().union(*(_names(defined[name]) for name in reached)) & defined.keys() - used
        used |= reached
    assert sorted(defined.keys() - used) == []
