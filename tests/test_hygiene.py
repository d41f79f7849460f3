"""Source hygiene: no unused import, no private function that nothing calls,
no bare ``ValueError`` where callers expect the package's errors, no README
reference to a name the package does not have.

The first three are checked with the standard library's ``ast`` alone, over
the package's modules. Names re-exported by ``__init__.py`` count as used
there.
"""

import ast
import dataclasses
import importlib
import inspect
import re
from pathlib import Path

import pytest

import splinecol

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src" / "splinecol"
MODULES = sorted(SOURCE.glob("*.py"))


def parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def referenced(tree):
    """Every name a module reads: bare names, attribute names and imported names."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def imported(tree):
    """(bound name, line) of each import, ``__future__`` imports left out."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "__init__.py"], ids=lambda p: p.name
)
def test_every_import_is_used(path):
    tree = parse(path)
    loaded = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    unused = [f"{name} (line {line})" for name, line in imported(tree) if name not in loaded]
    assert not unused, f"{path.name} imports but never uses {', '.join(unused)}"


def test_every_private_function_is_referenced():
    trees = {path.name: parse(path) for path in MODULES}
    used = set().union(*(referenced(tree) for tree in trees.values()))
    idle = [
        f"{name}.{node.name}"
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
        and node.name.startswith("_")
        and not node.name.startswith("__")
        and node.name not in used
    ]
    assert not idle, f"private functions nothing references: {', '.join(idle)}"



def raised(tree):
    """(class name, line) of each ``raise Name`` or ``raise Name(...)``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                yield exc.id, node.lineno


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_bare_value_error(path):
    # Input checks raise PreconditionError or ConfigError, SplineColErrors
    # that callers such as a benchmark cell catch; a bare ValueError escapes them.
    bare = sorted(line for exc, line in raised(parse(path)) if exc == "ValueError")
    assert not bare, f"{path.name} raises a bare ValueError at lines {bare}"

def readme_references():
    """Backticked ``owner.name`` spans of README.md outside code blocks.

    Only owners that are a ``splinecol`` submodule or a class the package
    exports are kept; a span such as ``report.e_T`` names a variable.
    """
    text = re.sub(r"```.*?```", "", (ROOT / "README.md").read_text(), flags=re.S)
    modules = {path.stem for path in MODULES}
    refs = []
    for span in re.findall(r"`([^`]+)`", text):
        match = re.match(r"(\w+)\.(\w+)", span)
        if match is None:
            continue
        owner, name = match.groups()
        if owner in modules:
            refs.append((importlib.import_module(f"splinecol.{owner}"), owner, name))
        elif inspect.isclass(getattr(splinecol, owner, None)):
            refs.append((getattr(splinecol, owner), owner, name))
    return refs


def test_readme_references_resolve():
    refs = readme_references()
    assert refs, "README.md names no package attribute"
    missing = [
        f"{owner}.{name}"
        for obj, owner, name in refs
        if not hasattr(obj, name)
        and not (
            dataclasses.is_dataclass(obj)
            and name in {field.name for field in dataclasses.fields(obj)}
        )
    ]
    assert not missing, f"README.md names what the package lacks: {', '.join(missing)}"
