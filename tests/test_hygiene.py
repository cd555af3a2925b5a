"""Every name a qpalg module imports is used, and every definition is named.

No lint tool ships with the project, so this walks each module's syntax
tree with the stdlib `ast`: an import that nothing reads is a leftover of
a deletion, and it keeps the deleted code's dependencies alive; so is a
module-level function or class that neither the package nor the tests
name anywhere.
"""

import ast
from pathlib import Path

import pytest

import qpalg

MODULES = sorted(Path(qpalg.__file__).parent.glob("*.py"))
TESTS = sorted(Path(__file__).parent.glob("*.py"))


def _imported(tree) -> dict:
    """Bound name -> line of every import in the module, __future__ aside."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _read(tree) -> set:
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    unused = {name: line for name, line in _imported(tree).items()
              if name not in _read(tree)}
    assert not unused, f"{path.name}: unused imports {unused}"


def _named(tree) -> set:
    """Identifiers a module refers to: reads, attributes, imports and the
    identifier strings handed to getattr-style helpers such as monkeypatch."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.split(".")[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            names.add(node.value)
    return names


def test_every_definition_is_named():
    trees = {path: ast.parse(path.read_text(), filename=str(path))
             for path in MODULES + TESTS}
    named = set().union(*(_named(tree) for tree in trees.values()))
    dead = [f"{path.name}:{node.lineno} {node.name}"
            for path in MODULES for node in trees[path].body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in named]
    assert not dead, f"definitions nothing names: {dead}"
