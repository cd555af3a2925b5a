"""Every name a qpalg module imports is used in that module.

No lint tool ships with the project, so this walks each module's syntax
tree with the stdlib `ast`: an import that nothing reads is a leftover of
a deletion, and it keeps the deleted code's dependencies alive.
"""

import ast
from pathlib import Path

import pytest

import qpalg

MODULES = sorted(Path(qpalg.__file__).parent.glob("*.py"))


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
