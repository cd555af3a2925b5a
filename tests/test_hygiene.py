"""Every name a qpalg module imports is used, and every definition is named.

No lint tool ships with the project, so this walks each module's syntax
tree with the stdlib `ast`: an import that nothing reads is a leftover of
a deletion, and it keeps the deleted code's dependencies alive; so is a
module-level function or class that nothing reads from its own module.
Each definition is resolved against the module that defines it: a bare
name in that module, an import from it, an attribute of it, or a
`setattr` on it, in the package or the tests.  A name that only matches
something elsewhere (a test helper, an attribute of another object) does
not keep a definition alive.  The functions the benchmark's tracer counts
by name must still resolve, or a refactor would zero its metric silently.
"""

import ast
import importlib
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


STEMS = {path.stem for path in MODULES}


def _dotted(node) -> str | None:
    """`a.b.c` of a chain of names and attributes, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return base and f"{base}.{node.attr}"
    return None


def _module_uses(tree) -> set:
    """(module stem, name) for each name this file reads from a qpalg
    module: by `from ..m import name`, by `m.name` on a module alias, and
    by the name handed to `setattr` on it (`monkeypatch.setattr` too)."""
    aliases = {f"qpalg.{stem}": stem for stem in STEMS}
    uses = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or
                                                 (node.module or "").startswith("qpalg")):
            stem = (node.module or "").rpartition(".")[2]
            for alias in node.names:
                if stem in STEMS:
                    uses.add((stem, alias.name))
                elif alias.name in STEMS:       # from qpalg import m [as x]
                    aliases[alias.asname or alias.name] = alias.name
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _dotted(node.value) in aliases:
            uses.add((aliases[_dotted(node.value)], node.attr))
        elif isinstance(node, ast.Call) and (_dotted(node.func) or "").endswith("setattr"):
            target, name = (node.args + [None, None])[:2]
            if isinstance(target, ast.Constant):        # setattr("qpalg.m.name", ...)
                module, _, attr = str(target.value).rpartition(".")
                if module in aliases:
                    uses.add((aliases[module], attr))
            elif _dotted(target) in aliases and isinstance(name, ast.Constant):
                uses.add((aliases[_dotted(target)], name.value))
    return uses


def _read_outside(tree, definition) -> set:
    """Bare names a module reads anywhere but inside the definition itself."""
    return {name for node in tree.body if node is not definition for name in _read(node)}


def test_every_definition_is_named():
    trees = {path: ast.parse(path.read_text(), filename=str(path))
             for path in MODULES + TESTS}
    uses = set().union(*(_module_uses(tree) for tree in trees.values()))
    dead = [f"{path.name}:{node.lineno} {node.name}"
            for path in MODULES for node in trees[path].body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and (path.stem, node.name) not in uses
            and node.name not in _read_outside(trees[path], node)]
    assert not dead, f"definitions nothing names: {dead}"


# qpalg functions the benchmark's per-layer tracer looks up by name
# (perfbench/tracing.py NAMED_FUNCTIONS); a renamed one reads 0 there
TRACED = [("rewrite", "_reduce_terms"), ("rewrite", "complete"), ("rewrite", "interreduce"),
          ("ncalg", "substitute"), ("exactnum", "Cyclotomic.__mul__"),
          ("exactnum", "Cyclotomic.inverse"), ("gradings", "verify_grading"),
          ("groups", "Perm.__init__"), ("groups", "Perm.__mul__")]


def _tracer_names() -> set:
    path = Path(__file__).parents[1] / "perfbench" / "tracing.py"
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and _dotted(node.targets[0]) == "NAMED_FUNCTIONS":
            return {(module, name) for module, name, _ in ast.literal_eval(node.value).values()}
    raise AssertionError("perfbench/tracing.py defines no NAMED_FUNCTIONS")


@pytest.mark.parametrize("module,qualname", TRACED, ids=[".".join(t) for t in TRACED])
def test_traced_names_resolve(module, qualname):
    assert (module, qualname) in _tracer_names()
    obj = importlib.import_module(f"qpalg.{module}")
    for part in qualname.split("."):
        obj = getattr(obj, part)
    assert obj.__code__
