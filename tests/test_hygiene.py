"""Every name a qpalg module imports is used, and every definition is reached.

No lint tool ships with the project, so this walks the syntax trees with
the stdlib `ast`.  An import that nothing reads is a leftover of a
deletion, and it keeps the deleted code's dependencies alive.

A definition is reached when a program path leads to it.  The roots are
the definitions of `cli`, the module-level statements every import runs,
and each name the benchmark (`perfbench/*.py`) imports from a qpalg module
or reads from one.  From a reached definition the walk follows the names
it reads: a bare name of its own module, a name bound by `from .m import`,
and `m.name` on an imported qpalg module.  Tests are no caller: code that
only a test reaches is test surface, and belongs in the tests.

A method of a reached class is reached when a reached definition reads an
attribute of that name.  The type behind an attribute is not known
statically, so any attribute of the name counts.  Dunder methods are
called by the language, and a class deriving from a class outside qpalg
may have its methods called by that class, so those count as reached.
The functions the benchmark's tracer counts by name must still resolve,
or a refactor would zero its metric silently.
"""

import ast
import importlib
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


# which values are scalars is `exactnum`'s decision (`SCALARS`, `coeff_value`);
# a type test elsewhere would be a second copy of it
SCALAR_TYPES = {"Fraction", "Cyclotomic"}


def _scalar_type_tests(tree) -> list[int]:
    """Lines that test a type against Fraction or Cyclotomic: through
    isinstance or issubclass, by comparing type(...), or by spelling them
    in a tuple of types."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and _dotted(node.func) in ("isinstance", "issubclass"):
            against = node.args[1:]
        elif isinstance(node, ast.Compare) and isinstance(node.left, ast.Call) and \
                _dotted(node.left.func) == "type":
            against = node.comparators
        elif isinstance(node, (ast.Tuple, ast.List, ast.Set)):   # a bare type, not a value
            against = [e for e in node.elts if isinstance(e, ast.Name)]
        else:
            continue
        if any(isinstance(a, ast.Name) and a.id in SCALAR_TYPES
               for arg in against for a in ast.walk(arg)):
            lines.append(node.lineno)
    return sorted(set(lines))


@pytest.mark.parametrize("path", [p for p in MODULES if p.stem != "exactnum"],
                         ids=[p.name for p in MODULES if p.stem != "exactnum"])
def test_only_exactnum_tests_scalar_types(path):
    lines = _scalar_type_tests(ast.parse(path.read_text(), filename=str(path)))
    assert not lines, f"{path.name}: scalar type tests at lines {lines}; ask exactnum"


def _integral_fractions(tree) -> list[int]:
    """Lines that call Fraction on one integer literal, such as Fraction(0)."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and _dotted(node.func) == "Fraction" and \
                len(node.args) == 1 and not node.keywords:
            arg = node.args[0]
            if isinstance(arg, ast.UnaryOp) and isinstance(arg.op, (ast.USub, ast.UAdd)):
                arg = arg.operand
            if isinstance(arg, ast.Constant) and type(arg.value) is int:
                lines.append(node.lineno)
    return lines


# an integral rational is the int itself (`exactnum.coeff_value`), so a
# Fraction constant of an integer would be a second, non-canonical form of it
@pytest.mark.parametrize("path", [p for p in MODULES if p.stem != "exactnum"],
                         ids=[p.name for p in MODULES if p.stem != "exactnum"])
def test_no_integral_fraction_constants(path):
    lines = _integral_fractions(ast.parse(path.read_text(), filename=str(path)))
    assert not lines, f"{path.name}: Fraction of an integer literal at lines {lines}; use the int"


# a grading group is a class with an element_order; they all live in groups,
# next to each other, so their shared interface cannot drift apart
def test_grading_groups_live_in_groups():
    elsewhere = [f"{path.name}:{node.lineno} {node.name}" for path in MODULES
                 for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
                 if isinstance(node, ast.ClassDef) and path.stem != "groups"
                 and any(isinstance(sub, ast.FunctionDef) and sub.name == "element_order"
                         for sub in node.body)]
    assert not elsewhere, f"grading groups outside groups.py: {elsewhere}"


STEMS = {path.stem for path in MODULES}
PERFBENCH = sorted((Path(__file__).parents[1] / "perfbench").glob("*.py"))
DEFINITIONS = (ast.FunctionDef, ast.ClassDef)


def _dotted(node) -> str | None:
    """`a.b.c` of a chain of names and attributes, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return base and f"{base}.{node.attr}"
    return None


def _bindings(tree, stem=None):
    """What a file's names resolve to: bare name -> (module stem, name) for
    its `from .m import name` (and its own definitions, given its stem), and
    alias -> stem for each qpalg module it imports."""
    bound = {node.name: (stem, node.name) for node in tree.body
             if stem and isinstance(node, DEFINITIONS)}
    aliases = {f"qpalg.{s}": s for s in STEMS}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or
                                                 (node.module or "").startswith("qpalg")):
            source = (node.module or "").rpartition(".")[2]
            for alias in node.names:
                if source in STEMS:
                    bound[alias.asname or alias.name] = (source, alias.name)
                elif alias.name in STEMS:       # from qpalg import m [as x]
                    aliases[alias.asname or alias.name] = alias.name
    return bound, aliases


def _reads(nodes, bound, aliases) -> tuple[set, set]:
    """The (module stem, name) definitions and the attribute names that
    the given subtrees read."""
    uses, attrs = set(), set()
    for sub in (s for node in nodes for s in ast.walk(node)):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load) and sub.id in bound:
            uses.add(bound[sub.id])
        elif isinstance(sub, ast.Attribute):
            attrs.add(sub.attr)
            if _dotted(sub.value) in aliases:
                uses.add((aliases[_dotted(sub.value)], sub.attr))
    return uses, attrs


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _graph():
    """(nodes, methods, where): the names and attributes each definition
    reads, keyed (stem, name) or (stem, "Class.method"), with the roots under
    the key None; the method keys of each class that only an attribute read
    reaches; and file:line of each definition."""
    nodes, methods, where = {}, {}, {}
    root_uses, root_attrs = set(), set()
    for path in MODULES:
        stem = path.stem
        tree = ast.parse(path.read_text(), filename=str(path))
        bound, aliases = _bindings(tree, stem)
        for node in tree.body:
            if not isinstance(node, DEFINITIONS):
                uses, attrs = _reads([node], bound, aliases)
                root_uses |= uses
                root_attrs |= attrs
                continue
            key = (stem, node.name)
            where[key] = f"{path.name}:{node.lineno} {node.name}"
            if stem == "cli":
                root_uses.add(key)
            if isinstance(node, ast.FunctionDef):
                nodes[key] = _reads([node], bound, aliases)
                continue
            defs = [s for s in node.body if isinstance(s, ast.FunctionDef)]
            rest = node.bases + node.keywords + node.decorator_list + \
                [s for s in node.body if s not in defs] + \
                [d for s in defs for d in s.decorator_list]
            nodes[key] = _reads(rest, bound, aliases)
            foreign = any(bound.get(_dotted(b)) not in nodes for b in node.bases)
            methods[key] = []
            for sub in defs:
                sub_key = (stem, f"{node.name}.{sub.name}")
                where[sub_key] = f"{path.name}:{sub.lineno} {node.name}.{sub.name}"
                nodes[sub_key] = _reads([sub], bound, aliases)
                if foreign or _dunder(sub.name):
                    nodes[key][0].add(sub_key)
                else:
                    methods[key].append((sub_key, sub.name))
    for path in PERFBENCH:
        tree = ast.parse(path.read_text(), filename=str(path))
        bound, aliases = _bindings(tree)
        uses, attrs = _reads([tree], bound, aliases)
        root_uses |= uses | set(bound.values())
        root_attrs |= attrs
    for module, qualname in _tracer_names():
        root_uses |= {(module, qualname.partition(".")[0]), (module, qualname)}
    nodes[None] = (root_uses, root_attrs)
    return nodes, methods, where


def _reached(nodes, methods) -> set:
    """Every key the roots lead to; a method joins once its class is
    reached and an attribute of its name is read."""
    reached, attrs, pending = set(), set(), [None]
    while pending:
        while pending:
            key = pending.pop()
            if key in reached or key not in nodes:
                continue
            reached.add(key)
            uses, reads = nodes[key]
            pending += uses
            attrs |= reads
        pending = [sub_key for key in reached for sub_key, name in methods.get(key, ())
                   if sub_key not in reached and name in attrs]
    return reached


def test_every_definition_is_named():
    nodes, methods, where = _graph()
    reached = _reached(nodes, methods)
    owner = {key: (key[0], key[1].partition(".")[0]) for key in where}
    # a method of an unreached class is reported with its class
    dead = [line for key, line in where.items() if key not in reached
            and (owner[key] == key or owner[key] in reached)]
    assert not dead, f"definitions no program path reaches: {dead}"


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
