"""The package's public surface: every public module-level function or
class in src/ is used by src/ itself, and every defaulted parameter is
set by some call in src/, so no name or knob lives there for the tests
alone."""

import ast
import math
from pathlib import Path

import twobridge

# bench/run.py traces these three by name, so they stay until its tracer
# can drop a target (ROADMAP item 9 waits on item 1)
BENCH_TRACED = {"diagram.full_diagram", "rational.continued_fraction",
                "rational.canonical_class"}
# the console script calls main() with no argument; tests pass argv
UNSET_ALLOWED = {"cli.main(argv)"}


def _name(node):
    """The name a Name, Attribute or import refers to, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.alias):
        return node.name
    return None


def _modules():
    for path in sorted(Path(twobridge.__file__).parent.glob("*.py")):
        yield path.stem, ast.parse(path.read_text(), str(path))


def unused_public_names():
    """module.name of each public module-level function or class that no
    Name, Attribute or import in src/ refers to outside its own definition."""
    defined, used = set(), set()
    for module, tree in _modules():
        for top in tree.body:
            own = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
            if own and not own.startswith("_"):
                defined.add((module, own))
            used.update(name for name in map(_name, ast.walk(top)) if name not in (None, own))
    return {f"{module}.{name}" for module, name in defined if name not in used}


def test_src_keeps_no_test_only_public_name():
    assert unused_public_names() == BENCH_TRACED


def unset_defaults():
    """module.function(parameter) of each defaulted parameter of a function
    in src/ that no call in src/ sets, by position or by keyword.  A call
    is matched to a function by name alone; a method's self is no
    position, and a starred argument reaches every position."""
    defaults, keywords, positions = {}, set(), {}
    for module, tree in _modules():
        methods = {f for c in ast.walk(tree) if isinstance(c, ast.ClassDef) for f in c.body}
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef):
                a = node.args
                positional = (a.posonlyargs + a.args)[node in methods:]
                first = len(positional) - len(a.defaults)
                for i, p in enumerate(positional[first:], first):
                    defaults[module, node.name, p.arg] = i
                for p, d in zip(a.kwonlyargs, a.kw_defaults):
                    if d is not None:
                        defaults[module, node.name, p.arg] = math.inf
            elif isinstance(node, ast.Call):
                name = _name(node.func)
                keywords.update((name, k.arg) for k in node.keywords)
                starred = any(isinstance(x, ast.Starred) for x in node.args)
                positions[name] = max(positions.get(name, 0),
                                      math.inf if starred else len(node.args))
    return {f"{module}.{name}({p})" for (module, name, p), i in defaults.items()
            if (name, p) not in keywords and positions.get(name, 0) <= i}


def test_src_sets_every_defaulted_parameter():
    assert unset_defaults() == UNSET_ALLOWED
