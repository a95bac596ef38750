"""The package's public surface: every public module-level function or
class in src/ is used by src/ itself, so no name lives there for the
tests alone."""

import ast
from pathlib import Path

import twobridge

# bench/run.py traces these three by name, so they stay until its tracer
# can drop a target (ROADMAP item 9 waits on item 1)
BENCH_TRACED = {"diagram.full_diagram", "rational.continued_fraction",
                "rational.canonical_class"}


def _name(node):
    """The name a Name, Attribute or import refers to, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.alias):
        return node.name
    return None


def unused_public_names():
    """module.name of each public module-level function or class that no
    Name, Attribute or import in src/ refers to outside its own definition."""
    defined, used = set(), set()
    for path in Path(twobridge.__file__).parent.glob("*.py"):
        for top in ast.parse(path.read_text(), str(path)).body:
            own = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
            if own and not own.startswith("_"):
                defined.add((path.stem, own))
            used.update(name for name in map(_name, ast.walk(top)) if name not in (None, own))
    return {f"{module}.{name}" for module, name in defined if name not in used}


def test_src_keeps_no_test_only_public_name():
    assert unused_public_names() == BENCH_TRACED
