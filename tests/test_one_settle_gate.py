"""The settle gate and the box fields each have one owner: the number of
levels above the leaves at which a tree node settles is one named constant
of orbits, read only by orbits.settle, and only polys reads an Enclosure's
coordinate ranges and their exponents (and tests/test_enclosure.py, which
checks them).  Its one other public field is the lineage that builds its
point."""

import ast
from pathlib import Path

from orbitint import polys

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "orbitint").glob("*.py"))
TREES = {path: ast.parse(path.read_text(encoding="utf-8"))
         for path in SOURCES + sorted((ROOT / "tests").glob("*.py"))}


def _functions(body, prefix):
    """(qualified name, node) of every function, methods under their class."""
    for node in body:
        if isinstance(node, ast.ClassDef):
            yield from _functions(node.body, f"{prefix}{node.name}.")
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield prefix + node.name, node


def _reads(tree, name):
    return [node for node in ast.walk(tree)
            if isinstance(node, ast.Name) and node.id == name and isinstance(node.ctx, ast.Load)
            or isinstance(node, ast.Attribute) and node.attr == name]


def test_the_settle_gate_is_one_constant_read_by_settle():
    assigned = [f"{path.stem}:{node.lineno}" for path, tree in TREES.items()
                for node in ast.walk(tree) if isinstance(node, ast.Assign)
                for target in node.targets
                if isinstance(target, ast.Name) and target.id == "SETTLE_LEVELS"]
    assert len(assigned) == 1 and assigned[0].startswith("orbits:")
    readers = sorted(f"{path.stem}.{name}" for path in SOURCES
                     for name, func in _functions(TREES[path].body, "")
                     if _reads(func, "SETTLE_LEVELS"))
    assert readers == ["orbits.settle"]
    # The gate is the constant, never a literal: settle compares levels
    # with a number nowhere.
    settle = dict(_functions(TREES[ROOT / "src" / "orbitint" / "orbits.py"].body, ""))["settle"]
    literal = [ast.unparse(node) for node in ast.walk(settle) if isinstance(node, ast.Compare)
               and any(isinstance(n, ast.Name) and n.id == "levels" for n in ast.walk(node))
               and any(isinstance(n, ast.Constant) for n in ast.walk(node))]
    assert literal == []


def test_only_polys_reads_the_box_fields():
    fields = {name for name in polys.Enclosure.__slots__ if not name.startswith("_")} - {"lineage"}
    assert fields == {"xs", "ys"}
    allowed = {ROOT / "src" / "orbitint" / "polys.py", ROOT / "tests" / "test_enclosure.py"}
    readers = sorted(f"{path.relative_to(ROOT)}:{node.lineno}"
                     for path, tree in TREES.items() if path not in allowed
                     for node in ast.walk(tree)
                     if isinstance(node, ast.Attribute) and node.attr in fields)
    assert readers == []
