"""Every top-level function and class in src/orbitint, and every non-dunder
method of those classes, is referenced somewhere in src/orbitint, tests/ or
__all__: no helper that nothing calls."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "orbitint").glob("*.py"))
TREES = {path: ast.parse(path.read_text(encoding="utf-8"))
         for path in SOURCES + sorted((ROOT / "tests").glob("*.py"))}


def _definitions(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, ast.FunctionDef) and not member.name.startswith("__"):
                    yield f"{node.name}.{member.name}"


def _references():
    names = set()
    for tree in TREES.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.add(node.value)  # __all__ entries
    return names


def test_every_definition_has_a_caller():
    used = _references()
    unused = [f"{path.stem}.{name}" for path in SOURCES for name in _definitions(TREES[path])
              if name.rsplit(".", 1)[-1] not in used]
    assert unused == []
