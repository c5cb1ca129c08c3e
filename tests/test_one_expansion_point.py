"""Every tree node expands through orbits.children: no function in
src/orbitint recurses by name (so tree depth is never bounded by the
interpreter's recursion limit), and inside orbits only the word walk and
children evaluate a map."""

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "orbitint").glob("*.py"))
TREES = {path: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}


def _calls_to(node, name):
    return [call for call in ast.walk(node)
            if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
            and call.func.id == name]


def test_no_function_calls_itself():
    recursive = [f"{path.stem}.{node.name}" for path, tree in TREES.items()
                 for node in tree.body
                 if isinstance(node, ast.FunctionDef) and _calls_to(node, node.name)]
    assert recursive == []


def test_eval_point_only_in_word_walk_and_children():
    tree = next(tree for path, tree in TREES.items() if path.stem == "orbits")
    allowed = {id(call) for node in tree.body
               if isinstance(node, ast.FunctionDef) and node.name in ("walk_word", "children")
               for call in _calls_to(node, "eval_point")}
    others = [call.lineno for call in _calls_to(tree, "eval_point")
              if id(call) not in allowed]
    assert allowed and others == []
