"""Every work cap reaches the orbit engine as one orbits.WorkLimits: no
function in src/orbitint takes a loose bit_cap or node_cap, and only
WorkLimits' own checks raise WorkLimitExceeded."""

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "orbitint").glob("*.py"))
TREES = {path: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}


def _parameters(fn):
    args = fn.args
    return [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]


def test_no_loose_cap_parameters():
    loose = [f"{path.stem}.{node.name}({name})" for path, tree in TREES.items()
             for node in ast.walk(tree)
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
             for name in _parameters(node) if name in ("bit_cap", "node_cap")]
    assert loose == []


def _raises_limit(node):
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    return name == "WorkLimitExceeded"


def test_work_limit_exceeded_raised_only_by_work_limits():
    allowed = set()
    for path, tree in TREES.items():
        if path.stem == "orbits":
            for node in tree.body:
                if isinstance(node, ast.ClassDef) and node.name == "WorkLimits":
                    allowed = {id(n) for n in ast.walk(node) if _raises_limit(n)}
    constructed = [(path.stem, node.lineno) for path, tree in TREES.items()
                   for node in ast.walk(tree)
                   if _raises_limit(node) and id(node) not in allowed]
    assert allowed and constructed == []
