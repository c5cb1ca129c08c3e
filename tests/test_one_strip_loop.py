"""Every factor of a prime is divided out by places.strip_prime: no other
function in src/orbitint loops on `while ... % ... == 0`."""

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "orbitint").glob("*.py"))


def _is_divisibility_loop(node):
    test = getattr(node, "test", None)
    return (isinstance(node, ast.While) and isinstance(test, ast.Compare)
            and isinstance(test.left, ast.BinOp) and isinstance(test.left.op, ast.Mod)
            and [type(op) for op in test.ops] == [ast.Eq]
            and isinstance(test.comparators[0], ast.Constant)
            and test.comparators[0].value == 0)


def test_only_strip_prime_divides_out_a_factor():
    owners = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owners += [f"{path.stem}.{func.name}" for node in ast.walk(func)
                           if _is_divisibility_loop(node)]
    assert owners == ["places.strip_prime"]
