"""Every log box is taken by logvals.interval_sum: no other function in
src/orbitint calls iv.log, so word and system estimates share one summation
and the lo and hi sums of a system estimate share one log per atom."""

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "orbitint").glob("*.py"))


def _is_iv_log(node):
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "log" and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "iv")


def test_only_interval_sum_takes_a_log():
    owners, total = [], 0
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        total += sum(_is_iv_log(node) for node in ast.walk(tree))
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owners += [f"{path.stem}.{func.name}" for node in ast.walk(func)
                           if _is_iv_log(node)]
    assert owners == ["logvals.interval_sum"] and total == 1
