"""Every log box is taken by logvals.interval_sum: no other function in
src/orbitint calls iv.log, so word and system estimates share one summation
and the lo and hi sums of a system estimate share one log per atom.  No
module but logvals handles a boxed atom itself."""

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


BOXED_ATOM_HELPERS = {"interval_sum", "rounded_box", "_overlapping", "_clusters", "encloses_atom"}


def _called_name(call):
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def test_boxed_atoms_are_a_logvals_concern():
    """Outside logvals no module sums log boxes, rounds an enclosure, tests
    enclosures for overlap or for N >= 2: a boxed atom reaches an estimate
    only as a logvals.Deferred inside a LogExpr."""
    callers = [f"{path.stem}:{node.lineno}" for path in SOURCES if path.stem != "logvals"
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, ast.Call) and _called_name(node) in BOXED_ATOM_HELPERS]
    assert callers == []
