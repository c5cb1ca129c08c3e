"""Every log box is taken by logvals.interval_sum: no other function in
src/orbitint calls mpi_log, so word and system estimates share one summation
and the lo and hi sums of a system estimate share one log per atom.  No
module but logvals handles a boxed atom itself, and none but logvals knows
mpmath: interval arithmetic takes its precision as an argument, and no
statement in src/orbitint sets a precision attribute, so no result depends
on a process-wide setting."""

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "orbitint").glob("*.py"))


def _is_log(node):
    return isinstance(node, ast.Call) and _called_name(node) == "mpi_log"


def test_only_interval_sum_takes_a_log():
    owners, total = [], 0
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        total += sum(_is_log(node) for node in ast.walk(tree))
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owners += [f"{path.stem}.{func.name}" for node in ast.walk(func)
                           if _is_log(node)]
    assert owners == ["logvals.interval_sum"] and total == 1


def test_only_logvals_knows_mpmath():
    importers, assigned = [], []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                modules = [node.module]
            else:
                modules = []
            importers += [path.stem for name in modules if name.split(".")[0] == "mpmath"]
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                assigned += [f"{path.stem}:{node.lineno}" for target in targets
                             for sub in ast.walk(target)
                             if isinstance(sub, ast.Attribute) and sub.attr == "prec"]
    assert sorted(set(importers)) == ["logvals"] and assigned == []


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
