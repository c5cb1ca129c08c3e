"""Every work cap reaches the orbit engine as one orbits.WorkLimits: no
function in src/orbitint takes a loose bit_cap or node_cap, only
WorkLimits' own checks raise WorkLimitExceeded, and a word step meets a cap
through one test, orbits.Orbit.fits."""

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


def _calls(name):
    """Qualified names of the functions in src/orbitint (methods under their
    class) that call a function or method of the given name."""
    def functions(body, prefix):
        for node in body:
            if isinstance(node, ast.ClassDef):
                yield from functions(node.body, f"{prefix}{node.name}.")
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield prefix + node.name, node

    return sorted(qualified for path, tree in TREES.items()
                  for qualified, func in functions(tree.body, f"{path.stem}.")
                  if any(isinstance(node, ast.Call) and name in (
                      getattr(node.func, "attr", None), getattr(node.func, "id", None))
                         for node in ast.walk(func)))


def test_one_cap_test_along_a_word():
    """A word step is tested against a cap by Orbit.fits alone, and only the
    engine reads a bit count against a cap: fits_bits, bits_of and the bit
    range of a step or a box are called in orbits only (a Deferred atom
    reads its own bit range), and Enclosure.bit_range is the one function
    that takes bit lengths of a box's size."""
    assert _calls("fits") == ["heights.canonical_height_word", "orbits.find_cycle",
                              "orbits.iterate_word"]
    for name in ("fits_bits", "bits_of", "bit_range"):
        outside = [caller for caller in _calls(name) if not caller.startswith("orbits.")
                   and not (name == "bit_range" and caller.startswith("logvals.Deferred."))]
        assert outside == [], name
    assert sorted(set(_calls("size")) & set(_calls("bit_length"))) == [
        "polys.Enclosure.bit_range"]
    owners = [f"{path.stem}.{cls.name}" for path, tree in TREES.items()
              for cls in tree.body if isinstance(cls, ast.ClassDef)
              for node in cls.body if isinstance(node, ast.FunctionDef) and node.name == "fits"]
    assert owners == ["orbits.Orbit"]
