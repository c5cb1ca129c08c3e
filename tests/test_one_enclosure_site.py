"""A point is enclosed in one place, polys.Enclosure: only its methods bound
a form over a box or trim a box, each enclosure constant is assigned in one
module, and a test that lifts the size threshold patches that one constant,
so the census screen and the deferred atoms cannot fork again.  A tree node
is settled in one place, orbits.settle, which the walk calls with the
consumer's verdict; a consumer gates on neither the node's level nor its
size, and a box keeps the trim it was made at."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "orbitint").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))

BOX_HELPERS = {"_form_bounds", "_trim"}
# The sizes of an enclosure: when a point is large enough to enclose, how
# many bits its box keeps, and how many residue digits a valuation reads first.
CONSTANTS = {"ENCLOSE_BITS", "BOX_BITS", "TOP_BITS", "RESIDUE_DIGITS", "BOX_PER_PREC"}
RETIRED = {"SCREEN_BITS", "LEAF_BITS", "DEFERRED_BITS", "_Node", "atom_enclosure",
           "_abs_bounds", "top_bits_box", "trim_box", "form_bounds"}


def _functions(tree, prefix=""):
    """(qualified name, node) of every function, methods under their class."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            yield from _functions(node, f"{prefix}{node.name}.")
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield prefix + node.name, node


def _called(func):
    names = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Call):
            target = node.func
            names.add(target.attr if isinstance(target, ast.Attribute)
                      else getattr(target, "id", None))
    return names


def test_only_enclosure_methods_bound_and_trim_boxes():
    callers = {f"{path.stem}.{name}": sorted(_called(func) & BOX_HELPERS)
               for path in SOURCES
               for name, func in _functions(ast.parse(path.read_text(encoding="utf-8")))
               if _called(func) & BOX_HELPERS}
    assert callers == {"polys.Enclosure.bounds": ["_form_bounds"],
                       "polys.Enclosure.image": ["_trim"],
                       "polys.Enclosure.of": ["_trim"]}


def test_each_enclosure_constant_is_assigned_in_one_module():
    owners = {name: [] for name in CONSTANTS | RETIRED}
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign) else [])
            names = [t.id for t in targets if isinstance(t, ast.Name)]
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.append(node.name)
            for name in names:
                if name in owners:
                    owners[name].append(path.stem)
            if isinstance(node, ast.ImportFrom):
                # A copy made by import could not be patched in one place.
                assert not {a.name for a in node.names} & CONSTANTS, path.name
    assert {name: owners[name] for name in CONSTANTS} == {
        "ENCLOSE_BITS": ["polys"], "BOX_BITS": ["polys"], "TOP_BITS": ["integrality"],
        "RESIDUE_DIGITS": ["polys"], "BOX_PER_PREC": ["heights"]}
    assert all(not owners[name] for name in RETIRED)


def test_a_lifted_threshold_patches_the_one_constant():
    patched = []
    for path in TESTS:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "setattr" and len(node.args) >= 2
                    and isinstance(node.args[1], ast.Constant)
                    and node.args[1].value in CONSTANTS | RETIRED):
                patched.append((ast.unparse(node.args[0]), node.args[1].value))
    assert patched and set(patched) == {("polys", "ENCLOSE_BITS")}


def _reads(func, name):
    """True when func reads name, as a bare name or as an attribute."""
    return any(isinstance(node, ast.Name) and node.id == name
               or isinstance(node, ast.Attribute) and node.attr == name
               for node in ast.walk(func))


def test_one_settle_site():
    """Only orbits.settle encloses a tree node, and only orbits.Orbit a step
    of a word walk; the one other point enclosed is a built point's chordal
    sum of squares.  The size gate ENCLOSE_BITS is read by Enclosure.of
    only, and no function outside orbits compares a node's level."""
    functions = [(f"{path.stem}.{name}", func) for path in SOURCES
                 for name, func in _functions(ast.parse(path.read_text(encoding="utf-8")))]
    enclosers = sorted(name for name, func in functions for node in ast.walk(func)
                       if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                       and node.func.attr == "of" and ast.unparse(node.func.value).endswith("Enclosure"))
    assert enclosers == ["orbits.Orbit._enclose", "orbits.settle", "proj1._sum_of_squares"]
    assert sorted(name for name, func in functions if _reads(func, "ENCLOSE_BITS")) == [
        "polys.Enclosure.of"]
    gates = [name for name, func in functions if not name.startswith("orbits.")
             for node in ast.walk(func) if isinstance(node, ast.Compare)
             and any(isinstance(n, ast.Name) and n.id == "levels" for n in ast.walk(node))]
    assert gates == []


def test_the_walk_settles_with_the_consumers_verdict():
    """The walk takes the consumer's verdict and settles with it: only
    orbits.children calls orbits.settle, no generic hook (NodeTest) is
    left, an image takes only its map, since a box keeps its own trim, and
    no module but polys reads the size gate ENCLOSE_BITS."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    functions = dict((f"{stem}.{name}", func) for stem, tree in trees.items()
                     for name, func in _functions(tree))
    assert sorted(name for name, func in functions.items() if "settle" in _called(func)) == [
        "orbits.children"]
    assert [path.name for path in SOURCES if "NodeTest" in path.read_text(encoding="utf-8")] == []
    image = functions["polys.Enclosure.image"].args
    assert [a.arg for a in image.posonlyargs + image.args + image.kwonlyargs] == ["self", "phi"]
    assert not (image.vararg or image.kwarg)
    assert sorted(stem for stem, tree in trees.items() if _reads(tree, "ENCLOSE_BITS")) == [
        "polys"]
