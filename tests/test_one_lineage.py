"""One lineage builds every point read without building it: no function in
src/orbitint takes both an enclosure and a build callable, the path rebuild
_Settled is gone, no build is made of an orbit's __getitem__ or of a lambda
that indexes an orbit, and what waits to be built later (a settle's
stand-ins, a chordal sum or a height atom read from a box) holds the point's
orbits.Lineage and no polys.Enclosure."""

import ast
import gc
import types
from pathlib import Path

from orbitint import polys
from orbitint.heights import LeafAtoms, canonical_height_word
from orbitint.orbits import Lineage, Orbit, WorkLimits, iterate_word, settle
from orbitint.places import INFINITE_PLACE, Place, PlaceSet
from orbitint.proj1 import ProjPoint, chordal_sum, normalize
from orbitint.ratmap import MapSystem, parse_map
from orbitint.words import Word

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "orbitint").glob("*.py"))
TREES = {path: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
PAIR = MapSystem([parse_map("z^2"), parse_map("z^3")])
NODE = ProjPoint(3 ** 2000, 2 ** 1500)


def _functions():
    """(qualified name, class name or None, definition) of every function."""
    for path, tree in TREES.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, ast.FunctionDef):
                        yield f"{path.stem}.{node.name}.{member.name}", node.name, member
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                yield f"{path.stem}.{node.name}", None, node


def _parameters(fn):
    args = fn.args
    return args.posonlyargs + args.args + args.kwonlyargs


def _annotation(arg) -> str:
    return ast.unparse(arg.annotation) if arg.annotation is not None else ""


def test_no_function_takes_an_enclosure_and_a_build():
    both = []
    for name, owner, fn in _functions():
        params = _parameters(fn)
        boxed = any("Enclosure" in _annotation(a) or a.arg in ("box", "enclosure")
                    for a in params) or (owner == "Enclosure" and bool(params))
        builds = any(a.arg == "build" or _annotation(a).replace(" ", "").startswith("Callable[[],")
                     for a in params)
        if boxed and builds:
            both.append(name)
    assert both == []


def test_the_retired_builds_are_gone():
    """No _Settled, no partial over an orbit's __getitem__, and no build
    lambda (one of no argument) that builds a point by indexing an orbit."""
    names = {node.name if isinstance(node, ast.ClassDef) else
             node.id if isinstance(node, ast.Name) else node.attr
             for tree in TREES.values() for node in ast.walk(tree)
             if isinstance(node, (ast.ClassDef, ast.Name, ast.Attribute))}
    getitem = [ast.unparse(node) for tree in TREES.values() for node in ast.walk(tree)
               if isinstance(node, ast.Attribute) and node.attr == "__getitem__"]
    indexing = [ast.unparse(node) for tree in TREES.values() for node in ast.walk(tree)
                if isinstance(node, ast.Lambda) and not _parameters(node)
                and any(isinstance(inner, ast.Subscript) for inner in ast.walk(node.body))]
    assert ("_Settled" in names, getitem, indexing) == (False, [], [])


def _reachable(*roots) -> list:
    """Every object reachable from roots through gc.get_referents, entering
    no class or module and a function only through its closure and
    defaults, so no module's globals are walked."""
    seen, stack, found = set(), list(roots), []
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType)):
            continue
        seen.add(id(obj))
        found.append(obj)
        if isinstance(obj, types.FunctionType):
            stack.extend(cell.cell_contents for cell in obj.__closure__ or ()
                         if cell.cell_contents is not None)
            stack.extend(obj.__defaults__ or ())
        else:
            stack.extend(gc.get_referents(obj))
    return found


def _kinds(*roots) -> set:
    return {type(obj) for obj in _reachable(*roots)} & {polys.Enclosure, Lineage}


def test_the_walk_finds_a_box_held_by_a_closure():
    box = polys.Enclosure.of(NODE.x, NODE.y, (64, 64), Lineage(NODE))
    assert _kinds(lambda: box.size()) == {polys.Enclosure, Lineage}
    assert _kinds(box.lineage.build) == {Lineage}


def test_stand_ins_hold_lineages_and_no_enclosure():
    """After a settle with the system height's verdict returns, its
    stand-ins reach the lineages of their leaves and no box, at each level
    of the settle."""
    for levels in (1, 2, 3):
        stand_ins = settle(PAIR, NODE, levels, WorkLimits(), LeafAtoms(128))
        assert sorted(stand_ins) == [1, 2]
        assert _kinds(stand_ins) == {Lineage}, levels


def test_deferred_word_steps_hold_lineages_and_no_enclosure():
    """A chordal sum and a height atom read from an unbuilt orbit step
    reach the step's lineage, and no box, until they are built."""
    orbit = Orbit(PAIR, Word.periodic((1,)), normalize((1 << 600) + 1))
    steps = list(iterate_word(orbit, 3))
    assert isinstance(steps[3], polys.Enclosure)
    places = PlaceSet([INFINITE_PLACE, Place(2), Place(3)])
    total = chordal_sum(steps[3], normalize(5), places)
    height = canonical_height_word(orbit, 3)
    assert len(orbit.points) < 4
    assert _kinds(total) == _kinds(height) == {Lineage}
