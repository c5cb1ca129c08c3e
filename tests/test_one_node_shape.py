"""A tree node has one shape: the walk's (word, point) pair.  enumerate_tree
hands a fold the pairs of orbits.walk_tree under any worker count, the
census returns its hits as those pairs, and no module wraps them in a record
type again."""

import ast
import random
from fractions import Fraction
from pathlib import Path

import pytest

from orbitint.integrality import s_integral_census
from orbitint.orbits import enumerate_tree, walk_tree
from orbitint.places import PlaceSet, is_s_integer
from orbitint.proj1 import normalize
from orbitint.ratmap import MapSystem, parse_map
from orbitint.verify import random_system

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "orbitint").glob("*.py"))
RETIRED = {"OrbitRecord", "CensusReport"}
PLACE_SETS = [["inf"], ["inf", "p2"], ["inf", "p2", "p3"]]


def _trees(seed, count=6):
    """(system, point, depth) of small trees: two with repeated points (z^2
    and z^3 commute, and z^2 - 1 and z^3 take 0 back to 0), then random ones
    from points whose denominators are often S-units."""
    yield MapSystem([parse_map("z^2"), parse_map("z^3")]), normalize(2), 4
    yield MapSystem([parse_map("z^2-1"), parse_map("z^3")]), normalize(0), 4
    rng = random.Random(f"one-node-shape:{seed}")
    for _ in range(count):
        system = random_system(rng, k_max=2, max_degree=3)
        point = normalize(rng.randrange(-9, 10), rng.choice((1, 2, 3, 6)))
        yield system, point, {1: 6, 2: 4}[system.k]


def _first_pairs(pairs):
    """The pairs whose point no earlier pair has."""
    seen = set()
    return [(word, point) for word, point in pairs
            if not (point in seen or seen.add(point))]


@pytest.mark.parametrize("workers", [1, 2])
def test_enumerate_tree_is_the_walk(workers):
    for system, point, depth in _trees(workers):
        walked = list(walk_tree(system, point, depth))
        assert enumerate_tree(system, point, depth, workers=workers) == walked
        assert enumerate_tree(system, point, depth, dedupe=True, workers=workers) \
            == _first_pairs(walked)
        assert enumerate_tree(system, point, depth, workers=workers,
                              fold=lambda pairs: [len(word) for word, _ in pairs]) \
            == [len(word) for word, _ in walked]


@pytest.mark.parametrize("workers", [1, 2])
def test_census_hits_are_the_walk_pairs(workers):
    for trial, (system, point, depth) in enumerate(_trees(10 + workers)):
        s = PlaceSet.parse(PLACE_SETS[trial % len(PLACE_SETS)])
        expected = tuple(
            (word, node) for word, node in _first_pairs(walk_tree(system, point, depth))
            if word and not node.is_infinite and is_s_integer(Fraction(node.x, node.y), s))
        assert s_integral_census(system, point, s, depth, workers=workers) == expected


def test_no_module_defines_a_record_type():
    defined = set()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
                defined.add(node.name)
            elif isinstance(node, ast.Assign):
                defined.update(t.id for t in node.targets if isinstance(t, ast.Name))
    assert not defined & RETIRED
