"""orbits.settle for any verdict: a child whose enclosure does not show it
within the bit cap is built and bit-checked as a walk with no verdict
checks it, the engine builds no value a verdict keeps, and a walk with no
verdict does no settle work."""

import random
from functools import partial

import pytest

from orbitint import orbits, polys
from orbitint.errors import WorkLimitExceeded
from orbitint.heights import LeafAtoms
from orbitint.integrality import NonUnitLeaves
from orbitint.logvals import Deferred, deferred_atom
from orbitint.orbits import REFUSE, WorkLimits, enumerate_tree, settle, walk_tree
from orbitint.places import PlaceSet, is_s_unit
from orbitint.proj1 import ProjPoint, normalize
from orbitint.ratmap import MapSystem, eval_point, parse_map
from orbitint.verify import random_point, random_system

PAIR = MapSystem([parse_map("z^2"), parse_map("z^3")])
BIG = normalize((1 << 1100) + 1)   # children of 2,201 and 3,301 bits under PAIR


class SettleAll:
    """A picklable verdict that refuses no node and keeps nothing, so each
    child the walk drops is one its boxes show within the cap."""

    bits = (64, polys.BOX_BITS)

    def __call__(self, parent, phi, leaf):
        return None


def outcome(system, point, depth, limits, workers, verdict=None):
    """The walk's records, or the message and bit count it stopped with."""
    try:
        return enumerate_tree(system, point, depth, limits=limits, workers=workers,
                              verdict=verdict)
    except WorkLimitExceeded as exc:
        return str(exc), exc.bits


@pytest.mark.parametrize("workers", [1, 2])
def test_an_over_cap_child_is_built_under_a_verdict_that_settles_all(workers):
    """Under a cap of 3,000 bits the root's first child is settled, and its
    second, of 3,301 bits, is built and stops the walk as it stops a walk
    with no verdict."""
    limits = WorkLimits(bit_cap=3000)
    assert settle(PAIR, BIG, 2, limits, SettleAll()) == {1: None}
    stopped = outcome(PAIR, BIG, 2, limits, workers)
    assert stopped == ("orbit coordinate of 3301 bits exceeded the cap 3000", 3301)
    assert outcome(PAIR, BIG, 2, limits, workers, SettleAll()) == stopped


def test_settle_all_stops_where_a_walk_with_no_test_stops(monkeypatch):
    """With ENCLOSE_BITS 0 every node two levels above the leaves settles;
    under a cap one bit below a node of the last two levels, the walk with
    the verdict stops with the message and bits of the walk without, or, as
    it does, goes to the end (a leaf is not bit-checked)."""
    monkeypatch.setattr(polys, "ENCLOSE_BITS", 0)
    rng = random.Random(719)
    stops = dropped = 0
    for _ in range(24):
        system = random_system(rng, k_max=3, max_degree=3)
        point = random_point(rng, 1 << 40)
        depth = {1: 5, 2: 4, 3: 3}[system.k]
        low = [WorkLimits.bits_of(node) for word, node in walk_tree(system, point, depth)
               if len(word) >= depth - 1]
        limits = WorkLimits(bit_cap=rng.choice(low) - 1)
        for workers in (1, 2):
            plain = outcome(system, point, depth, limits, workers)
            settled = outcome(system, point, depth, limits, workers, SettleAll())
            if type(plain) is tuple:
                assert settled == plain
                stops += 1
            else:
                dropped += len(settled) < len(plain)
    assert stops >= 10 and dropped >= 10


def keeps_unbuilt_atoms(parent, phi, leaf):
    """A verdict that keeps, at every node, an atom that fails when built."""
    atom = deferred_atom(parent.image(phi).size(), partial(pytest.fail, "built"))
    return REFUSE if atom is None else atom


keeps_unbuilt_atoms.bits = (64, 64)


def test_no_kept_value_is_built_in_the_engine(monkeypatch):
    """Stand-ins hold Deferreds at every node of a settled subtree; neither
    settle nor the walk builds or compares one."""
    monkeypatch.setattr(polys, "ENCLOSE_BITS", 0)
    monkeypatch.setattr(Deferred, "value", lambda self: pytest.fail("built"))
    rng = random.Random(727)
    kept = 0
    for _ in range(12):
        system = random_system(rng, k_max=2, max_degree=3)
        point = random_point(rng, 1 << 60)
        for depth in (1, 2, 4):
            for word, node in walk_tree(system, point, depth, verdict=keeps_unbuilt_atoms):
                if type(node) is tuple:
                    assert all(type(atom) is Deferred for atom in node)
                    kept += len(node)
    assert kept > 100


def test_a_walk_with_no_test_does_no_settle_work(monkeypatch):
    monkeypatch.setattr(polys, "ENCLOSE_BITS", 0)
    fail = lambda *args, **kwargs: pytest.fail("settle work")   # noqa: E731
    monkeypatch.setattr(orbits, "settle", fail)
    monkeypatch.setattr(orbits.Lineage, "__init__", fail)
    monkeypatch.setattr(polys.Enclosure, "of", fail)
    for workers in (1, 2):
        records = enumerate_tree(PAIR, BIG, 3, workers=workers)
        assert len(records) == 15
        assert all(type(point) is ProjPoint for _, point in records)


def exact_subtree(system, node, letter, levels):
    """(level under node, point) of the child at letter and every node under
    it down to the given level, each built exactly, in preorder."""
    child = eval_point(system.map_for_letter(letter), node)
    return [(len(word) + 1, point) for word, point in walk_tree(system, child, levels - 1)]


def test_settled_and_exact_decisions_agree_three_levels_up(monkeypatch):
    """With ENCLOSE_BITS 0 a node SETTLE_LEVELS = 3 levels above the leaves
    settles the children its chained boxes decide.  Each child the census
    settles has no S-unit point among its three levels, built exactly, and
    each child the system height settles stands for the exact atoms of its
    leaves, in preorder."""
    monkeypatch.setattr(polys, "ENCLOSE_BITS", 0)
    assert orbits.SETTLE_LEVELS == 3
    rng = random.Random(733)
    places = [["inf"], ["inf", "p2"], ["inf", "p2", "p3"], ["inf", "p2", "p5"]]
    census = height = 0
    for trial in range(24):
        system = random_system(rng, k_max=2, max_degree=3)
        point = random_point(rng, 1 << rng.choice((8, 40, 300)))
        s = PlaceSet.parse(places[trial % 4])
        exact = {letter: exact_subtree(system, point, letter, 3)
                 for letter in range(1, system.k + 1)}
        for letter, stand_in in settle(system, point, 3, WorkLimits(), NonUnitLeaves(s)).items():
            assert stand_in is None
            assert not any(not p.is_infinite and is_s_unit(p.y, s) for _, p in exact[letter])
            census += 1
        for letter, atoms in settle(system, point, 3, WorkLimits(), LeafAtoms(128)).items():
            leaves = [max(abs(p.x), abs(p.y)) for level, p in exact[letter] if level == 3]
            assert [atom.value() for atom in atoms] == leaves
            height += 1
    assert census >= 25 and height >= 25
