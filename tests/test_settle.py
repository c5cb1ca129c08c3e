"""orbits.settle for any verdict: a child whose enclosure does not show it
within the bit cap is built and bit-checked as a walk with no test checks
it, the engine builds no value a verdict keeps, and a walk with no test
does no settle work."""

import random
from functools import partial

import pytest

from orbitint import orbits, polys
from orbitint.errors import WorkLimitExceeded
from orbitint.logvals import Deferred, deferred_atom
from orbitint.orbits import REFUSE, WorkLimits, enumerate_tree, settle, walk_tree
from orbitint.proj1 import ProjPoint, normalize
from orbitint.ratmap import MapSystem, parse_map
from orbitint.verify import random_point, random_system

PAIR = MapSystem([parse_map("z^2"), parse_map("z^3")])
BIG = normalize((1 << 1100) + 1)   # children of 2,201 and 3,301 bits under PAIR


def settles_everything(parent, phi, leaf, build):
    """A verdict that refuses no node and keeps nothing."""
    return None


class SettleAll:
    """A picklable test: the engine's settle with a verdict that refuses
    nothing, so each child it drops is one its boxes show within the cap."""

    def __call__(self, system, node, levels, limits):
        return settle(system, node, levels, limits, (64, polys.BOX_BITS), settles_everything)


def outcome(system, point, depth, limits, workers, test=None):
    """The walk's records, or the message and bit count it stopped with."""
    try:
        return enumerate_tree(system, point, depth, limits=limits, workers=workers, test=test)
    except WorkLimitExceeded as exc:
        return str(exc), exc.bits


@pytest.mark.parametrize("workers", [1, 2])
def test_an_over_cap_child_is_built_under_a_verdict_that_settles_all(workers):
    """Under a cap of 3,000 bits the root's first child is settled, and its
    second, of 3,301 bits, is built and stops the walk as it stops a walk
    with no test."""
    limits = WorkLimits(bit_cap=3000)
    assert SettleAll()(PAIR, BIG, 2, limits) == {1: None}
    stopped = outcome(PAIR, BIG, 2, limits, workers)
    assert stopped == ("orbit coordinate of 3301 bits exceeded the cap 3000", 3301)
    assert outcome(PAIR, BIG, 2, limits, workers, SettleAll()) == stopped


def test_settle_all_stops_where_a_walk_with_no_test_stops(monkeypatch):
    """With ENCLOSE_BITS 0 every node two levels above the leaves settles;
    under a cap one bit below a node of the last two levels, the walk with
    the test stops with the message and bits of the walk without, or, as
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


def keeps_unbuilt_atoms(parent, phi, leaf, build):
    """A verdict that keeps, at every node, an atom that fails when built."""
    atom = deferred_atom(parent.image(phi, 64, 64).size(), partial(pytest.fail, "built"))
    return REFUSE if atom is None else atom


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
        test = lambda *args: settle(*args, (64, 64), keeps_unbuilt_atoms)   # noqa: E731
        for depth in (1, 2, 4):
            for word, node in walk_tree(system, point, depth, test=test):
                if type(node) is tuple:
                    assert all(type(atom) is Deferred for atom in node)
                    kept += len(node)
    assert kept > 100


def test_a_walk_with_no_test_does_no_settle_work(monkeypatch):
    monkeypatch.setattr(polys, "ENCLOSE_BITS", 0)
    fail = lambda *args, **kwargs: pytest.fail("settle work")   # noqa: E731
    monkeypatch.setattr(orbits, "settle", fail)
    monkeypatch.setattr(orbits._Settled, "__init__", fail)
    monkeypatch.setattr(polys.Enclosure, "of", fail)
    for workers in (1, 2):
        records = enumerate_tree(PAIR, BIG, 3, workers=workers)
        assert len(records) == 15
        assert all(type(point) is ProjPoint for _, point in records)
