import random
import sys
from fractions import Fraction

import pytest

from orbitint.errors import WorkLimitExceeded
from orbitint.heights import canonical_height_system, system_bounds
from orbitint.cli import _orbit_rows
from orbitint.integrality import gamma_set
from orbitint.orbits import (Orbit, WorkLimits, enumerate_tree, find_cycle,
                             hypothesis_check, iterate_word)
from orbitint.places import PlaceSet
from orbitint import proj1
from orbitint.logvals import DEFAULT_PRECISION
from orbitint.proj1 import INFINITY, ZERO, ProjPoint, normalize
from orbitint.ratmap import MapSystem, make_map, parse_map
from orbitint.verify import random_point, random_system, random_word
from orbitint.words import Word


def test_iterate_word_examples(pair_system, z2):
    plus = make_map([1, 0, 1], [1])
    minus = make_map([-1, 0, 1], [1])
    system = MapSystem([plus, minus])
    points = list(iterate_word(Orbit(system, Word.finite([1, 2]), ZERO), 2))
    assert points == [ZERO, ProjPoint(1, 1), ZERO]

    assert list(iterate_word(Orbit(pair_system, Word.finite([]), normalize(2, 1)), 0)) \
        == [normalize(2, 1)]

    sq = MapSystem([z2])
    points = list(iterate_word(Orbit(sq, Word.finite([1, 1, 1]), normalize(2, 1)), 3))
    assert [p.x for p in points] == [2, 4, 16, 256]


def test_enumerate_tree_examples(pair_system):
    records = enumerate_tree(pair_system, normalize(2, 1), 2, dedupe=True)
    assert sorted(point.x for _, point in records) == [2, 4, 8, 16, 64, 512]
    by_x = {point.x: word for word, point in records}
    assert by_x[64] == (1, 2)  # first witness in preorder

    assert len(enumerate_tree(pair_system, normalize(2, 1), 0)) == 1

    ones = enumerate_tree(pair_system, ProjPoint(1, 1), 3, dedupe=True)
    assert ones == [((), ProjPoint(1, 1))]


def test_enumerate_tree_order_and_monotonicity(pair_system):
    full = enumerate_tree(pair_system, normalize(2, 1), 3)
    words = [word for word, _ in full]
    assert words == sorted(words)  # preorder = lexicographic with prefixes first
    assert len(full) == 1 + 2 + 4 + 8
    shallow = enumerate_tree(pair_system, normalize(2, 1), 2)
    assert [word for word, _ in shallow] == [w for w in words if len(w) <= 2]


def test_dedupe_is_set_image(pair_system):
    rng = random.Random(91)
    for _ in range(10):
        system = random_system(rng, 2, 3)
        p = random_point(rng, 20)
        full = enumerate_tree(system, p, 3)
        deduped = enumerate_tree(system, p, 3, dedupe=True)
        assert {point for _, point in full} == {point for _, point in deduped}
        assert len({point for _, point in deduped}) == len(deduped)


def test_workers_match_serial(pair_system):
    serial = enumerate_tree(pair_system, normalize(2, 1), 4)
    for workers in (2, 8):
        parallel = enumerate_tree(pair_system, normalize(2, 1), 4, workers=workers)
        assert parallel == serial


def test_work_limits():
    system = MapSystem([make_map([0, 0, 1], [1]), make_map([0, 0, 0, 1], [1])])
    with pytest.raises(WorkLimitExceeded):
        enumerate_tree(system, normalize(2, 1), 5, limits=WorkLimits(node_cap=10))
    with pytest.raises(WorkLimitExceeded):
        list(iterate_word(Orbit(system, Word.periodic([2]), normalize(2, 1)), 10,
                          limits=WorkLimits(bit_cap=64)))
    # A 101-bit root is checked before its children, for every worker count.
    big = normalize(2 ** 100 + 1, 1)
    for workers in (1, 2):
        with pytest.raises(WorkLimitExceeded) as tree_exc:
            enumerate_tree(system, big, 1, limits=WorkLimits(bit_cap=64), workers=workers)
        with pytest.raises(WorkLimitExceeded) as height_exc:
            canonical_height_system(system, big, depth=1,
                                    limits=WorkLimits(bit_cap=64), workers=workers)
        assert tree_exc.value.bits == height_exc.value.bits == 101


def test_node_cap_counts_every_node(pair_system):
    # k = 2, depth 4: 16 leaves fit under a cap of 20, but 31 nodes do not,
    # and both tree consumers evaluate all 31.
    limits = WorkLimits(node_cap=20)
    for workers in (1, 2):
        with pytest.raises(WorkLimitExceeded) as tree_exc:
            enumerate_tree(pair_system, normalize(2, 1), 4, limits=limits,
                           workers=workers)
        with pytest.raises(WorkLimitExceeded) as height_exc:
            canonical_height_system(pair_system, normalize(2, 1), depth=4,
                                    limits=limits, workers=workers)
        assert str(tree_exc.value) == str(height_exc.value)
        assert tree_exc.value.nodes == height_exc.value.nodes == 31
    for consumer in (enumerate_tree, canonical_height_system):
        with pytest.raises(ValueError, match="nonnegative"):
            consumer(pair_system, normalize(2, 1), -1)


class SkipLetters:
    """A picklable test that drops the same letters at every last-level
    node and nothing above it; it refuses to see a node over its bit limit."""

    def __init__(self, letters, max_bits=None):
        self.letters = frozenset(letters)
        self.max_bits = max_bits

    def __call__(self, system, node, levels, limits):
        assert self.max_bits is None or WorkLimits.bits_of(node) <= self.max_bits
        return dict.fromkeys(self.letters) if levels == 1 else {}


def test_skip_applies_at_the_last_level_only(pair_system):
    for depth in (1, 2, 4):
        full = enumerate_tree(pair_system, normalize(2, 1), depth)
        expected = [(w, p) for w, p in full if not (len(w) == depth and w[-1] == 1)]
        assert len(expected) == len(full) - 2 ** (depth - 1)
        for workers in (1, 2):
            assert enumerate_tree(pair_system, normalize(2, 1), depth, workers=workers,
                                  test=SkipLetters({1})) == expected


class SettleLetter:
    """A picklable test that settles the child of letter 1 at every node
    `level` levels above the leaves, with a stand-in for its subtree."""

    def __init__(self, level):
        self.level = level

    def __call__(self, system, node, levels, limits):
        return {1: "settled"} if levels == self.level else {}


def test_a_stand_in_is_yielded_and_never_expanded(pair_system):
    """At any level a stand-in takes its child's place in the walk and its
    subtree is not walked; one settled at the root's children is folded in
    this process, in letter order, under any worker count."""
    for depth in (2, 3, 4):
        full = enumerate_tree(pair_system, normalize(2, 1), depth)
        for level in sorted({1, 2, depth}):
            at = depth - level + 1   # the length of a settled child's word
            expected = [(w, "settled") if len(w) == at and w[-1] == 1
                        else (w, p) for w, p in full if not (len(w) > at and w[at - 1] == 1)]
            for workers in (1, 2):
                assert enumerate_tree(pair_system, normalize(2, 1), depth, workers=workers,
                                      test=SettleLetter(level)) == expected


def test_caps_count_and_check_skipped_leaves(pair_system):
    # The node cap counts leaves that are never built, and a last-level node
    # is bit-checked before the consumer's test sees it.
    big = normalize(2 ** 100 + 1, 1)
    for workers in (1, 2):
        with pytest.raises(WorkLimitExceeded) as exc:
            enumerate_tree(pair_system, normalize(2, 1), 4, workers=workers,
                           limits=WorkLimits(node_cap=20), test=SkipLetters({1, 2}))
        assert exc.value.nodes == 31
        with pytest.raises(WorkLimitExceeded) as exc:
            enumerate_tree(pair_system, big, 1, workers=workers,
                           limits=WorkLimits(bit_cap=64), test=SkipLetters({1, 2}, 64))
        assert exc.value.bits == 101


def test_hypothesis_check_examples(z2):
    report = hypothesis_check(MapSystem([z2]), INFINITY, 3)
    assert not report.repeated_point_free and not report.totally_ramified_free
    assert report.repeat_witness[2] == INFINITY
    assert report.ramified_witness[0] == 1 and report.ramified_witness[1] == INFINITY
    assert report.depth_checked == 3

    report = hypothesis_check(MapSystem([make_map([1, 0, 1], [0, 1])]), INFINITY, 3)
    assert not report.repeated_point_free and report.totally_ramified_free

    report = hypothesis_check(MapSystem([make_map([1], [0, 0, 1])]), INFINITY, 3)
    assert not report.repeated_point_free and not report.totally_ramified_free

    # From 1 the first totally ramified point is finite and deep; these are
    # the witnesses the synthetic-division index found, in the same preorder.
    for maps, ramified, repeat in (
            (["4z^2-4z+1", "1/(z^2+1)"], (1, ProjPoint(1, 2), (1, 1, 1, 2)),
             ((), (1,), ProjPoint(1, 1))),
            (["z^2+1", "z^2-4"], (1, ZERO, (1, 2)), ((), (1, 2, 1), ProjPoint(1, 1)))):
        report = hypothesis_check(MapSystem([parse_map(m) for m in maps]), normalize(1), 4)
        assert (report.ramified_witness, report.repeat_witness) == (ramified, repeat)


def test_hypothesis_witnesses_reverify(pair_system):
    rng = random.Random(97)
    from orbitint.ratmap import eval_point, is_totally_ramified

    for _ in range(10):
        system = random_system(rng, 2, 3)
        base = random_point(rng, 8)
        report = hypothesis_check(system, base, 3)
        if report.repeat_witness:
            w1, w2, pt = report.repeat_witness
            for word in (w1, w2):
                current = base
                for letter in word:
                    current = eval_point(system.map_for_letter(letter), current)
                assert current == pt
        if report.ramified_witness:
            idx, pt, _word = report.ramified_witness
            assert is_totally_ramified(system.maps[idx - 1], pt)


def _wanders(system, word, start):
    # No repeat of (point, phase), and a certified positive canonical height.
    record = gamma_set(system, word, PlaceSet.parse(["inf"]), INFINITY, start,
                       Fraction(1, 2), 12)
    return not record.preperiodic and record.height.lo_expr.sign() == 1


def test_preperiodicity_examples(z2, z2_minus_1):
    once = Word.periodic([1])
    orbit = Orbit(MapSystem([z2_minus_1]), once, ZERO)  # z^2 - 1: 0 -> -1 -> 0
    assert find_cycle(orbit, 32) == (0, 2)
    assert orbit.points == [ZERO, ProjPoint(-1, 1), ZERO]

    assert find_cycle(Orbit(MapSystem([z2]), once, normalize(2, 1)), 32) is None
    assert _wanders(MapSystem([z2]), once, normalize(2, 1))

    assert find_cycle(Orbit(MapSystem([z2]), once, ProjPoint(1, 1)), 32) == (0, 1)


def test_phase_matters_for_cycles():
    # The orbit 1 -> -1 -> -1 -> 5 -> 125 -> ... revisits -1 at mismatched
    # word phases; a bare-point cycle check would wrongly stop there, while
    # the (point, phase) check keeps going and certifies wandering.
    quad = make_map([0, -3, 2], [1])  # 2z^2 - 3z, sends 1 and -1 apart
    cube = make_map([0, 0, 0, 1], [1])
    system = MapSystem([quad, cube])
    word = Word.periodic([1, 2])
    points = list(iterate_word(Orbit(system, word, ProjPoint(1, 1)), 4))
    assert points[:3] == [ProjPoint(1, 1), ProjPoint(-1, 1), ProjPoint(-1, 1)]
    assert points[3] != ProjPoint(-1, 1)
    assert _wanders(system, word, ProjPoint(1, 1))


def test_height_growth_along_orbits():
    rng = random.Random(101)
    for _ in range(20):
        system = random_system(rng, 2, 3)
        word = random_word(rng, system.k, 3, periodic=True)
        p = random_point(rng, 30)
        bounds = system_bounds(system)
        points = list(iterate_word(Orbit(system, word, p), 5))
        for i in range(5):
            phi = system.map_for_letter(word.letter_at(i))
            b = bounds[word.letter_at(i) - 1]
            defect = points[i + 1].height() - points[i].height() * phi.degree
            # |h(phi P) - d h(P)| <= d * c(phi)
            cap = b.c * phi.degree
            assert (defect - cap).sign() <= 0
            assert (defect + cap).sign() >= 0


def test_csv_rows(pair_system):
    records = enumerate_tree(pair_system, normalize(2, 1), 1)
    rows = list(_orbit_rows(records, DEFAULT_PRECISION))
    assert rows[0][:4] == ("", 0, "2", "1")
    assert rows[1][:4] == ("1", 1, "4", "1")
    assert float(rows[1][4]) == pytest.approx(2 * 0.6931471805599453)


def test_tree_walk_never_calls_normalize(monkeypatch):
    # Orbit points are reduced by the map's resultant inside eval_point; the
    # full gcd of proj1.normalize is for points supplied by users.  Every
    # binding of normalize in the package is replaced, so a module that
    # imported it by name is counted too.
    calls = []
    original = proj1.normalize

    def counting_normalize(*args):
        calls.append(args)
        return original(*args)

    for name, module in list(sys.modules.items()):
        if name == "orbitint" or name.startswith("orbitint."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counting_normalize)
    system = MapSystem([parse_map("(z^2-1)/(z^2+1)"), parse_map("z^3-2")])
    records = enumerate_tree(system, ProjPoint(3, 1), 5)
    assert len(records) == 63 and calls == []
