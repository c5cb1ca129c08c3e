"""System-height leaves known by their enclosures: canonical_height_system
equals the exact-leaf formula (every leaf built, the two full log
expressions summed term by term in atom order), endpoint for endpoint, on
every path a leaf can take: enclosed, built because its rounding is not
decided, built because its enclosure meets another atom."""

import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from mpmath import iv
from mpmath.libmp import from_int, round_ceiling, round_floor, to_rational

from orbitint import heights, logvals, orbits, polys
from orbitint.config import parse_config
from orbitint.heights import _leaf_test, canonical_height_system, system_bounds
from orbitint.logvals import LogExpr
from orbitint.integrality import s_integral_census
from orbitint.orbits import WorkLimits, enumerate_tree, walk_tree
from orbitint.places import is_s_unit
from orbitint.proj1 import ProjPoint, normalize
from orbitint.ratmap import MapSystem, eval_point, make_map, parse_map
from orbitint.verify import random_point, random_system

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
PAIR = MapSystem([parse_map("z^2"), parse_map("z^3")])   # orbit_pair: z^2 z^3 = z^3 z^2


def load(name, point=None):
    raw = json.loads((CONFIGS / f"{name}.json").read_text(encoding="utf-8"))
    return parse_config(raw if point is None else {**raw, "point": point})


def reference_interval(expr, prec):
    """The enclosure of a LogExpr as summed before the shared routine: the
    constant, then each term's log box times its coefficient, in atom order."""
    old = iv.prec
    iv.prec = prec
    try:
        const = expr.const
        total = iv.mpf(const.numerator) / iv.mpf(const.denominator) if const else None
        for atom, coeff in expr.terms:
            term = iv.log(iv.mpf(atom))
            if coeff != 1:
                term = iv.mpf(coeff.numerator) / iv.mpf(coeff.denominator) * term
            total = term if total is None else total + term
        return iv.mpf(0) if total is None else total
    finally:
        iv.prec = old


def exact_leaf_exprs(system, point, depth, bounds):
    """(lo, hi) log expressions of the exact-leaf formula, every leaf built
    level by level with ratmap.eval_point."""
    k, big_d = system.k, system.degree_sum
    leaves = [point]
    for _ in range(depth):
        leaves = [eval_point(phi, p) for p in leaves for phi in system.maps]
    mid = LogExpr([term for p in leaves for term in p.height().terms]) * Fraction(1, big_d ** depth)
    sum_up = sum_down = LogExpr.zero()
    for b in bounds:
        sum_up, sum_down = sum_up + b.upper, sum_down + b.lower
    tail = Fraction(k ** depth, big_d ** depth) * Fraction(big_d, big_d - k) * Fraction(1, big_d)
    return mid - sum_down * tail, mid + sum_up * tail


def assert_exact_leaf_formula(system, point, depth, prec=128, workers=1, bounds=None):
    bounds = system_bounds(system) if bounds is None else bounds
    est = canonical_height_system(system, point, depth, bounds=bounds, prec=prec,
                                  workers=workers)
    lo_expr, hi_expr = exact_leaf_exprs(system, point, depth, bounds)
    lo_box, hi_box = reference_interval(lo_expr, prec), reference_interval(hi_expr, prec)
    assert est.lo_expr == LogExpr.constant(Fraction(*to_rational(lo_box._mpi_[0])))
    assert est.hi_expr == LogExpr.constant(Fraction(*to_rational(hi_box._mpi_[1])))
    lo = math.nextafter(math.nextafter(float(lo_box.a), -math.inf), -math.inf)
    hi = math.nextafter(math.nextafter(float(hi_box.b), math.inf), math.inf)
    assert (est.lo(prec), est.hi(prec)) == (max(0.0, lo), hi)
    return est


@pytest.fixture
def evaluations(monkeypatch):
    """The map evaluations since the last clear(), of the tree walks and of
    the enclosed leaves built (both in orbits)."""
    calls = []
    monkeypatch.setattr(orbits, "eval_point",
                        lambda *args: calls.append(1) or eval_point(*args))
    return calls


@pytest.fixture
def overlaps(monkeypatch):
    """The enclosed leaves built since the last clear(): their Deferred
    enclosure met another atom or did not decide the prec-bit box."""
    found = []
    real = orbits._Settled.build
    monkeypatch.setattr(orbits._Settled, "build",
                        lambda self, path: found.append((self, path)) or real(self, path))
    return found


def test_random_trees_with_the_threshold_lifted(monkeypatch, evaluations):
    """With ENCLOSE_BITS 0 every leaf is enclosed first, at nodes small enough
    that the box is the point itself and at nodes past 4 * prec bits."""
    monkeypatch.setattr(polys, "ENCLOSE_BITS", 0)
    enclosed = 0
    for seed in range(8):
        rng = random.Random(f"system-leaves:{seed}")
        system = random_system(rng, k_max=2, max_degree=3)
        point = random_point(rng, 50)
        depth = 6 + seed % 4 if system.k == 1 or seed % 4 < 2 else 6
        evaluations.clear()
        assert_exact_leaf_formula(system, point, depth)
        enclosed += len(evaluations) < orbits._tree_size(system.k, depth) - 1
    assert enclosed >= 6


@pytest.mark.parametrize("prec", [53, 128])
@pytest.mark.parametrize("workers", [1, 2])
def test_settled_subtrees_on_random_trees(monkeypatch, workers, prec):
    """With ENCLOSE_BITS 0 every node two levels above the leaves settles
    the children whose leaves its chained enclosures bound.  Half the roots
    are near 2^300, so at precision 53 the leaf atoms sit near a 53-bit
    float, below what their 212-bit boxes resolve: those boxes are not
    decided, and the leaves are built along their two-letter paths.  Two
    workers make the same builds, since every build runs in this process,
    also for an atom that a worker settled."""
    monkeypatch.setattr(polys, "ENCLOSE_BITS", 0)
    built, real = [], orbits._Settled._image
    monkeypatch.setattr(orbits._Settled, "_image",
                        lambda self, path: built.append(1) or real(self, path))
    for seed in range(16):
        rng = random.Random(f"settled-subtrees:{seed}")
        system = random_system(rng, k_max=2, max_degree=3)
        point = (random_point(rng, 1 << 300) if seed % 2 else
                 normalize((1 << 300) + rng.randrange(1, 256), rng.randrange(1, 256)))
        assert_exact_leaf_formula(system, point, 2 + seed % 4, prec, workers)
    assert len(built) == {53: 63, 128: 4}[prec]


def test_bit_cap_under_settled_parents(tmp_path, capsys, evaluations):
    """A last-level node is settled only when its box shows it within the
    bit cap.  With the cap one bit under bounds_mixed's largest level-10
    node at depth 11, that node is built and the run exits 3 naming it, as
    a walk that builds every node does.  With the cap at the largest bit
    length those boxes allow, the walk builds no enclosed level-10 node:
    the run makes the evaluations it makes under the default cap, where
    only the 7 level-10 nodes on the paths of built leaves are built."""
    from orbitint.cli import main

    config = load("bounds_mixed")
    largest = max(WorkLimits.bits_of(node)
                  for word, node in walk_tree(config.system, config.point, 10) if len(word) == 10)
    raw = json.loads((CONFIGS / "bounds_mixed.json").read_text(encoding="utf-8"))
    cfg = tmp_path / "capped.json"
    cfg.write_text(json.dumps({**raw, "workLimits": {"bitCap": largest - 1}}), encoding="utf-8")
    capsys.readouterr()
    assert main(["system-height", "--config", str(cfg), "--depth", "11",
                 "--out", str(tmp_path / "reports")]) == 3
    assert json.loads(capsys.readouterr().err.splitlines()[-1]) == {
        "error": f"orbit coordinate of {largest} bits exceeded the cap {largest - 1}",
        "kind": "work-limit"}

    bits, boxes, small = heights.BOX_PER_PREC * config.precision_bits, [], 0
    for word, node in walk_tree(config.system, config.point, 9):
        if len(word) < 9:
            continue
        if WorkLimits.bits_of(node) < polys.ENCLOSE_BITS:
            small += 1
            continue
        box = polys.Enclosure.of(node.x, node.y, bits, bits)
        for phi in config.system.maps:
            _, hi, e = box.image(phi, bits, bits).size()
            boxes.append(hi.bit_length() + e)
    assert max(boxes) >= largest and small == 8
    evaluations.clear()
    est = canonical_height_system(config.system, config.point, 11,
                                  bounds=system_bounds(config.system, config.c_mode),
                                  limits=WorkLimits(bit_cap=max(boxes)),
                                  prec=config.precision_bits)
    assert len(evaluations) == orbits._tree_size(2, 9) - 1 + 2 * small + 7 + 8
    assert (est.lo(config.precision_bits), est.hi(config.precision_bits)) == (
        0.9888479494173272, 0.9889117636302506)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.json")), ids=lambda p: p.stem)
def test_shipped_configs_at_depth_9(path, workers):
    config = load(path.stem)
    assert_exact_leaf_formula(config.system, config.point, 9, config.precision_bits,
                              workers, system_bounds(config.system, config.c_mode))


def test_enclosed_boxes_are_the_leaf_boxes():
    """Every prec box of an atom _leaf_test returns is iv.mpf of the built
    leaf's atom; an atom whose box is not decided is built as that atom."""
    rng = random.Random(613)
    kept = 0
    for trial in range(40):
        system = random_system(rng, k_max=3, max_degree=4)
        prec = (53, 128, 256)[trial % 3]
        for node in (random_point(rng, 1 << 3000), random_point(rng, 1 << 1100)):
            for letter, (enclosed,) in _leaf_test(prec, system, node, 1, WorkLimits()).items():
                leaf = eval_point(system.map_for_letter(letter), node)
                atom = max(abs(leaf.x), abs(leaf.y))
                box = enclosed.box(prec)
                if type(box) is int:
                    assert box == atom
                    continue
                assert box == (from_int(atom, prec, round_floor),
                               from_int(atom, prec, round_ceiling))
                kept += 1
    assert kept > 100


def test_power_of_two_atoms_are_enclosed(evaluations, overlaps):
    """A coordinate whose dropped bits are all 0 keeps a box of width 0, so a
    power of 2 is enclosed exactly: its leaf is built only when it has a
    twin.  From 2, every node past depth 9 has more than 1,024 bits, and so
    do some at depth 9, whose children are settled.  Under PAIR every leaf
    but the two pure powers has a twin, so every other node is built once;
    under doubling only 2^1023, of 1,024 bits, settles its two children."""
    doubling = MapSystem([parse_map("z^2"), make_map([0, 0, 2], [1])])  # no twins
    for system, exponents, built, evaluated in (
            (PAIR, (6000, 9000), 2 ** 11 - 2, orbits._tree_size(2, 11) - 1 - 2),
            (doubling, (6000, 6001), 0, orbits._tree_size(2, 10) - 1 - 2)):
        boxes = {letter: atom.box(128)
                 for letter, (atom,) in _leaf_test(128, system, ProjPoint(1 << 3000, 1), 1, WorkLimits()).items()}
        assert boxes == {letter: (from_int(1 << e, 128, round_floor),
                                  from_int(1 << e, 128, round_ceiling))
                         for letter, e in enumerate(exponents, start=1)}
        evaluations.clear()
        overlaps.clear()
        assert_exact_leaf_formula(system, normalize(2), 11)
        assert len(overlaps) == built
        assert len(evaluations) == evaluated


def test_twins_across_parents_are_built_once(evaluations, overlaps):
    """z^2 and z^3 commute, so every leaf whose word mixes both letters has
    a twin under another parent: their boxes meet and both are built, each
    node still evaluated at most once."""
    evaluations.clear()
    assert_exact_leaf_formula(PAIR, normalize(Fraction(5, 3)), 11)
    assert len(overlaps) > 1_000
    assert len(evaluations) <= orbits._tree_size(2, 11) - 1


def test_common_factor_of_the_resultant():
    """(z^2 - 1)/(z^2 + 1) has R = 4: at x and y both odd, F and G are even
    and the leaf is [F/2 : G/2]; its box is still the built leaf's."""
    config = load("bounds_mixed")
    phi = config.system.maps[0]
    seen = 0
    for word, node in walk_tree(config.system, config.point, 8):
        if node.x % 2 and node.y % 2 and WorkLimits.bits_of(node) >= 1024:
            u, v = phi.homogeneous(node.x, node.y)
            assert math.gcd(u, v) == 2
            leaf = eval_point(phi, node)
            box = _leaf_test(128, config.system, node, 1, WorkLimits())[1][0].box(128)
            atom = max(abs(leaf.x), abs(leaf.y))
            assert box == (from_int(atom, 128, round_floor), from_int(atom, 128, round_ceiling))
            seen += 1
    assert seen >= 10
    for point in ("3", "3/2", "-3"):
        assert_exact_leaf_formula(config.system, load("bounds_mixed", point).point, 10)


def test_leaf_atom_equal_to_a_tail_atom(monkeypatch, overlaps):
    """z^2 + 1 puts log 2 in the tail (two terms of coefficient 1), and its
    leaf from 1 is [2 : 1]: the two atoms merge, so the leaf is built."""
    monkeypatch.setattr(polys, "ENCLOSE_BITS", 0)
    system = MapSystem([parse_map("z^2+1"), parse_map("z^2-2")])
    assert 2 in {atom for atom, _ in system_bounds(system)[0].upper.terms}
    for depth in (1, 2, 3):
        overlaps.clear()
        assert_exact_leaf_formula(system, normalize(1), depth)
        assert overlaps


@pytest.mark.parametrize("point, lo, hi", [
    ("3", 0.9888479494173272, 0.9889117636302506),
    ("3/2", 0.9985697803315452, 0.9986335945444685),
])
def test_the_settle_reads_the_exact_enclosures(evaluations, overlaps, point, lo, hi):
    """Whether a leaf meets another atom is tested on its exact enclosure,
    finer than its 128-bit box: bounds_mixed at depth 11 builds 8 of its
    2,048 enclosed leaves (a test on the boxes built 24 from 3 and 30 from
    3/2), and lo and hi are those of every leaf built.  Levels 1-9 are
    built; a level-10 node is built by the walk only under one of the small
    level-9 nodes (under 1,024 bits), and otherwise only on the path of a
    built leaf: the 8 leaves lie under 7 level-10 nodes."""
    config = load("bounds_mixed", point)
    small = sum(len(word) == 9 and WorkLimits.bits_of(node) < polys.ENCLOSE_BITS
                for word, node in walk_tree(config.system, config.point, 9))
    evaluations.clear()
    est = canonical_height_system(config.system, config.point, 11,
                                  bounds=system_bounds(config.system, config.c_mode),
                                  prec=config.precision_bits)
    assert len(overlaps) == 8 and len({(id(held), path[:-1]) for held, path in overlaps}) == 7
    assert len(evaluations) == orbits._tree_size(2, 9) - 1 + 2 * small + 7 + 8 == {
        "3": 1_053, "3/2": 1_041}[point]
    assert (est.lo(config.precision_bits), est.hi(config.precision_bits)) == (lo, hi)


def test_sibling_leaves_share_one_table(monkeypatch):
    """The settled leaves under one node are built from one polys.Monomials
    per point on their paths, made on the first build there: a node with no
    leaf built makes none, both leaves of a node make one between them, and
    a settled child is built once for both its leaves.  bounds_mixed at
    depth 11 from 3 builds 8 leaves under 7 level-10 nodes under 4 level-9
    nodes, so 11 tables."""
    made = []
    real_table = polys.Monomials
    monkeypatch.setattr(polys, "Monomials",
                        lambda x, y: made.append((x, y)) or real_table(x, y))
    node = ProjPoint(3 ** 2000, 2 ** 1500)
    atoms = _leaf_test(128, PAIR, node, 1, WorkLimits())
    assert sorted(atoms) == [1, 2] and made == []
    assert (atoms[1][0].value(), atoms[2][0].value()) == (3 ** 4000, 3 ** 6000)
    assert made == [(node.x, node.y)]

    made.clear()
    subtrees = _leaf_test(128, PAIR, node, 2, WorkLimits())
    assert sorted(subtrees) == [1, 2] and made == []
    assert [atom.value() for atom in subtrees[1]] == [3 ** 8000, 3 ** 12000]
    assert made == [(node.x, node.y), (3 ** 4000, 2 ** 3000)]
    assert subtrees[2][1].value() == 3 ** 18000
    assert made[2:] == [(3 ** 6000, 2 ** 4500)]

    builds, real_build = [], orbits._Settled.build

    def build(self, path):
        before = len(made)
        point = real_build(self, path)
        builds.append((id(self), path, len(made) - before))
        return point

    monkeypatch.setattr(orbits._Settled, "build", build)
    config = load("bounds_mixed", "3")
    canonical_height_system(config.system, config.point, 11,
                            bounds=system_bounds(config.system, config.c_mode),
                            prec=config.precision_bits)
    assert len(builds) == 8 and {len(path) for _, path, _ in builds} == {2}
    assert len({held for held, _, _ in builds}) == 4
    assert len({(held, path[0]) for held, path, _ in builds}) == 7
    assert sum(count for _, _, count in builds) == 4 + 7


@pytest.mark.parametrize("lifted", [False, True])
@pytest.mark.parametrize("depth", [0, 1])
def test_depths_0_and_1(monkeypatch, lifted, depth):
    if lifted:
        monkeypatch.setattr(polys, "ENCLOSE_BITS", 0)
    big = normalize((1 << 1500) + 7, (1 << 1499) + 3)
    for system, point in ((PAIR, normalize(Fraction(5, 3))),
                          (load("bounds_mixed").system, big),
                          (load("census_hypothesis_pair").system, normalize(Fraction(1, 2))),
                          (PAIR, ProjPoint(1, 0))):
        for workers in (1, 2):
            assert_exact_leaf_formula(system, point, depth, workers=workers)


# Roots of 1,110 bits on bounds_mixed: the consumers' tests run at the root
# itself, at level 1 (depth 1) and level 2 (depth 2).  Evaluation counts are
# pinned as the walks that expanded the last level themselves made them; a
# 2-worker run counts only the root's expansion, made in this process, and
# the settled children the root's test gives, folded here.  At depth 2 the
# system height settles both children, so it builds no node.
LARGE_ROOTS = {"fraction": normalize(Fraction(3 ** 700 + 2, 5 ** 400)),
               "integer": normalize(3 ** 700 + 2)}
ROOT_COUNTS = {   # (root, depth, workers): (height evaluations, census evaluations, hits)
    ("fraction", 0, 1): (0, 0, 0), ("fraction", 1, 1): (0, 0, 0), ("fraction", 2, 1): (0, 0, 0),
    ("integer", 0, 1): (0, 0, 0), ("integer", 1, 1): (0, 1, 1), ("integer", 2, 1): (0, 2, 2),
    ("fraction", 0, 2): (0, 0, 0), ("fraction", 1, 2): (0, 0, 0), ("fraction", 2, 2): (0, 0, 0),
    ("integer", 0, 2): (0, 0, 0), ("integer", 1, 2): (0, 1, 1), ("integer", 2, 2): (0, 1, 2),
}


@pytest.mark.parametrize("root, depth, workers", sorted(ROOT_COUNTS))
def test_stand_ins_at_a_large_root(evaluations, root, depth, workers):
    config, point = load("bounds_mixed"), LARGE_ROOTS[root]
    assert WorkLimits.bits_of(point) == 1110
    evaluations.clear()
    assert_exact_leaf_formula(config.system, point, depth, config.precision_bits, workers,
                              system_bounds(config.system, config.c_mode))
    height_calls = len(evaluations)
    expected = tuple((word, node) for word, node in enumerate_tree(config.system, point, depth,
                                                                   dedupe=True)
                     if word and not node.is_infinite and is_s_unit(node.y, config.places))
    evaluations.clear()
    hits = s_integral_census(config.system, point, config.places, depth, workers=workers)
    assert hits == expected
    assert (height_calls, len(evaluations), len(hits)) == ROOT_COUNTS[root, depth, workers]


def test_one_log_per_atom(monkeypatch):
    """lo and hi share every leaf's log box: iv.log runs once per distinct
    atom of the two expressions, leaf atoms and tail atoms together."""
    monkeypatch.setattr(polys, "ENCLOSE_BITS", 0)
    config = load("bounds_mixed")
    bounds = system_bounds(config.system)
    lo_expr, hi_expr = exact_leaf_exprs(config.system, config.point, 6, bounds)
    atoms = {atom for atom, _ in lo_expr.terms + hi_expr.terms}
    calls = []
    real = iv.log
    monkeypatch.setattr(logvals.iv, "log", lambda box: calls.append(1) or real(box))
    canonical_height_system(config.system, config.point, 6, bounds=bounds)
    assert len(calls) == len(atoms) < len(lo_expr.terms) + len(hi_expr.terms)
