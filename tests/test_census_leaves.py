"""The census's leaf test: a leaf it rules out is never an S-unit point, and
the census with the test equals its definition, the deduplicated tree
filtered by is_s_unit, pair for pair."""

import json
import random
from pathlib import Path

import pytest

from orbitint import orbits, polys
from orbitint.cli import _record_json, main
from orbitint.config import parse_config
from orbitint.integrality import NonUnitLeaves, s_integral_census
from orbitint.orbits import WorkLimits, enumerate_tree, settle
from orbitint.places import PlaceSet, is_s_unit
from orbitint.proj1 import INFINITY, ProjPoint, normalize
from orbitint.ratmap import MapSystem, eval_point, make_map, parse_map
from orbitint.verify import random_point, random_system

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
PLACE_SETS = [["inf"], ["inf", "p2"], ["inf", "p2", "p3"], ["inf", "p2", "p5"]]


def definition(system, point, s, depth):
    """The census as defined: every node built, deduplicated, filtered."""
    return [(word, node) for word, node in enumerate_tree(system, point, depth, dedupe=True)
            if word and not node.is_infinite and is_s_unit(node.y, s)]


def assert_sound(system, node, s):
    """Every letter the test rules out has a leaf that is not an S-unit
    point; returns the ruled-out letters."""
    out = set(settle(system, node, 1, WorkLimits(), NonUnitLeaves(s)))
    for letter in out:
        leaf = eval_point(system.map_for_letter(letter), node)
        assert not leaf.is_infinite and not is_s_unit(leaf.y, s), (node, letter)
    return out


def pell(bits):
    """[x : y] with x^2 - 2y^2 = +-1 and x above the given size."""
    x, y = 3, 2
    while x.bit_length() <= bits:
        x, y = 3 * x + 4 * y, 2 * x + 3 * y
    return ProjPoint(x, y)


def test_census_equals_definition_on_random_systems(monkeypatch):
    calls = []
    monkeypatch.setattr(orbits, "eval_point",
                        lambda *args: calls.append(1) or eval_point(*args))
    screened = 0
    for seed in range(8):
        rng = random.Random(f"census-leaves:{seed}")
        system = random_system(rng, k_max=2, max_degree=3)
        point = random_point(rng)
        depth = {1: 8, 2: 7}[system.k] + rng.randrange(-1, 2)
        s = PlaceSet.parse(PLACE_SETS[seed % 4])
        expected = definition(system, point, s, depth)
        calls.clear()
        assert s_integral_census(system, point, s, depth) == tuple(expected)
        screened += len(calls) < orbits._tree_size(system.k, depth) - 1
    # Most trees have leaves the test rules out (an orbit of integers has
    # none: every leaf is a hit).
    assert screened >= 6


@pytest.mark.parametrize("names", PLACE_SETS)
def test_census_equals_definition_for_each_place_set(names):
    s = PlaceSet.parse(names)
    for text, point in (("bounds_mixed", normalize(-3)),
                        ("census_hypothesis_pair", normalize(1, 2))):
        config = parse_config(json.loads((CONFIGS / f"{text}.json").read_text(encoding="utf-8")))
        assert s_integral_census(config.system, point, s, 8) \
            == tuple(definition(config.system, point, s, 8))


def test_every_node_is_screened_when_the_threshold_is_lifted(monkeypatch):
    """With ENCLOSE_BITS 0 the test runs at small nodes too, where the box is
    the point itself: zeros of G, R = 1 and negative x all occur."""
    monkeypatch.setattr(polys, "ENCLOSE_BITS", 0)
    rng = random.Random(401)
    for trial in range(12):
        system = random_system(rng, k_max=2, max_degree=3)
        point = normalize(rng.randrange(-30, 31), rng.randrange(1, 8))
        s = PlaceSet.parse(PLACE_SETS[trial % 4])
        depth = 6 if system.k == 2 else 8
        assert s_integral_census(system, point, s, depth) \
            == tuple(definition(system, point, s, depth))


def test_ruled_out_leaves_are_never_s_units():
    rng = random.Random(409)
    for _ in range(30):
        system = random_system(rng, k_max=3, max_degree=4)
        s = PlaceSet.parse(rng.choice(PLACE_SETS))
        for node in (random_point(rng, 1 << 3000), random_point(rng, 1 << 1100)):
            assert_sound(system, node, s)
            assert_sound(system, normalize(-node.x, node.y or 1), s)


def test_leaf_at_infinity_is_kept():
    # G = y(y0 x - x0 y) vanishes at the node [x0 : y0], whose child is inf.
    x0, y0 = (1 << 1500) + 1, (1 << 1499) + 3
    system = MapSystem([make_map([0, 0, 1], [-x0, y0])])
    node = normalize(x0, y0)
    assert eval_point(system.maps[0], node) == INFINITY
    assert assert_sound(system, node, PlaceSet.parse(["inf"])) == set()


def test_resultant_one_and_negative_x():
    # z^3 - 2 has G = y^3 and R = 1: the leaf is an S-unit exactly when y is.
    system = MapSystem([parse_map("z^3-2")])
    assert system.maps[0].resultant == 1
    s = PlaceSet.parse(["inf", "p2"])
    odd = (1 << 1200) + 1
    assert assert_sound(system, ProjPoint(-(3 ** 800), odd), s) == {1}
    assert assert_sound(system, ProjPoint(-(3 ** 800), 1 << 1200), s) == set()
    assert assert_sound(system, ProjPoint(3 ** 800 + 2, 1), s) == set()


def test_common_factor_of_the_resultant():
    # (z^2 + 2)/3 has G = 3y^2 and R = 9.  At x = 5^500, y = 2^600, 3 divides
    # F = x^2 + 2y^2 too, so the leaf's denominator is y^2, a 2-unit, though
    # |G| exceeds its 2-part: only the factor R keeps the leaf.
    system = MapSystem([parse_map("(z^2+2)/3")])
    node = ProjPoint(5 ** 500, 1 << 600)
    s = PlaceSet.parse(["inf", "p2"])
    assert system.maps[0].resultant == 9
    assert eval_point(system.maps[0], node).y == 1 << 1200
    assert assert_sound(system, node, s) == set()
    assert assert_sound(system, ProjPoint(5 ** 500, 3 ** 20 << 600), s) == {1}


def test_two_adic_valuation_past_the_first_residue():
    # (z^2 + 1)/z has G = xy and R = 1; y = 2^1200 puts G in 2^64 Z, so the
    # residue test doubles its digits until it reads v_2(G) = 1200.
    system = MapSystem([parse_map("(z^2+1)/z")])
    node = ProjPoint(5 ** 500, 1 << 1200)
    assert assert_sound(system, node, PlaceSet.parse(["inf", "p2", "p5"])) == set()
    assert assert_sound(system, node, PlaceSet.parse(["inf", "p2"])) == {1}
    assert assert_sound(system, ProjPoint(1001 * 5 ** 500, 1 << 1200),
                        PlaceSet.parse(["inf", "p2", "p5"])) == {1}


def test_enclosure_straddling_zero_keeps_the_leaf():
    # G = x^2 - 2y^2 is +-1 at a Pell point: the top-bit box contains 0, and
    # the leaf, with denominator 1, is a hit.
    system = MapSystem([parse_map("(z^2+1)/(z^2-2)")])
    node = pell(1100)
    s = PlaceSet.parse(["inf"])
    assert assert_sound(system, node, s) == set()
    assert is_s_unit(eval_point(system.maps[0], node).y, s)


@pytest.mark.parametrize("swap", [False, True])
def test_leaves_past_a_coordinate_gap_of_2048_bits_are_ruled_out_unbuilt(monkeypatch, swap):
    """At a node whose coordinates differ by over 2,048 bits, the census box
    keeps TOP_BITS bits of the smaller coordinate at its own exponent, so
    the bounds of G = XY and G = XY^2 exclude 0 and both leaves are ruled
    out unbuilt.  A box of one shared exponent kept no bit of the smaller
    coordinate, its bounds on G contained 0, and both leaves were built."""
    config = parse_config(json.loads((CONFIGS / "census_hypothesis_pair.json").read_text(
        encoding="utf-8")))
    x, y = 3 ** 3200 + 2, 7 ** 700
    assert x.bit_length() - y.bit_length() > 3000
    node = ProjPoint(y, x) if swap else ProjPoint(x, y)
    assert assert_sound(config.system, node, config.places) == {1, 2}
    calls = []
    monkeypatch.setattr(orbits, "eval_point",
                        lambda *args: calls.append(1) or eval_point(*args))
    assert s_integral_census(config.system, node, config.places, 1) == ()
    assert calls == []


def test_bounds_mixed_census_builds_few_leaves(monkeypatch):
    config = parse_config(json.loads((CONFIGS / "bounds_mixed.json").read_text(encoding="utf-8")))
    expected = definition(config.system, normalize(3), config.places, 11)
    calls = []
    monkeypatch.setattr(orbits, "eval_point",
                        lambda *args: calls.append(1) or eval_point(*args))
    hits = s_integral_census(config.system, normalize(3), config.places, 11)
    assert len(hits) == 11 and hits == tuple(expected)
    assert len(calls) <= 2_100  # 4,094 with every leaf built


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.json")), ids=lambda p: p.stem)
def test_census_at_depth_9_on_shipped_configs(path, workers, tmp_path):
    raw = json.loads(path.read_text(encoding="utf-8"))
    raw.pop("boundParameters", None)  # the hits alone, without the hmin scan
    config = parse_config({**raw, "depth": 9})
    cfg = tmp_path / path.name
    cfg.write_text(json.dumps(config.raw), encoding="utf-8")
    out = tmp_path / "reports"
    assert main(["census", "--config", str(cfg), "--out", str(out),
                 "--workers", str(workers)]) == 0
    report = json.loads(next(out.glob("census_*.json")).read_text(encoding="utf-8"))
    expected = definition(config.system, config.point, config.places, 9)
    assert report["hits"] == [_record_json(word, point) for word, point in expected]
    assert report["count"] == len(expected)


def assert_twigs_sound(system, node, s, limits=WorkLimits()):
    """Every letter the twig test rules out has a child within the cap that
    is not an S-unit point and has no S-unit leaf; returns the letters."""
    screen = NonUnitLeaves(s)
    out = set(settle(system, node, 2, limits, screen))
    assert out <= set(settle(system, node, 1, limits, screen))
    for letter in out:
        child = eval_point(system.map_for_letter(letter), node)
        assert limits.fits_bits(limits.bits_of(child)), (node, letter)
        assert not is_s_unit(child.y, s), (node, letter)
        for phi in system.maps:
            leaf = eval_point(phi, child)
            assert not leaf.is_infinite and not is_s_unit(leaf.y, s), (node, letter)
    return out


def census_matches_at_depth_2(system, node, s, monkeypatch):
    """From the node as root, the census equals its definition for both
    worker counts, and with 2 workers the root's expansion, the one part
    this process evaluates, builds only the children the twig test keeps."""
    expected = tuple(definition(system, node, s, 2))
    calls = []
    monkeypatch.setattr(orbits, "eval_point",
                        lambda *args: calls.append(1) or eval_point(*args))
    for workers in (1, 2):
        calls.clear()
        assert s_integral_census(system, node, s, 2, workers=workers) == expected
    assert len(calls) == system.k - len(settle(system, node, 2, WorkLimits(), NonUnitLeaves(s)))
    return expected


def test_ruled_out_twigs_are_sound():
    rng = random.Random(419)
    ruled_out = 0
    for _ in range(30):
        system = random_system(rng, k_max=3, max_degree=3)
        s = PlaceSet.parse(rng.choice(PLACE_SETS))
        for node in (random_point(rng, 1 << 1500), random_point(rng, 1 << 1100)):
            ruled_out += len(assert_twigs_sound(system, node, s))
    assert ruled_out >= 20


def test_twig_test_lifted_to_every_node_for_both_worker_counts(monkeypatch):
    """With ENCLOSE_BITS 0 the twig test runs at every node two levels above
    the leaves, and the census still equals its definition."""
    monkeypatch.setattr(polys, "ENCLOSE_BITS", 0)
    calls = []
    monkeypatch.setattr(orbits, "eval_point",
                        lambda *args: calls.append(1) or eval_point(*args))
    rng = random.Random(421)
    twigged = 0
    for trial in range(24):
        system = random_system(rng, k_max=3, max_degree=3)
        point = normalize(rng.randrange(-30, 31), rng.randrange(1, 8))
        s = PlaceSet.parse(PLACE_SETS[trial % 4])
        depth = {1: 8, 2: 6, 3: 4}[system.k]
        expected = tuple(definition(system, point, s, depth))
        for workers in (2, 1):
            calls.clear()
            assert s_integral_census(system, point, s, depth, workers=workers) == expected
        built = len(calls)   # the serial run's: the counter sees no worker
        calls.clear()
        # The leaf test alone: the census's verdict settles at the last level only.
        with monkeypatch.context() as leaves_only:
            leaves_only.setattr(orbits, "SETTLE_LEVELS", 1)
            enumerate_tree(system, point, depth, dedupe=True, verdict=NonUnitLeaves(s))
        twigged += built < len(calls)
    assert twigged >= 8


def test_child_that_is_a_hit_is_built(monkeypatch):
    # z^3 - 2 (letter 2: maps are sorted by degree) maps an integer to an
    # integer: the child is a hit, so the leaf test keeps it and the twig
    # test never sees it.
    system = MapSystem([parse_map("z^3-2"), parse_map("1/(z^2+1)")])
    node = ProjPoint(3 ** 700 + 2, 1)
    s = PlaceSet.parse(["inf", "p2"])
    assert assert_twigs_sound(system, node, s) == {1}
    assert ((2,), eval_point(system.maps[1], node)) in \
        census_matches_at_depth_2(system, node, s, monkeypatch)


def test_child_whose_leaf_straddles_zero_is_built(monkeypatch):
    # Newton's map (z^2 + 2)/(2z) takes a Pell point to the next one, whose
    # leaf under (z^2 + 1)/(z^2 - 2) has G = +-1: over the child's box G
    # straddles 0, so the child is built, and that leaf is a hit.
    system = MapSystem([parse_map("(z^2+2)/(2z)"), parse_map("(z^2+1)/(z^2-2)")])
    node = pell(1100)
    s = PlaceSet.parse(["inf"])
    assert 1 in settle(system, node, 1, WorkLimits(), NonUnitLeaves(s))
    assert 1 not in assert_twigs_sound(system, node, s)
    assert (1, 2) in [word for word, _ in census_matches_at_depth_2(system, node, s, monkeypatch)]


def test_child_under_a_common_factor_divisible_by_p_is_built(monkeypatch):
    # (z^2 + 2)/3 at [a : b] with a^2 + 2b^2 = 3^n has g = 3: the child is
    # [3^(n-1) : b^2], read mod 3^K from the node mod 3^(K+1).  Its leaf
    # under 1/z^2 is [b^4 : 3^(2n-2)], a hit for S = {inf, 3}.
    a, b = 1, 1
    for _ in range(1299):
        a, b = a - 2 * b, a + b          # (a + b sqrt(-2)) (1 + sqrt(-2))
    system = MapSystem([parse_map("(z^2+2)/3"), parse_map("1/z^2")])
    node = normalize(a, b)
    s = PlaceSet.parse(["inf", "p3"])
    assert a * a + 2 * b * b == 3 ** 1300 and WorkLimits.bits_of(node) >= 1024
    assert eval_point(system.maps[0], node) == ProjPoint(3 ** 1299, b * b)
    assert 1 in settle(system, node, 1, WorkLimits(), NonUnitLeaves(s))
    assert 1 not in assert_twigs_sound(system, node, s)
    assert (1, 2) in [word for word, _ in census_matches_at_depth_2(system, node, s, monkeypatch)]


def test_bounds_mixed_census_builds_few_nodes(monkeypatch):
    config = parse_config(json.loads((CONFIGS / "bounds_mixed.json").read_text(encoding="utf-8")))
    calls = []
    monkeypatch.setattr(orbits, "eval_point",
                        lambda *args: calls.append(1) or eval_point(*args))
    assert len(s_integral_census(config.system, normalize(3), config.places, 11)) == 11
    assert len(calls) <= 1_100  # 2,049 with the leaf test alone


# The first node over this cap in the preorder of bounds_mixed from 3 is the
# depth-10 node below, of 4,348 bits.  Under the default cap, the twig test
# rules it out with its leaves; under this one, its box does not show it
# within the cap, so it is built, and its expansion exits 3.
CAP_BITS = 4347
CAP_WORD = (1, 1, 1, 1, 1, 1, 1, 2, 2, 2)


@pytest.mark.parametrize("workers", [1, 2])
def test_bit_cap_exit_at_the_last_interior_level(workers, tmp_path, capsys, monkeypatch):
    raw = json.loads((CONFIGS / "bounds_mixed.json").read_text(encoding="utf-8"))
    raw.pop("boundParameters", None)
    config = parse_config(raw)
    path = [config.point]
    for letter in CAP_WORD:
        path.append(eval_point(config.system.map_for_letter(letter), path[-1]))
    assert [WorkLimits.bits_of(p) for p in path[:-1]] == sorted(
        WorkLimits.bits_of(p) for p in path[:-1]) and WorkLimits.bits_of(path[-1]) == CAP_BITS + 1
    screen = NonUnitLeaves(config.places)
    assert CAP_WORD[-1] in settle(config.system, path[-2], 2, WorkLimits(), screen)
    assert CAP_WORD[-1] not in settle(config.system, path[-2], 2, WorkLimits(bit_cap=CAP_BITS),
                                      screen)
    cfg = tmp_path / "capped.json"
    cfg.write_text(json.dumps({**raw, "workLimits": {"bitCap": CAP_BITS}}), encoding="utf-8")
    argv = ["census", "--config", str(cfg), "--depth", "11", "--workers", str(workers),
            "--out", str(tmp_path / "reports")]
    errors = []
    for _ in range(2):
        assert main(argv) == 3
        errors.append(json.loads(capsys.readouterr().err.strip().splitlines()[-1]))
        # The exact walk of the last interior level: no settle above the leaves.
        monkeypatch.setattr(orbits, "SETTLE_LEVELS", 1)
    assert errors[0] == errors[1] == {
        "error": f"orbit coordinate of {CAP_BITS + 1} bits exceeded the cap {CAP_BITS}",
        "kind": "work-limit"}
