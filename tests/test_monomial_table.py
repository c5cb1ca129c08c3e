"""The monomial table behind homogeneous evaluation: its sums agree with the
naive sum of c_i * x^i * y^(d-i), one table serves every form at a point,
and a tree walk builds exactly one table per expanded node."""

import json
import random
from pathlib import Path

from orbitint import polys
from orbitint.config import parse_config
from orbitint.orbits import WorkLimits, children, enumerate_tree
from orbitint.proj1 import INFINITY, ZERO, ProjPoint
from orbitint.ratmap import eval_point
from orbitint.verify import random_point, random_system

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def naive(cs, d, x, y):
    return sum(c * x ** i * y ** (d - i) for i, c in enumerate(cs))


def random_form(rng, d):
    """Up to d + 1 coefficients, often with zeros and negative entries; a
    shorter list is a form of inflated degree d."""
    length = rng.randrange(1, d + 2)
    return tuple(rng.choice((0, 0, rng.randrange(-9, 10), rng.randrange(-10**6, 10**6)))
                 for _ in range(length))


def test_table_matches_naive_sum():
    rng = random.Random(307)
    big = 1 << 100_000
    points = [(1, 0), (0, 1), (-1, 0), (0, -1), (-7, 3), (3, -7), (1, 1),
              (big + 12345, 3), (-(big - 1), big // 3 + 1), (big + 1, -big - 7)]
    for d in range(2, 7):
        for _ in range(12):
            f, g = random_form(rng, d), random_form(rng, d)
            x, y = rng.choice(points)
            expected = (naive(f, d, x, y), naive(g, d, x, y))
            assert polys.eval_homogeneous(f, g, d, x, y) == expected
            table = polys.Monomials(x, y)
            assert polys.eval_homogeneous(f, g, d, x, y, table) == expected
            # A second pass reads the entries the first one built.
            assert polys.eval_homogeneous(f, g, d, x, y, table) == expected


def test_one_table_serves_forms_of_every_degree():
    rng = random.Random(311)
    x, y = -(1 << 3000) - 5, (1 << 2000) + 3
    table = polys.Monomials(x, y)
    for d in (6, 2, 5, 3, 4, 2, 6):
        f, g = random_form(rng, d), random_form(rng, d)
        assert polys.eval_homogeneous(f, g, d, x, y, table) \
            == (naive(f, d, x, y), naive(g, d, x, y))
    for i in range(7):
        for j in range(7):
            assert table[i, j] == x ** i * y ** j


def test_children_match_eval_point():
    rng = random.Random(313)
    limits = WorkLimits()
    for _ in range(40):
        system = random_system(rng, k_max=3, max_degree=4)
        for p in (random_point(rng), ZERO, INFINITY, ProjPoint(-3, 2)):
            assert children(system, p, limits) == [eval_point(phi, p) for phi in system.maps]


def test_one_table_per_expanded_node(monkeypatch):
    config = parse_config(json.loads((CONFIGS / "bounds_mixed.json").read_text(encoding="utf-8")))
    built = []
    init = polys.Monomials.__init__

    def counting_init(self, x, y):
        built.append((x, y))
        init(self, x, y)

    monkeypatch.setattr(polys.Monomials, "__init__", counting_init)
    records = enumerate_tree(config.system, config.point, 4)
    assert config.system.k == 2 and len(records) == 31
    assert len(built) == 15  # 1 + 2 + 4 + 8 internal nodes
