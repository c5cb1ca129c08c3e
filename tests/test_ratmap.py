import math
import random
from fractions import Fraction

import pytest

from orbitint import polys
from orbitint.logvals import LogExpr
from orbitint.proj1 import INFINITY, ZERO, ProjPoint, normalize
from orbitint.ratmap import (MapError, MapSystem, compose, eval_point,
                             is_totally_ramified, make_map, map_from_json,
                             map_height, parse_map, ramification_index,
                             system_height)
from orbitint.verify import random_map, random_point
from oracles import (mobius_inverse, ramification_index_chart, rational_roots,
                     wronskian)


def test_make_map_examples():
    m = make_map([0, 0, 1], [1])
    assert (m.f, m.g, m.degree) == ((0, 0, 1), (1,), 2)
    m = make_map([2, 2], [2])
    assert (m.f, m.g, m.degree) == ((1, 1), (1,), 1)
    with pytest.raises(MapError) as err:
        make_map([-1, 0, 1], [-1, 1])
    assert err.value.witness == (-1, 1)
    with pytest.raises(MapError):
        make_map([1, 1], [0])
    with pytest.raises(MapError):
        make_map([3], [2])


def test_normalization_sign_and_content():
    m = make_map([Fraction(1, 2), 0, Fraction(3, 2)], [Fraction(-1, 2)])
    assert m.f == (-1, 0, -3) and m.g == (1,)
    assert m.g[-1] > 0


def test_eval_examples(z2):
    assert eval_point(z2, normalize(2, 1)) == ProjPoint(4, 1)
    inv = make_map([1], [0, 1])
    assert eval_point(inv, ZERO) == INFINITY
    m = make_map([1, 0, 1], [0, 1])
    assert eval_point(m, INFINITY) == INFINITY
    assert eval_point(z2, normalize(Fraction(-2, 3))) == ProjPoint(4, 9)


def _reference_eval(phi, p):
    """phi(p) by the definition: the forms summed term by term, then the full
    gcd of the two values (proj1.normalize)."""
    d = phi.degree

    def form(cs):
        return sum(c * p.x ** i * p.y ** (d - i) for i, c in enumerate(cs))

    return normalize(form(phi.f), form(phi.g))


def test_eval_point_matches_full_gcd_normalization():
    rng = random.Random(59)
    special = [
        make_map([0, 0, 1], [1]),            # z^2: R = 1
        make_map([-1, 0, 1], [1, 0, 1]),     # (z^2-1)/(z^2+1): R = 4
        make_map([-2, 0, 0, 1], [1]),        # polynomial: G = Y^3
        make_map([1], [0, 0, 1]),            # 1/z^2: F drops degree
        make_map([1, 2], [3, 4]),            # Moebius, R = 2
    ]
    assert [phi.resultant for phi in special] == [1, 4, 1, 1, 2]
    maps = special + [random_map(rng, 2, 4) for _ in range(15)]
    assert any(phi.resultant > 1 for phi in maps[len(special):])
    fixed = [INFINITY, ZERO, ProjPoint(1, 1), ProjPoint(-1, 1), ProjPoint(-7, 3),
             ProjPoint(3, 5), ProjPoint(-5, 9)]
    cancelled = 0
    for phi in maps:
        points = fixed + [random_point(rng) for _ in range(8)]
        for bits in (10_000, 20_000):
            y = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
            points.append(normalize(-(rng.getrandbits(bits) | 1), y))
            points.append(normalize(rng.getrandbits(bits) | 1, y))
        for p in points:
            expected = _reference_eval(phi, p)
            assert eval_point(phi, p) == expected
            u, v = phi.homogeneous(p.x, p.y)
            cancelled += math.gcd(u, v) > 1
    assert cancelled > 0
    # Odd/odd points of (z^2-1)/(z^2+1): x^2 - y^2 and x^2 + y^2 share 2.
    m = special[1]
    for p in (ProjPoint(3, 5), ProjPoint(-7, 3), ProjPoint(1, 1)):
        u, v = m.homogeneous(p.x, p.y)
        assert (eval_point(m, p).x * 2, eval_point(m, p).y * 2) == (u, v)


def test_compose_examples(z2, z3):
    assert compose(z2, z3).f == (0, 0, 0, 0, 0, 0, 1)
    inv = make_map([1], [0, 1])
    assert compose(inv, inv) == make_map([0, 1], [1])
    m = compose(make_map([1, 0, 1], [1]), make_map([1, 1], [1]))
    assert m == make_map([2, 2, 1], [1])


def test_compose_degree_multiplicative():
    rng = random.Random(31)
    for _ in range(25):
        a, b = random_map(rng, 2, 3), random_map(rng, 2, 3)
        assert compose(a, b).degree == a.degree * b.degree


def test_eval_compose_coherence():
    rng = random.Random(33)
    for _ in range(40):
        a, b = random_map(rng, 2, 3), random_map(rng, 2, 3)
        p = random_point(rng, 50)
        assert eval_point(compose(a, b), p) == eval_point(a, eval_point(b, p))


def test_map_heights(z2):
    assert map_height(z2) == LogExpr.zero()
    m = make_map([1, 0, 3], [-5, 1])
    assert map_height(m) == LogExpr.log_int(5)
    system = MapSystem([z2, make_map([1, 0, 3], [-5, 1])])
    assert system_height(system) == LogExpr.log_int(5)


def test_ramification_examples(z2):
    assert ramification_index(z2, ZERO) == 2
    assert ramification_index(z2, ProjPoint(1, 1)) == 1
    assert ramification_index(make_map([3, 0, 1], [1]), INFINITY) == 2
    assert ramification_index(make_map([1, 0, 1], [0, 1]), INFINITY) == 1
    assert ramification_index(make_map([1], [0, 0, 1]), INFINITY) == 2


def test_totally_ramified_examples(z2):
    assert is_totally_ramified(z2, ZERO)
    assert not is_totally_ramified(z2, ProjPoint(1, 1))
    assert not is_totally_ramified(make_map([1, 0, 1], [0, 1]), INFINITY)


def test_ramification_multiplicative():
    rng = random.Random(37)
    for _ in range(100):
        phi = random_map(rng, 2, 4)
        psi = random_map(rng, 2, 4)
        p = random_point(rng, 30)
        lhs = ramification_index(compose(psi, phi), p)
        rhs = ramification_index(phi, p) * ramification_index(psi, eval_point(phi, p))
        assert lhs == rhs


def test_chart_independence_at_infinity():
    # e_infinity computed through two different fractional linear charts.
    rng = random.Random(41)
    chart1 = make_map([1], [0, 1])        # w -> 1/w
    chart2 = make_map([1, 1], [0, 1])     # w -> (w+1)/w = 1/w + 1
    checked = 0
    while checked < 60:
        phi = random_map(rng, 2, 3)
        image = eval_point(phi, INFINITY)
        if image in (eval_point(chart1, INFINITY), eval_point(chart2, INFINITY)):
            continue
        main = ramification_index(phi, INFINITY)
        assert ramification_index_chart(phi, INFINITY, chart1) == main
        assert ramification_index_chart(phi, INFINITY, chart2) == main
        checked += 1


def test_chart_agrees_at_finite_points():
    rng = random.Random(43)
    chart = make_map([1, 2], [1, 1])  # generic Moebius (2z+1)/(z+1)
    checked = 0
    while checked < 40:
        phi = random_map(rng, 2, 3)
        p = random_point(rng, 10)
        try:
            e = ramification_index_chart(phi, p, chart)
        except MapError:
            continue
        assert e == ramification_index(phi, p)
        checked += 1


def test_wronskian_index_matches_the_chart_oracle():
    """ramification_index reads the map's Wronskian form; the chart oracle
    differentiates a conjugate.  They agree at every rational critical point,
    at infinity, at 0 and at a random point, and the draw holds many ramified
    points."""
    rng = random.Random(53)
    maps = [random_map(rng, 2, 4) for _ in range(400)]
    maps += [compose(random_map(rng, 2, 2), random_map(rng, 2, 2)) for _ in range(60)]
    # Charts with L(inf) = inf, 0, 1, 2: at most two of them (those sending
    # inf to p or to phi(p)) are refused.
    charts = [make_map([0, 1], [1]), make_map([1], [0, 1]),
              make_map([1, 1], [0, 1]), make_map([1, 2], [1, 1])]
    checked = ramified = 0
    for phi in maps:
        assert polys.strip(phi.wronskian) == wronskian(phi)
        points = [normalize(root) for root, _mult in rational_roots(wronskian(phi))]
        for p in points + [INFINITY, ZERO, random_point(rng, 1000)]:
            for chart in charts:
                try:
                    expected = ramification_index_chart(phi, p, chart)
                    break
                except MapError:
                    continue
            else:
                pytest.fail(f"every chart refused {p} for {phi}")
            e = ramification_index(phi, p)
            assert e == expected, (str(phi), p)
            checked, ramified = checked + 1, ramified + (e > 1)
    assert checked >= 1500 and ramified >= 300


def test_mobius_inverse_roundtrip():
    l = make_map([1, 2], [3, 1])
    li = mobius_inverse(l)
    assert compose(l, li) == make_map([0, 1], [1])
    assert compose(li, l) == make_map([0, 1], [1])
    with pytest.raises(MapError):
        mobius_inverse(make_map([0, 0, 1], [1]))


def test_wronskian_riemann_hurwitz_surrogate():
    # Total ramification found among rational critical points (plus infinity)
    # never exceeds 2d - 2, and the Wronskian never vanishes.
    rng = random.Random(47)
    for _ in range(40):
        phi = random_map(rng, 2, 3, coeff_size=3)
        w = wronskian(phi)
        assert polys.strip(w)
        total = 0
        for root, _mult in rational_roots(w):
            total += ramification_index(phi, normalize(root)) - 1
        total += ramification_index(phi, INFINITY) - 1
        assert total <= 2 * phi.degree - 2


def test_parse_map_forms():
    assert parse_map("(z^2+1)/z") == make_map([1, 0, 1], [0, 1])
    assert parse_map("z^2-1") == make_map([-1, 0, 1], [1])
    assert parse_map("1/z^2") == make_map([1], [0, 0, 1])
    assert parse_map("2*z^3 - z + 4") == make_map([4, -1, 0, 2], [1])
    assert parse_map("(z^3-2)/(z^3+2)") == make_map([-2, 0, 0, 1], [2, 0, 0, 1])
    with pytest.raises(MapError):
        parse_map("z^2/(z-1)/z")
    with pytest.raises(MapError):
        parse_map("z**2")


def test_map_json_roundtrip():
    m = make_map([1, 0, 3], [-5, 1])
    assert map_from_json({"f": ["1", "0", "3"], "g": ["-5", "1"]}) == m


def test_system_rules(z2, z3):
    sys23 = MapSystem([z3, z2])
    assert sys23.degrees == (2, 3)
    assert sys23.min_degree == 2 and sys23.max_degree == 3 and sys23.degree_sum == 5
    assert sys23.map_for_letter(1) == z2
    with pytest.raises(MapError):
        MapSystem([make_map([0, 1], [1])])  # degree 1 rejected
    with pytest.raises(MapError):
        MapSystem([])
    with pytest.raises(ValueError):
        sys23.map_for_letter(3)


def test_str_forms(z2):
    assert str(z2) == "z^2"
    assert str(make_map([1, 0, 1], [0, 1])) == "(z^2+1)/z"
    assert str(make_map([1], [0, 0, 1])) == "1/z^2"


def test_display_string_round_trip():
    rng = random.Random(251)
    for _ in range(60):
        m = random_map(rng, 2, 4)
        assert parse_map(str(m)) == m
