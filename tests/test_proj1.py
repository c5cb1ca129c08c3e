import math
import random
from fractions import Fraction

import pytest

from orbitint.cli import _point_json, point_from_json
from orbitint.logvals import POS_INF, LogExpr, _Infinite
from orbitint.places import INFINITE_PLACE, Place
from orbitint.proj1 import (INFINITY, ZERO, ProjPoint, chordal_sum,
                            log_chordal, normalize, parse_point)
from orbitint.verify import random_point


def test_normalize_examples():
    assert normalize(2, 4) == ProjPoint(1, 2)
    assert normalize(-1, -2) == ProjPoint(1, 2)
    assert normalize(3, 0) == ProjPoint(1, 0)
    assert normalize(Fraction(-4, 6)) == ProjPoint(-2, 3)
    with pytest.raises(ValueError):
        normalize(0, 0)


def test_parse_and_json():
    assert parse_point("inf") == INFINITY
    assert parse_point("8/3") == ProjPoint(8, 3)
    assert parse_point("[2:4]") == ProjPoint(1, 2)
    assert parse_point("-5") == ProjPoint(-5, 1)
    p = normalize(7, 9)
    assert point_from_json(_point_json(p)) == p
    assert str(p) == "[7:9]"


def test_height_examples():
    assert ProjPoint(1, 1).height() == LogExpr.zero()
    assert normalize(8, 3).height() == LogExpr.log_int(8)
    assert INFINITY.height() == LogExpr.zero()


def test_chordal_examples():
    d = log_chordal(ZERO, INFINITY, INFINITE_PLACE)
    assert d == LogExpr.zero()  # rho = 1
    d = log_chordal(ProjPoint(1, 1), normalize(3, 1), Place(2))
    assert d == LogExpr.log_int(2)
    d = log_chordal(ProjPoint(1, 1), ZERO, INFINITE_PLACE)
    assert d == LogExpr.log_int(2, Fraction(1, 2))  # rho^2 = 1/2
    assert d.to_float() == pytest.approx(0.5 * math.log(2), rel=1e-12)
    # det = 8 and both sums of squares are 10: -log 8 + log 10, the value of
    # -(1/2) log(rho^2) with rho^2 = 64/100, kept unreduced.
    d = log_chordal(ProjPoint(3, 1), ProjPoint(1, 3), INFINITE_PLACE)
    assert d == LogExpr(((8, -1), (10, 1)))
    assert (d - LogExpr.log_fraction(Fraction(16, 25), Fraction(-1, 2))).exact_sign() == 0


def test_chordal_to_self_is_infinite():
    assert log_chordal(ZERO, ZERO, INFINITE_PLACE) is POS_INF
    assert log_chordal(normalize(3, 2), normalize(3, 2), Place(2)) is POS_INF


def test_chordal_symmetry_and_nonnegativity():
    rng = random.Random(21)
    places = (INFINITE_PLACE, Place(2), Place(3))
    for _ in range(300):
        p, q = random_point(rng, 10 ** 4), random_point(rng, 10 ** 4)
        for v in places:
            dpq, dqp = log_chordal(p, q, v), log_chordal(q, p, v)
            assert isinstance(dpq, _Infinite) == isinstance(dqp, _Infinite)
            if isinstance(dpq, _Infinite):
                continue
            assert (dpq - dqp).exact_sign() == 0
            assert dpq.exact_sign() >= 0


def test_finite_place_ultrametric():
    rng = random.Random(23)
    for _ in range(200):
        pts = [random_point(rng, 10 ** 4) for _ in range(3)]
        if len(set(pts)) < 3:
            continue
        p, q, r = pts
        for v in (Place(2), Place(5)):
            lam = {}
            for key, (s, t) in {"pr": (p, r), "pq": (p, q), "qr": (q, r)}.items():
                d = log_chordal(s, t, v)
                lam[key] = math.inf if isinstance(d, _Infinite) else d.to_float()
            assert lam["pr"] >= min(lam["pq"], lam["qr"]) - 1e-9


def test_height_distance_defect_identity():
    # Sum over places of the distance to infinity exceeds the height by
    # exactly (1/2) log(1 + min^2/max^2), never by more than (1/2) log 2.
    rng = random.Random(29)
    half_log2 = LogExpr.log_int(2, Fraction(1, 2))
    for _ in range(300):
        p = random_point(rng, 10 ** 6)
        if p.is_infinite:
            continue
        a, b = p.x, p.y
        total = log_chordal(p, INFINITY, INFINITE_PLACE) + LogExpr.log_int(b)
        defect = total - p.height()
        expected = LogExpr.log_fraction(
            Fraction(a * a + b * b, max(a * a, b * b)), Fraction(1, 2))
        assert (defect - expected).exact_sign() == 0
        assert defect.exact_sign() >= 0
        assert (defect - half_log2).exact_sign() <= 0


def test_chordal_sum_infinite_on_collision():
    s = [INFINITE_PLACE, Place(2)]
    assert isinstance(chordal_sum(ZERO, ZERO, s), _Infinite)
    v = chordal_sum(ProjPoint(1, 1), ZERO, s)
    assert isinstance(v, LogExpr)


def test_local_distance_fields():
    d = log_chordal(normalize(7, 2), normalize(3, 1), Place(2))
    assert d == LogExpr.zero()  # det = 7 - 6 = 1
    d = log_chordal(normalize(5, 1), normalize(1, 1), Place(2))
    assert d == LogExpr.log_int(2, 2)  # det = 4
