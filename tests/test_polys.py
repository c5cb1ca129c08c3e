import random
from fractions import Fraction

import pytest

from orbitint import polys
from oracles import derivative, eval_at, sub


def test_basic_ops():
    a, b = (1, 2, 3), (0, 1)
    assert polys.add(a, b) == (1, 3, 3)
    assert sub(a, a) == ()
    assert polys.mul((1, 1), (1, 1)) == (1, 2, 1)
    assert polys.mul((), (1, 1)) == ()
    assert polys.degree((0, 0, 5)) == 2
    assert polys.degree(()) == -1
    assert polys.strip((1, 0, 0)) == (1,)
    assert derivative((7, 1, 3)) == (1, 6)
    assert polys.content((6, -9, 12)) == 3


def test_eval_forms():
    p = (1, 0, 2)  # 2z^2 + 1
    assert eval_at(p, Fraction(3, 2)) == Fraction(11, 2)
    # homogeneous: 2x^2 + y^2 and x^2 - x y at (3, 2), evaluated together
    assert polys.eval_homogeneous(p, (0, -1, 1), 2, 3, 2) == (22, 3)
    assert polys.eval_homogeneous(p, (), 2, 1, 0) == (2, 0)
    assert polys.eval_homogeneous(p, (1,), 3, 1, 0) == (0, 0)  # inflated degree
    assert polys.eval_homogeneous((1,), p, 3, 2, -1) == (-1, -9)


def test_divmod_and_gcd():
    q, r = polys.divmod_q((-1, 0, 1), (1, 1))  # (z^2-1)/(z+1)
    assert q == (Fraction(-1), Fraction(1)) and r == ()
    assert polys.gcd_q((-1, 0, 1), (1, 1)) == (1, 1)
    assert polys.gcd_q((-1, 0, 1), (2, 2)) == (1, 1)  # primitive part
    assert polys.gcd_q((0, 0, 1), (0, 1)) == (0, 1)
    with pytest.raises(ZeroDivisionError):
        polys.divmod_q((1,), ())


def test_determinant_against_fraction_elimination():
    def det_fraction(matrix):
        n = len(matrix)
        m = [[Fraction(v) for v in row] for row in matrix]
        det = Fraction(1)
        for k in range(n):
            pivot = next((i for i in range(k, n) if m[i][k]), None)
            if pivot is None:
                return 0
            if pivot != k:
                m[k], m[pivot] = m[pivot], m[k]
                det = -det
            det *= m[k][k]
            for i in range(k + 1, n):
                factor = m[i][k] / m[k][k]
                for j in range(k, n):
                    m[i][j] -= factor * m[k][j]
        return int(det)

    rng = random.Random(211)
    for _ in range(60):
        n = rng.randrange(1, 7)
        matrix = [[rng.randrange(-9, 10) for _ in range(n)] for _ in range(n)]
        assert polys.det_bareiss(matrix) == det_fraction(matrix)


def test_resultant_detects_common_roots():
    # (z-1)(z-2) and (z-1)(z-3) share a root
    f = polys.mul((-1, 1), (-2, 1))
    g = polys.mul((-1, 1), (-3, 1))
    assert polys.homogeneous_resultant(f, g, 2) == 0
    h = polys.mul((-4, 1), (-3, 1))
    assert polys.homogeneous_resultant(f, h, 2) != 0
    # infinity as a shared root: both homogenizations drop degree
    assert polys.homogeneous_resultant((1, 1), (2, 1), 2) == 0


def test_cofactor_identities_multiply_out():
    rng = random.Random(223)
    checked = 0
    while checked < 40:
        d = rng.randrange(2, 5)
        f = [rng.randrange(-5, 6) for _ in range(d + 1)]
        g = [rng.randrange(-5, 6) for _ in range(d + 1)]
        try:
            res, identities = polys.cofactor_identities(f, g, d)
        except (ValueError, ZeroDivisionError):
            continue
        fv = [(f[i] if i < len(f) else 0) for i in range(d, -1, -1)]
        gv = [(g[i] if i < len(g) else 0) for i in range(d, -1, -1)]
        for u, v, target in identities:
            # multiply descending binary-form coefficient vectors
            product = [0] * (2 * d)
            for i, cu in enumerate(u):
                for j, cf in enumerate(fv):
                    product[i + j] += cu * cf
            for i, cv in enumerate(v):
                for j, cg in enumerate(gv):
                    product[i + j] += cv * cg
            expected = [0] * (2 * d)
            expected[2 * d - 1 - target] = res
            assert product == expected
        checked += 1
