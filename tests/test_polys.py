import random
from fractions import Fraction

import pytest

from orbitint import polys
from oracles import cofactor_identities_by_minors, derivative, eval_at, sub


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


def test_resultant_detects_common_roots():
    # (z-1)(z-2) and (z-1)(z-3) share a root
    f = polys.mul((-1, 1), (-2, 1))
    g = polys.mul((-1, 1), (-3, 1))
    with pytest.raises(ValueError):
        polys.cofactor_identities(f, g, 2)
    h = polys.mul((-4, 1), (-3, 1))
    assert polys.cofactor_identities(f, h, 2)[0] != 0
    # infinity as a shared root: both homogenizations drop degree
    with pytest.raises(ValueError):
        polys.cofactor_identities((1, 1), (2, 1), 2)


def _assert_multiply_out(f, g, d, res, identities):
    """u*F + v*G is res times the identity's monomial, for each identity."""
    fv = [(f[i] if i < len(f) else 0) for i in range(d, -1, -1)]
    gv = [(g[i] if i < len(g) else 0) for i in range(d, -1, -1)]
    assert [target for _u, _v, target in identities] == [2 * d - 1, 0]
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
        _assert_multiply_out(f, g, d, res, identities)
        checked += 1


def test_cofactor_identities_multiply_out_at_degree_40():
    """One elimination keeps degree 40 cheap; 2d + 1 determinants did not."""
    rng = random.Random(229)
    d = 40
    f = [rng.randrange(-3, 4) for _ in range(d)] + [1]
    g = [rng.randrange(-3, 4) for _ in range(d + 1)]
    res, identities = polys.cofactor_identities(f, g, d)
    assert res != 0
    _assert_multiply_out(f, g, d, res, identities)


def test_cofactor_identities_match_adjugate_minors():
    """The same res and cofactor tuples as the signed minors, exactly, on
    random maps of degree 2-8 and on families whose elimination swaps rows;
    a zero resultant is a ValueError for both."""
    rng = random.Random(233)
    cases = []
    for _ in range(300):
        d = rng.randrange(2, 9)
        f = [rng.randrange(-5, 6) for _ in range(rng.randrange(1, d + 2))]
        g = [rng.randrange(-5, 6) for _ in range(d + 1)]
        if rng.random() < 0.3:   # sparse forms need row swaps
            g[rng.randrange(d + 1)] = 0
        cases.append((f, g, d))
    for d in range(1, 9):
        cases += [([1] + [0] * (d - 1) + [1], [1], d),   # z^d + 1
                  ([1], [0] * d + [1], d)]               # 1/z^d
    singular = 0
    for f, g, d in cases:
        try:
            expected = cofactor_identities_by_minors(f, g, d)
        except ValueError:
            singular += 1
            with pytest.raises(ValueError):
                polys.cofactor_identities(f, g, d)
            continue
        assert polys.cofactor_identities(f, g, d) == expected
    assert 0 < singular < len(cases) // 4
