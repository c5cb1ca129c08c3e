import math
import random
from fractions import Fraction

import pytest

from orbitint.logvals import LogExpr


def test_canonical_form_merges_atoms():
    e = LogExpr.log_int(2) + LogExpr.log_int(2) + LogExpr.log_int(3, -1)
    assert e.terms == ((2, Fraction(2)), (3, Fraction(-1)))
    assert (e - e).is_structural_zero


def test_log_fraction_splits():
    e = LogExpr.log_fraction(Fraction(8, 3))
    assert e.to_float() == pytest.approx(math.log(8 / 3), rel=1e-12)


def test_scalar_algebra():
    e = LogExpr.log_int(5) * Fraction(3, 2) - LogExpr.log_int(5) / 2
    assert e == LogExpr.log_int(5)


def test_sign_positive_negative_zero():
    assert LogExpr.log_int(7).sign() == 1
    assert (-LogExpr.log_int(7)).sign() == -1
    assert LogExpr.zero().sign() == 0
    # log 8 - 3 log 2 vanishes only through the exact fallback.
    e = LogExpr.log_int(8) - LogExpr.log_int(2) * 3
    assert e.sign() == 0
    assert e.exact_sign() == 0


def test_sign_near_tie_resolved():
    e = LogExpr.log_int(2 ** 100 + 1) - LogExpr.log_int(2) * 100
    assert e.sign() == 1


def test_constant_part():
    e = LogExpr.constant(Fraction(1, 3))
    assert e.sign() == 1
    assert (e - e).sign() == 0
    assert e.to_float() == pytest.approx(1 / 3, rel=1e-12)
    assert e.exact_sign() is None  # nonzero constant blocks the product route


def test_interval_encloses_value():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randrange(2, 10 ** 9)
        c = Fraction(rng.randrange(-9, 10) or 1, rng.randrange(1, 7))
        e = LogExpr.log_int(n, c)
        box = e.interval(64)
        true = float(c) * math.log(n)
        assert float(box.a) - 1e-9 <= true <= float(box.b) + 1e-9


def test_float_bounds_outward():
    lo, hi = LogExpr.log_int(3).float_bounds()
    assert lo < math.log(3) < hi


def test_multiplicative_identity_random():
    rng = random.Random(11)
    for _ in range(200):
        a = rng.randrange(2, 10 ** 6)
        b = rng.randrange(2, 10 ** 6)
        e = LogExpr.log_int(a * b) - LogExpr.log_int(a) - LogExpr.log_int(b)
        assert e.exact_sign() == 0


def test_immutability():
    e = LogExpr.log_int(2)
    with pytest.raises(AttributeError):
        e.const = Fraction(1)
