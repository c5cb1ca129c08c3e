import math
import random
from fractions import Fraction

import pytest
from mpmath import iv

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


def _interval_full_sum(expr, prec):
    """The oracle: the constant plus every coefficient times its log, each
    step taken in interval arithmetic, zero constants and unit
    coefficients included."""
    old = iv.prec
    iv.prec = prec
    try:
        total = iv.mpf(expr.const.numerator) / iv.mpf(expr.const.denominator)
        for atom, coeff in expr.terms:
            c = iv.mpf(coeff.numerator) / iv.mpf(coeff.denominator)
            total += c * iv.log(iv.mpf(atom))
        return total
    finally:
        iv.prec = old


@pytest.mark.parametrize("prec", [53, 128, 512])
def test_interval_endpoints_match_the_full_sum(prec):
    big = (1 << 99_999) + 12_345  # a 10^5-bit atom
    assert big.bit_length() == 100_000
    exprs = [
        LogExpr.log_int(big),
        LogExpr.log_int(big) + LogExpr.constant(Fraction(-7, 3)),
        LogExpr.constant(Fraction(1, 3)),
        LogExpr.constant(5),
        LogExpr.log_int(7, -1),
        LogExpr.log_int(7, Fraction(1, 2)),
        LogExpr.log_int(big, -1) + LogExpr.log_int(3, Fraction(1, 2))
        + LogExpr.log_int(10 ** 40 + 1),
        LogExpr.log_fraction(Fraction(8, 3)) + LogExpr.constant(Fraction(2, 7)),
        LogExpr.zero(),
    ]
    for expr in exprs:
        box, oracle = expr.interval(prec), _interval_full_sum(expr, prec)
        assert box._mpi_ == oracle._mpi_, expr  # the raw endpoint pair
