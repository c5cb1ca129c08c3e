import math
import pickle
import random
from fractions import Fraction

import pytest

from orbitint.logvals import LogExpr, NEG_INF
from orbitint.places import (FactorizationError, INFINITE_PLACE, Place,
                             PlaceSet, abs_log, factorize, is_probable_prime,
                             is_s_integer, is_s_unit, log_plus_abs,
                             padic_valuation, strip_prime, support_places)
from orbitint.orbits import WorkLimits
from orbitint.verify import random_factored_int


def test_abs_log_examples():
    x = Fraction(8, 3)
    assert (abs_log(x, INFINITE_PLACE) - LogExpr.log_fraction(x)).exact_sign() == 0
    assert abs_log(x, Place(2)) == LogExpr.log_int(2, -3)
    assert abs_log(x, Place(3)) == LogExpr.log_int(3, 1)
    assert abs_log(0, Place(5)) is NEG_INF
    assert abs_log(0, INFINITE_PLACE) is NEG_INF


def test_padic_valuation_examples():
    assert padic_valuation(Fraction(8, 3), 2) == 3
    assert padic_valuation(Fraction(8, 3), 3) == -1
    assert padic_valuation(7, 5) == 0
    with pytest.raises(ValueError):
        padic_valuation(0, 2)


def _strip_by_definition(n, p):
    """v is the largest exponent with p**v dividing n, rest = n / p**v."""
    v = 0
    while n % p ** (v + 1) == 0:
        v += 1
    return v, n // p ** v


def test_strip_prime_matches_definition():
    rng = random.Random(10)
    for p in (2, 3, 5, 101, 65537):
        for v in (0, 1, 7, rng.randrange(100, 400)):
            rest = 1 << 10_000 | rng.getrandbits(10_000) | 1
            while rest % p == 0:
                rest += 2
            for sign in (1, -1):
                n = sign * p ** v * rest
                assert n.bit_length() >= 10_000
                assert strip_prime(n, p) == (v, sign * rest) == _strip_by_definition(n, p)
    _, rest = strip_prime(5 ** 300 * 7 ** 3, 5)
    assert strip_prime(rest, 25) == (0, 7 ** 3)  # composite trial divisor after 5
    assert strip_prime(5 ** 7 * 3, 25) == (3, 15)
    with pytest.raises(ValueError):
        strip_prime(0, 2)


def _strip_one_at_a_time(n, p):
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v, n


def test_strip_prime_at_valuations_in_the_thousands():
    # Composite p (6, 10) and a power of 2 other than 2 (8) included.
    rng = random.Random(11)
    for p in (2, 3, 6, 8, 10, 65537):
        for v in (rng.randrange(1000, 3000), rng.randrange(3000, 6000)):
            rest = 1 << 100_000 | rng.getrandbits(100_000) | 1
            while rest % p == 0:
                rest += 2
            n = -p ** v * rest if v % 2 else p ** v * rest
            assert strip_prime(n, p) == _strip_one_at_a_time(n, p) == (v, n // p ** v)


def test_is_s_unit_rejects_nonpositive():
    s = PlaceSet.parse(["inf", "p2"])
    assert is_s_unit(2 ** 500, s) and not is_s_unit(3 * 2 ** 500, s)
    for n in (0, -4):
        with pytest.raises(ValueError):
            is_s_unit(n, s)


def test_is_s_integer_examples():
    assert is_s_integer(Fraction(3, 4), PlaceSet.parse(["inf", "p2"]))
    assert not is_s_integer(Fraction(3, 4), PlaceSet.parse(["inf", "p3"]))
    assert is_s_integer(5, PlaceSet.parse(["inf"]))
    with pytest.raises(ValueError):
        is_s_integer(5, PlaceSet.parse(["p2"]))


def test_place_parsing_and_constants():
    v = Place.parse("p7")
    assert v.prime == 7 and v.local_degree == 1
    assert str(Place.parse("inf")) == "inf"
    with pytest.raises(ValueError):
        Place.parse("p6")
    with pytest.raises(ValueError):
        Place.parse("q5")


def test_place_set_order_and_json():
    s = PlaceSet.parse(["p5", "inf", "p2"])
    assert [str(v) for v in s] == ["inf", "p2", "p5"]
    assert s.contains_infinite and s.finite_primes == (2, 5)
    assert len(s) == 3


def test_places_and_limits_survive_pickling():
    # Census workers receive the place set and the limits by pickle.
    s = PlaceSet.parse(["inf", "p2"])
    for value in (Place(7), INFINITE_PLACE, s, PlaceSet([]),
                  WorkLimits(node_cap=31, bit_cap=1 << 20)):
        copy = pickle.loads(pickle.dumps(value))
        assert copy == value and hash(copy) == hash(value)
    copy = pickle.loads(pickle.dumps(s))
    assert list(copy) == list(s) and copy.finite_primes == (2,)
    with pytest.raises(AttributeError):
        copy.places = frozenset()


def test_product_formula_random():
    rng = random.Random(3)
    for _ in range(500):
        num, nf = random_factored_int(rng)
        den, df = random_factored_int(rng)
        x = Fraction(rng.choice((1, -1)) * num, den)
        total = abs_log(x, INFINITE_PLACE)
        for p in sorted(set(nf) | set(df)):
            total = total + abs_log(x, Place(p))
        assert total.exact_sign() == 0


def test_abs_log_multiplicative_random():
    rng = random.Random(5)
    places = (INFINITE_PLACE, Place(2), Place(3), Place(999983))
    for _ in range(300):
        num1, _ = random_factored_int(rng, 3)
        num2, _ = random_factored_int(rng, 3)
        den1, _ = random_factored_int(rng, 3)
        den2, _ = random_factored_int(rng, 3)
        x, y = Fraction(num1, den1), Fraction(-num2, den2)
        for v in places:
            lhs = abs_log(x * y, v)
            rhs = abs_log(x, v) + abs_log(y, v)
            assert (lhs - rhs).exact_sign() == 0


def test_s_integer_height_identity():
    # Membership in the S-integers is exactly the equality of the S-part of
    # the height with the full height.
    rng = random.Random(9)
    s = PlaceSet.parse(["inf", "p2", "p5"])
    for _ in range(300):
        num, _ = random_factored_int(rng, 3)
        den, _ = random_factored_int(rng, 3)
        x = Fraction(num, den)
        s_part = LogExpr.zero()
        for v in s:
            s_part = s_part + log_plus_abs(x, v) * v.local_degree
        h = LogExpr.log_int(max(abs(x.numerator), x.denominator))
        assert ((s_part - h).exact_sign() == 0) == is_s_integer(x, s)


def test_factorize_and_support():
    assert factorize(720) == {2: 4, 3: 2, 5: 1}
    assert factorize(-720) == {2: 4, 3: 2, 5: 1}
    big_prime = 2305843009213693951  # Mersenne prime 2^61 - 1
    assert factorize(4 * big_prime) == {2: 2, big_prime: 1}
    with pytest.raises(ValueError):
        factorize(0)
    semiprime = 1000003 * 1000033
    with pytest.raises(FactorizationError):
        factorize(semiprime, trial_bound=1000)
    s = support_places(Fraction(8, 45))
    assert [str(v) for v in s] == ["inf", "p2", "p3", "p5"]


def test_miller_rabin():
    assert is_probable_prime(2) and is_probable_prime(3) and is_probable_prime(65537)
    assert not is_probable_prime(1) and not is_probable_prime(561)  # Carmichael
    assert is_probable_prime(2305843009213693951)
    assert not is_probable_prime(2305843009213693951 * 3)


def test_log_plus_abs():
    assert log_plus_abs(Fraction(1, 8), INFINITE_PLACE) == LogExpr.zero()
    assert log_plus_abs(Fraction(1, 8), Place(2)) == LogExpr.log_int(2, 3)
    assert log_plus_abs(8, Place(2)) == LogExpr.zero()
    assert log_plus_abs(0, INFINITE_PLACE) == LogExpr.zero()
    v = log_plus_abs(Fraction(-9, 2), INFINITE_PLACE)
    assert v.to_float() == pytest.approx(math.log(4.5), rel=1e-12)
