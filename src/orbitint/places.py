"""Places of Q, exact local absolute values, and S-integrality.

A place is either the archimedean place "inf" or a p-adic place "p<prime>".
Local degrees are kept explicit (always 1 over Q) so the global formulas read
the same as over a general number field.  Finite-place quantities are carried
as (valuation, prime) pairs inside LogExpr; nothing is rounded.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Optional

from .logvals import NEG_INF, LogExpr, _Infinite

# Deterministic for n < 3.3e24; no composite below 2^81 is known to pass the
# extended witness list.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61)


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin with a fixed witness set (deterministic below 3.3e24)."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    r, d = strip_prime(n - 1, 2)
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def strip_prime(n: int, p: int) -> tuple[int, int]:
    """(v, rest) with n = p**v * rest and p not dividing rest, for n != 0.

    The one place that divides out a factor: valuations, S-unit tests and
    Miller-Rabin all go through it.  p may be any integer >= 2.
    For p = 2, v is the count of trailing zero bits.  Otherwise the powers
    p, p^2, p^4, ... are squared up while they divide n, and v is read off
    from the largest down, one binary digit each: a few divisions by powers
    of p in place of v divisions by p.  An n that p does not divide costs
    one remainder by p (for p = 2, one bit test).
    """
    if n == 0:
        raise ValueError(f"cannot strip {p} from 0")
    if p == 2:
        if n & 1:
            return 0, n
        v = (n & -n).bit_length() - 1
        return v, n >> v
    if n % p:
        return 0, n
    powers = [p]   # p^(2^j) for every j with p^(2^j) dividing n
    while n % (square := powers[-1] * powers[-1]) == 0:
        powers.append(square)
    v = 0
    for j in reversed(range(len(powers))):
        quotient, remainder = divmod(n, powers[j])
        if not remainder:
            n, v = quotient, v + (1 << j)
    return v, n


@dataclass(frozen=True, order=True)
class Place:
    """A place of Q: prime=None is the archimedean place."""

    sort_key: int
    prime: Optional[int]

    def __init__(self, prime: Optional[int] = None):
        if prime is not None and not is_probable_prime(prime):
            raise ValueError(f"{prime} is not prime")
        object.__setattr__(self, "prime", prime)
        object.__setattr__(self, "sort_key", 0 if prime is None else prime)

    @property
    def is_archimedean(self) -> bool:
        return self.prime is None

    @property
    def local_degree(self) -> Fraction:
        return Fraction(1)

    def log_lv(self) -> LogExpr:
        return LogExpr.log_int(2) if self.is_archimedean else LogExpr.zero()

    @classmethod
    def parse(cls, text: str) -> "Place":
        text = text.strip()
        if text in ("inf", "infinity", "oo"):
            return INFINITE_PLACE
        if text.startswith("p"):
            return cls(int(text[1:]))
        raise ValueError(f"cannot parse place {text!r} (want 'inf' or 'p<prime>')")

    def __str__(self) -> str:
        return "inf" if self.is_archimedean else f"p{self.prime}"


INFINITE_PLACE = Place(None)


class PlaceSet:
    """Finite set of places; iteration order is inf first, then primes ascending."""

    __slots__ = ("places",)

    def __init__(self, places: Iterable[Place]):
        object.__setattr__(self, "places", frozenset(places))

    def __setattr__(self, name, value):
        raise AttributeError("PlaceSet is immutable")

    def __reduce__(self):
        # Rebuilt through __init__: the unpickler's slot state would go
        # through __setattr__, which refuses it.
        return PlaceSet, (tuple(self),)

    @classmethod
    def parse(cls, names: Iterable[str]) -> "PlaceSet":
        return cls(Place.parse(s) for s in names)

    @property
    def contains_infinite(self) -> bool:
        return INFINITE_PLACE in self.places

    @property
    def finite_primes(self) -> tuple[int, ...]:
        return tuple(sorted(p.prime for p in self.places if not p.is_archimedean))

    def __iter__(self) -> Iterator[Place]:
        return iter(sorted(self.places, key=lambda v: v.sort_key))

    def __len__(self) -> int:
        return len(self.places)

    def __contains__(self, place: Place) -> bool:
        return place in self.places

    def __eq__(self, other) -> bool:
        return isinstance(other, PlaceSet) and self.places == other.places

    def __hash__(self):
        return hash(self.places)

    def __repr__(self):
        return "PlaceSet({" + ", ".join(str(v) for v in self) + "})"


def padic_valuation(x: Fraction | int, p: int) -> int:
    """v_p(x) for nonzero rational x."""
    x = Fraction(x)
    if x == 0:
        raise ValueError("v_p(0) is undefined (plus infinity)")
    return strip_prime(x.numerator, p)[0] - strip_prime(x.denominator, p)[0]


def abs_log(x: Fraction | int, v: Place) -> LogExpr | _Infinite:
    """log|x|_v, exactly; NEG_INF for x = 0."""
    x = Fraction(x)
    if x == 0:
        return NEG_INF
    if v.is_archimedean:
        return LogExpr.log_fraction(abs(x))
    return LogExpr.log_int(v.prime, -padic_valuation(x, v.prime))


def log_plus_abs(x: Fraction | int, v: Place) -> LogExpr:
    """log max(|x|_v, 1), exactly; zero for x = 0."""
    x = Fraction(x)
    if x == 0:
        return LogExpr.zero()
    if v.is_archimedean:
        ax = abs(x)
        return LogExpr.log_fraction(ax) if ax > 1 else LogExpr.zero()
    val = padic_valuation(x, v.prime)
    return LogExpr.log_int(v.prime, -val) if val < 0 else LogExpr.zero()


def is_s_integer(x: Fraction | int, s: PlaceSet) -> bool:
    """True iff every prime factor of the denominator lies in S.

    Needs no factorization: the S-primes are divided out and the rest must be 1.
    """
    if not s.contains_infinite:
        raise ValueError("S must contain the archimedean place for R_S semantics")
    return is_s_unit(Fraction(x).denominator, s)


def is_s_unit(n: int, s: PlaceSet) -> bool:
    """True iff every prime factor of the positive integer n lies in S.

    A canonical point [x : y] has an S-integral affine coordinate exactly when
    y is an S-unit, so censuses decide it without building a Fraction.
    """
    if n < 1:
        raise ValueError(f"S-unit tests need a positive integer, got {n}")
    for p in s.finite_primes:
        n = strip_prime(n, p)[1]
    return n == 1
