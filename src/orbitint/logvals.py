"""Exact logarithmic quantities with certified interval evaluation.

Every height and local distance in this package is a rational number plus a
rational linear combination of logarithms of positive integers.  Carrying the
combination symbolically keeps identities (product formula, multiplicativity,
height decompositions) exact; rounding happens only when a value is
materialized for a report or compared against a genuinely uncertain interval.

Sign determination is three-staged: interval arithmetic at the working
precision, precision escalation, and (for pure-log expressions) an exact
fallback that clears denominators and compares integer power products.

An atom may be deferred (`Deferred`): an integer known by a certified
enclosure and built only when the enclosure cannot stand in for it; its
maker (heights, proj1) reads the enclosure from a `polys.Enclosure`.  Its
place among the sorted atoms, its box at each precision and its bit length
come from the enclosure, so every stage decides as it would with the
integer, from the same endpoints.  Boxed atoms are this module's concern
alone: `deferred_atom` is the one way to make one, `rounded_box` the one
test that an enclosure rounds to the integer's box, and `_settle` the one
test that enclosures meet no other atom.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Mapping, Optional, Tuple

from mpmath import iv
from mpmath.libmp import from_man_exp, round_ceiling, round_floor, to_rational

DEFAULT_PRECISION = 128

# Exact-fallback guard: refuse integer power products beyond this many bits.
EXACT_FALLBACK_BIT_CAP = 8_000_000

_ESCALATIONS = (1, 2, 4)


class _Infinite:
    """Signed infinity marker for degenerate logs (log 0, distance to self)."""

    __slots__ = ("sign",)

    def __init__(self, sign: int):
        self.sign = sign

    def __repr__(self):
        return "+inf" if self.sign > 0 else "-inf"


POS_INF = _Infinite(+1)
NEG_INF = _Infinite(-1)


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected int or Fraction, got {type(value).__name__}")


def rounded_box(lo: int, hi: int, exp: int, prec: int) -> Optional[tuple]:
    """iv.mpf(N) at prec, as raw mpf endpoints, for an integer N with
    lo * 2^exp <= N <= hi * 2^exp, when the enclosure decides it; else None.

    Directed rounding is monotone, so when both ends round down alike and
    up alike, N rounds to those same endpoints.
    """
    box = (from_man_exp(lo, exp, prec, round_floor), from_man_exp(lo, exp, prec, round_ceiling))
    if box == (from_man_exp(hi, exp, prec, round_floor),
               from_man_exp(hi, exp, prec, round_ceiling)):
        return box
    return None


def _key(man: int, exp: int, prec: int) -> int:
    """Sort key of man * 2^exp (man > 0) rounded down to prec bits: its bit
    length, then its prec-bit mantissa, as one integer, so that keys
    compare as the rounded values do.  Integer shifts read it, with no mpf
    built and normalized.  Key + 1 is above the unrounded value."""
    bc = man.bit_length()
    return (exp + bc << prec) + (man << prec >> bc)


def _clusters(items: list) -> Iterator[list]:
    """The terms of the items (lower key, upper key, term) in clusters:
    sorted by lower key, the key intervals chain into runs that meet, and a
    cluster is one run.  The items are sorted in place."""
    items.sort(key=lambda item: item[0])
    cluster: list = []
    for lo, hi, term in items:
        if cluster and lo > reach:
            yield cluster
            cluster = []
        reach = max(reach, hi) if cluster else hi
        cluster.append(term)
    yield cluster


def deferred_atom(enclosure: tuple[int, int, int],
                  build: Callable[[], int]) -> Optional["Deferred"]:
    """The Deferred of an integer N with enclosure (lo, hi, exp), that is
    lo * 2^exp <= N <= hi * 2^exp, and its build; None when the enclosure
    does not show N >= 2, so that N might not be a log atom."""
    lo, hi, exp = enclosure
    # Bits below the enclosure's width tell nothing: all but 8 are dropped,
    # rounding outward, so that keys and boxes read short integers.
    drop = (hi - lo).bit_length() - 8
    if drop > 0:
        lo, hi, exp = lo >> drop, -(-hi >> drop), exp + drop
    return Deferred(lo, hi, exp, build) if lo > 0 and lo.bit_length() + exp >= 2 else None


class Deferred:
    """A log atom N >= 2 held as a certified enclosure lo * 2^exp <= N <=
    hi * 2^exp together with build, which returns N (see deferred_atom).

    N is built at most once, and only when the enclosure cannot stand in for
    it: the enclosure meets another atom of an expression (equal atoms merge
    and the sort order is exact), it does not decide the box at the
    precision asked for, or the exact sign stage needs N (after its cap test,
    which reads bit_length from the enclosure).  Outside the sign stages,
    bit_length and equality build N only when the enclosures cannot decide
    them, and hashing always does.  A built atom is the integer N in every
    expression made from then on.
    """

    __slots__ = ("lo", "hi", "exp", "_build", "_value", "_prec", "_box")

    def __init__(self, lo: int, hi: int, exp: int, build: Callable[[], int]):
        self.lo, self.hi, self.exp = lo, hi, exp
        self._build: Optional[Callable[[], int]] = build
        self._value: Optional[int] = None
        self._prec = self._box = None

    def value(self) -> int:
        """N, built on first use."""
        if self._value is None:
            self._value = self._build()
            self._build = None
        return self._value

    def bit_range(self) -> tuple[int, int]:
        """Bounds on N.bit_length() from the enclosure."""
        return self.lo.bit_length() + self.exp, self.hi.bit_length() + self.exp

    def bit_length(self) -> int:
        """N.bit_length(), read from the enclosure when that decides it."""
        low, high = self.bit_range()
        return low if low == high else self.value().bit_length()

    def box(self, prec: int):
        """iv.mpf(N) at prec as raw mpf endpoints when the enclosure decides
        them, else N itself (built).  The last box taken is kept."""
        if self._value is not None:
            return self._value
        if prec != self._prec:
            box = rounded_box(self.lo, self.hi, self.exp, prec)
            if box is None:
                return self.value()
            self._prec, self._box = prec, box
        return self._box

    def __eq__(self, other) -> bool:
        if other is self:
            return True
        if isinstance(other, Deferred):
            low, high = other.bit_range()
        elif isinstance(other, int):
            low = high = other.bit_length()
        else:
            return NotImplemented
        mine = self.bit_range()
        if high < mine[0] or low > mine[1]:
            return False
        return self.value() == (other.value() if isinstance(other, Deferred) else other)

    def __hash__(self):
        return hash(self.value())

    def __repr__(self):
        if self._value is not None:
            return repr(self._value)
        low, high = self.bit_range()
        return f"<N of {low}..{high} bits>"


def _settle(merged: dict, pending: dict) -> tuple:
    """The sorted terms of merged (int atom -> coeff) and pending (id ->
    [Deferred, coeff]).  Each atom is placed by its key interval: exactly
    its enclosure for a deferred atom, as keys are read at the bits of the
    widest enclosure, and the rounding of an exact atom.  The atoms of a
    cluster of meeting intervals are built, merged and sorted exactly; any
    other atom takes its place by its interval.  An exact atom whose bit
    length is outside the enclosures' range meets none of them, so its
    bit length alone places it.
    """
    deferred = [(atom, coeff) for atom, coeff in pending.values() if coeff]
    if not deferred:
        return tuple(sorted(merged.items()))
    prec = max(atom.hi.bit_length() for atom, _ in deferred)
    items = [(_key(atom.lo, atom.exp, prec), _key(atom.hi, atom.exp, prec), (atom, coeff))
             for atom, coeff in deferred]
    low = (min(lo for lo, _, _ in items) >> prec) - 1
    high = max(hi for _, hi, _ in items) >> prec
    for atom, coeff in merged.items():
        bits = atom.bit_length()
        key = _key(atom, 0, prec) if low <= bits <= high else bits << prec
        items.append((key, key + 1, (atom, coeff)))
    terms: list = []
    for cluster in _clusters(items):
        if len(cluster) == 1:
            terms += cluster
            continue
        exact: dict = {}
        for atom, coeff in cluster:
            n = atom.value() if type(atom) is Deferred else atom
            exact[n] = exact.get(n, 0) + coeff
        terms += sorted((n, coeff) for n, coeff in exact.items() if coeff)
    return tuple(terms)


class LogExpr:
    """const + sum of coeff*log(atom) with Fraction coeffs and atoms that are
    ints >= 2 or Deferred, sorted by value."""

    __slots__ = ("const", "terms", "_hash", "_deferred")

    def __init__(self, terms: Mapping[int, Fraction] | Iterable[Tuple[int, Fraction]] = (),
                 const: Fraction | int = 0):
        items = terms.items() if isinstance(terms, Mapping) else terms
        merged: dict[int, Fraction] = {}
        pending: dict[int, list] = {}
        for atom, coeff in items:
            coeff = _as_fraction(coeff)
            if type(atom) is Deferred:
                if atom._value is None:
                    entry = pending.get(id(atom))
                    if entry is None:   # no Fraction sum for an atom met once
                        pending[id(atom)] = [atom, coeff]
                    else:
                        entry[1] += coeff
                    continue
                atom = atom._value
            if atom <= 0:
                raise ValueError(f"log atom must be positive, got {atom}")
            if atom == 1 or coeff == 0:
                continue
            acc = merged.get(atom, 0) + coeff
            if acc:
                merged[atom] = acc
            else:
                merged.pop(atom, None)
        sorted_terms = _settle(merged, pending)
        object.__setattr__(self, "terms", sorted_terms)
        object.__setattr__(self, "const", _as_fraction(const))
        object.__setattr__(self, "_hash", None)
        object.__setattr__(self, "_deferred", bool(pending) and any(
            type(atom) is Deferred for atom, _ in sorted_terms))

    def __setattr__(self, name, value):
        raise AttributeError("LogExpr is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "LogExpr":
        return _ZERO

    @classmethod
    def log_int(cls, n: int, coeff: Fraction | int = 1) -> "LogExpr":
        """coeff * log(n) for a positive integer n."""
        if n <= 0:
            raise ValueError(f"log_int needs a positive integer, got {n}")
        return cls(((n, _as_fraction(coeff)),))

    @classmethod
    def log_fraction(cls, q: Fraction, coeff: Fraction | int = 1) -> "LogExpr":
        """coeff * log(q) for a positive rational q."""
        if q <= 0:
            raise ValueError(f"log_fraction needs a positive rational, got {q}")
        c = _as_fraction(coeff)
        return cls(((q.numerator, c), (q.denominator, -c)))

    @classmethod
    def constant(cls, q: Fraction | int) -> "LogExpr":
        return cls((), _as_fraction(q))

    # -- algebra -----------------------------------------------------------

    def __add__(self, other: "LogExpr") -> "LogExpr":
        if not isinstance(other, LogExpr):
            return NotImplemented
        return LogExpr(tuple(self.terms) + tuple(other.terms), self.const + other.const)

    def __sub__(self, other: "LogExpr") -> "LogExpr":
        if not isinstance(other, LogExpr):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "LogExpr":
        return self._scaled(Fraction(-1))

    def __mul__(self, scalar) -> "LogExpr":
        s = _as_fraction(scalar)
        if s == 0:
            return _ZERO
        return self._scaled(s)

    def _scaled(self, s: Fraction) -> "LogExpr":
        """s * self for s != 0: the atoms and their order stay as they are."""
        out = object.__new__(LogExpr)
        object.__setattr__(out, "terms", tuple((a, c * s) for a, c in self.terms))
        object.__setattr__(out, "const", self.const * s)
        object.__setattr__(out, "_hash", None)
        object.__setattr__(out, "_deferred", self._deferred)
        return out

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return (isinstance(other, LogExpr) and self.terms == other.terms
                and self.const == other.const)

    def __hash__(self):
        h = object.__getattribute__(self, "_hash")
        if h is None:
            h = hash((self.terms, self.const))
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self):
        if not self.terms and not self.const:
            return "LogExpr(0)"
        parts = [f"{c}*log({a})" for a, c in self.terms]
        if self.const:
            parts.append(str(self.const))
        return "LogExpr(" + " + ".join(parts) + ")"

    @property
    def is_structural_zero(self) -> bool:
        """True when the canonical form is literally 0 (sufficient, not necessary)."""
        return not self.terms and self.const == 0

    # -- evaluation --------------------------------------------------------

    def interval(self, prec: int = DEFAULT_PRECISION, logs: Optional[dict] = None):
        """Enclosing mpmath interval at the given binary precision (logs as
        in interval_sum).  A deferred atom enters as its box at prec, which
        is iv.mpf of the atom, so the endpoints are those of the same
        expression over integers."""
        if not self._deferred:
            return interval_sum(self.const, self.terms, prec, logs)
        return interval_sum(self.const, [(atom.box(prec) if type(atom) is Deferred else atom, c)
                                         for atom, c in self.terms], prec, logs)

    def upper_bound(self, prec: int = DEFAULT_PRECISION) -> Fraction:
        """The upper endpoint of interval(prec) as an exact rational, so a
        certified upper bound on the value."""
        return Fraction(*to_rational(self.interval(prec)._mpi_[1]))

    def float_bounds(self, prec: int = DEFAULT_PRECISION) -> Tuple[float, float]:
        """Outward-rounded float enclosure (safe for reporting, not decisions).

        The float cast may err by under one ulp in either direction, so two
        nextafter steps guarantee strict enclosure.
        """
        box = self.interval(prec)
        lo = math.nextafter(math.nextafter(float(box.a), -math.inf), -math.inf)
        hi = math.nextafter(math.nextafter(float(box.b), math.inf), math.inf)
        return lo, hi

    def to_float(self, prec: int = DEFAULT_PRECISION) -> float:
        box = self.interval(prec)
        return (float(box.a) + float(box.b)) / 2

    # -- exact sign --------------------------------------------------------

    def sign(self, prec: int = DEFAULT_PRECISION) -> Optional[int]:
        """Certified sign: -1, 0, +1, or None when undecidable at budget.

        0 is returned only when the value is proven zero exactly.
        """
        if self.is_structural_zero:
            return 0
        for factor in _ESCALATIONS:
            box = self.interval(prec * factor)
            if box.a > 0:
                return 1
            if box.b < 0:
                return -1
        if self.const == 0:
            return self._sign_exact()
        return None

    def exact_sign(self) -> Optional[int]:
        """Integer power-product sign, skipping interval stages.

        Cheap when coefficients have small denominators and atoms are not
        huge; None when a nonzero constant part blocks exactness.
        """
        if self.is_structural_zero:
            return 0
        if self.const != 0:
            return None
        return self._sign_exact()

    def _sign_exact(self) -> Optional[int]:
        lcm = math.lcm(*(coeff.denominator for _, coeff in self.terms))
        pos_bits = neg_bits = 0
        exps = []
        for atom, coeff in self.terms:
            e = int(coeff * lcm)
            exps.append((atom, e))
            bits = abs(e) * atom.bit_length()
            if e > 0:
                pos_bits += bits
            else:
                neg_bits += bits
        if max(pos_bits, neg_bits) > EXACT_FALLBACK_BIT_CAP:
            return None
        pos = neg = 1
        for atom, e in exps:
            if type(atom) is Deferred:
                atom = atom.value()
            if e > 0:
                pos *= atom ** e
            else:
                neg *= atom ** (-e)
        if pos == neg:
            return 0
        return 1 if pos > neg else -1


def interval_sum(const: Fraction, terms: Iterable[tuple], prec: int = DEFAULT_PRECISION,
                 logs: Optional[dict] = None):
    """const + sum of coeff*log(atom) over (atom, coeff) terms, as an mpmath
    interval at prec bits, the terms added in the order given.

    An atom is an integer >= 2, or an (a, b) pair of raw mpf endpoints equal
    to iv.mpf of such an integer at prec (an atom known only by its box).
    logs, when given, maps each atom to its log box at prec and is extended,
    so sums that share atoms take each log once.  A zero constant is not
    added and a unit coefficient not multiplied: both steps are exact, so
    the endpoints are those of the full sum.  This is the one place a log
    is taken.
    """
    old = iv.prec
    iv.prec = prec
    try:
        total = iv.mpf(const.numerator) / iv.mpf(const.denominator) if const else None
        scales: dict[Fraction, object] = {}
        for atom, coeff in terms:
            term = None if logs is None else logs.get(atom)
            if term is None:
                term = iv.log(iv.mpf(atom) if isinstance(atom, int) else iv.make_mpf(atom))
                if logs is not None:
                    logs[atom] = term
            if coeff != 1:
                scale = scales.get(coeff)
                if scale is None:
                    scale = scales[coeff] = iv.mpf(coeff.numerator) / iv.mpf(coeff.denominator)
                term = scale * term
            total = term if total is None else total + term
        return iv.mpf(0) if total is None else total
    finally:
        iv.prec = old


_ZERO = LogExpr()

