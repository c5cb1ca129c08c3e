"""Exact logarithmic quantities with certified interval evaluation.

Every height and local distance in this package is a rational number plus a
rational linear combination of logarithms of positive integers.  Carrying the
combination symbolically keeps identities (product formula, multiplicativity,
height decompositions) exact; rounding happens only when a value is
materialized for a report or compared against a genuinely uncertain interval.

Sign determination is three-staged: interval arithmetic at the working
precision, precision escalation, and (for pure-log expressions) an exact
fallback that clears denominators and compares integer power products.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Tuple

from mpmath import iv
from mpmath.libmp import to_rational

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


class LogExpr:
    """const + sum of coeff*log(atom) with Fraction coeffs and int atoms >= 2."""

    __slots__ = ("const", "terms", "_hash")

    def __init__(self, terms: Mapping[int, Fraction] | Iterable[Tuple[int, Fraction]] = (),
                 const: Fraction | int = 0):
        items = terms.items() if isinstance(terms, Mapping) else terms
        merged: dict[int, Fraction] = {}
        for atom, coeff in items:
            if atom <= 0:
                raise ValueError(f"log atom must be positive, got {atom}")
            coeff = _as_fraction(coeff)
            if atom == 1 or coeff == 0:
                continue
            acc = merged.get(atom, 0) + coeff
            if acc:
                merged[atom] = acc
            else:
                merged.pop(atom, None)
        object.__setattr__(self, "terms", tuple(sorted(merged.items())))
        object.__setattr__(self, "const", _as_fraction(const))
        object.__setattr__(self, "_hash", None)

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
        return LogExpr(tuple((a, -c) for a, c in self.terms), -self.const)

    def __mul__(self, scalar) -> "LogExpr":
        s = _as_fraction(scalar)
        if s == 0:
            return _ZERO
        return LogExpr(tuple((a, c * s) for a, c in self.terms), self.const * s)

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> "LogExpr":
        return self * (Fraction(1) / _as_fraction(scalar))

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

    def interval(self, prec: int = DEFAULT_PRECISION):
        """Enclosing mpmath interval at the given binary precision."""
        return interval_sum(self.const, self.terms, prec)

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

