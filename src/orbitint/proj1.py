"""Normalized points of P^1(Q), naive height, and the chordal metric.

Points are integer coordinate pairs [x : y] with gcd(x, y) = 1 and canonical
sign (y > 0, or y = 0 and x = 1), so [a/b, 1] = [a : b] and infinity = [1 : 0].
With that normalization the finite-place chordal distance reduces to the
p-adic valuation of the 2x2 determinant, and the archimedean one to exact
logs of the determinant and of the two sums of squares.

Report integers are written by `int_text`: decimal up to HEX_BITS bits, hex
above, so writing a coordinate of any size takes linear time and never meets
the interpreter's limit on int-to-decimal conversion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import polys
from .logvals import POS_INF, Deferred, LogExpr, _Infinite, deferred_atom
from .places import Place, padic_valuation

# X^2 + Y^2, ascending in X (see polys.Enclosure.bounds).
_SQUARES = (1, 0, 1)

# Not a setting: every integer of at most this many bits has fewer than 2,470
# decimal digits, well under CPython's default conversion limit of 4,300.
HEX_BITS = 1 << 13


def int_text(n: int) -> str:
    """str(n) up to HEX_BITS bits, hex(n) ("0x..." or "-0x...") above.

    Decimal conversion is quadratic in CPython; hex is linear.  The hex
    digits come from bytes.hex, which writes them about three times faster
    than hex(n); dropping the one possible leading zero gives hex(n)'s text.
    """
    bits = n.bit_length()
    if bits <= HEX_BITS:
        return str(n)
    digits = abs(n).to_bytes((bits + 7) // 8, "big").hex().lstrip("0")
    return ("-0x" if n < 0 else "0x") + digits


@dataclass(frozen=True)
class ProjPoint:
    """Point [x : y] of P^1(Q) in canonical coprime form.

    The constructor does not check the form: build points from user data with
    `normalize`.  Code that relies on it (`ratmap.eval_point` reduces by the
    map's resultant only, and S-integrality reads y as the reduced
    denominator) needs gcd(x, y) = 1 and y > 0, or [1 : 0].
    """

    x: int
    y: int

    def __post_init__(self):
        if self.x == 0 and self.y == 0:
            raise ValueError("[0 : 0] is not a projective point")

    @property
    def is_infinite(self) -> bool:
        return self.y == 0

    def height(self) -> LogExpr:
        """log max(|x|, |y|); finite places contribute nothing once gcd = 1."""
        return LogExpr.log_int(max(abs(self.x), abs(self.y)))

    def __str__(self) -> str:
        return f"[{int_text(self.x)}:{int_text(self.y)}]"


def normalize(x: int | Fraction, y: Optional[int] = None) -> ProjPoint:
    """Canonical representative of [x : y]; a single rational maps to [a : b]."""
    if y is None:
        q = Fraction(x)
        return ProjPoint(q.numerator, q.denominator)
    if isinstance(x, Fraction) or isinstance(y, Fraction):
        qx, qy = Fraction(x), Fraction(y)
        m = math.lcm(qx.denominator, qy.denominator)
        x, y = int(qx * m), int(qy * m)
    if x == 0 and y == 0:
        raise ValueError("cannot normalize (0, 0)")
    g = math.gcd(x, y)
    return from_coprime(x // g, y // g)


def from_coprime(x: int, y: int) -> ProjPoint:
    """[x : y] for a coprime pair, with the canonical sign: y > 0, or [1 : 0]."""
    if y < 0 or (y == 0 and x < 0):
        x, y = -x, -y
    return ProjPoint(x, y)


INFINITY = ProjPoint(1, 0)
ZERO = ProjPoint(0, 1)


def parse_point(text: str) -> ProjPoint:
    """Parse 'a/b', 'a', 'inf', or '[a:b]'."""
    text = text.strip()
    if text in ("inf", "infinity", "oo"):
        return INFINITY
    if text.startswith("[") and text.endswith("]"):
        a, b = text[1:-1].split(":")
        return normalize(int(a.strip()), int(b.strip()))
    return normalize(Fraction(text))


def log_chordal(p: ProjPoint, q: ProjPoint, v: Place) -> LogExpr | _Infinite:
    """-log of the chordal distance between normalized points at a place.

    Equal points give POS_INF (distance zero), never an error.  At the
    archimedean place the value is
    -log|det| + (1/2) log(x^2 + y^2) + (1/2) log(x'^2 + y'^2), left unreduced:
    reducing it as a fraction would take a gcd of orbit-sized integers.  A
    large point's sum of squares is a deferred atom (see _sum_of_squares).
    """
    det = p.x * q.y - q.x * p.y
    if det == 0:
        return POS_INF
    if v.is_archimedean:
        half = Fraction(1, 2)
        return LogExpr(((abs(det), -1), (_sum_of_squares(p), half),
                        (_sum_of_squares(q), half)))
    # gcd(x, y) = 1 makes both max-terms p-adic units.
    return LogExpr.log_int(v.prime, padic_valuation(det, v.prime))


def _sum_of_squares(p: ProjPoint) -> int | Deferred:
    """x^2 + y^2, deferred for a point of at least polys.ENCLOSE_BITS bits."""
    atom = None
    if max(p.x.bit_length(), p.y.bit_length()) >= polys.ENCLOSE_BITS:
        box = polys.Enclosure.of(p.x, p.y, polys.BOX_BITS, polys.BOX_BITS)
        atom = deferred_atom(box.bounds(_SQUARES, 2), lambda: p.x * p.x + p.y * p.y)
    return p.x * p.x + p.y * p.y if atom is None else atom


def chordal_sum(p: ProjPoint, q: ProjPoint, places) -> LogExpr | _Infinite:
    """Sum of local-degree-weighted chordal logs over a set of places."""
    total = LogExpr.zero()
    for v in places:
        dist = log_chordal(p, q, v)
        if isinstance(dist, _Infinite):
            return POS_INF
        total = total + dist * v.local_degree
    return total
