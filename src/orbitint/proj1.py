"""Normalized points of P^1(Q), naive height, and the chordal metric.

Points are integer coordinate pairs [x : y] with gcd(x, y) = 1 and canonical
sign (y > 0, or y = 0 and x = 1), so [a/b, 1] = [a : b] and infinity = [1 : 0].
With that normalization the finite-place chordal distance reduces to the
p-adic valuation of the 2x2 determinant, and the archimedean one to exact
logs of the determinant and of the two sums of squares.

Report integers are written by `int_text`: decimal up to HEX_BITS bits, hex
above, so writing a coordinate of any size takes linear time and never meets
the interpreter's limit on int-to-decimal conversion.  Config integers are
read by `read_int` (and `read_fraction`), which meets the limit on
decimal-to-int conversion just as rarely.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Optional

from . import polys
from .errors import Record
from .logvals import POS_INF, Deferred, LogExpr, _Infinite, deferred_atom
from .places import Place, padic_valuation, strip_prime

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


# Not a setting either: a decimal text longer than this is read in chunks
# of this many digits, well under CPython's default limit of 4,300.
READ_DIGITS = 4000
_RATIO = re.compile(r"\s*([+-]?[0-9]+)(?:/([0-9]+))?\s*")


def read_int(text: str) -> int:
    """int(text) for a decimal integer of any length.

    A text of more than READ_DIGITS digits (ASCII, with an optional sign) is
    read in chunks of READ_DIGITS digits, merged pairwise up to the whole, so
    the interpreter's limit on decimal conversion never applies and its
    setting is left alone; any other text goes to int() as it is.
    """
    m = _RATIO.fullmatch(text)
    if m is None or m.group(2) is not None or len(m.group(1)) <= READ_DIGITS:
        return int(text)
    digits = m.group(1).lstrip("+-")
    digits = digits.zfill(-(-len(digits) // READ_DIGITS) * READ_DIGITS)
    values = [int(digits[i:i + READ_DIGITS]) for i in range(0, len(digits), READ_DIGITS)]
    scale = 10 ** READ_DIGITS
    while len(values) > 1:
        if len(values) % 2:
            values.insert(0, 0)
        values = [high * scale + low for high, low in zip(values[::2], values[1::2])]
        scale *= scale
    return -values[0] if m.group(1).startswith("-") else values[0]


def read_fraction(text: str) -> Fraction:
    """Fraction(text), with an integer 'a' or a ratio 'a/b' of any length
    read by read_int."""
    m = _RATIO.fullmatch(text)
    if m is None:
        return Fraction(text)
    return Fraction(read_int(m.group(1)), read_int(m.group(2) or "1"))


class ProjPoint(Record):
    """Point [x : y] of P^1(Q) in canonical coprime form.

    The constructor does not check the form: build points from user data with
    `normalize`.  Code that relies on it (`ratmap.eval_point` reduces by the
    map's resultant only, and S-integrality reads y as the reduced
    denominator) needs gcd(x, y) = 1 and y > 0, or [1 : 0].
    """

    __slots__ = _fields = ("x", "y")

    # One is built per tree node: the fields are set through their slots,
    # and compared and hashed with no generic _key.
    def __init__(self, x: int, y: int):
        if x == 0 and y == 0:
            raise ValueError("[0 : 0] is not a projective point")
        _set_x(self, x)
        _set_y(self, y)

    def __eq__(self, other):
        if type(other) is not ProjPoint:
            return NotImplemented
        return self.x == other.x and self.y == other.y

    def __hash__(self):
        return hash((self.x, self.y))

    @property
    def is_infinite(self) -> bool:
        return self.y == 0

    def height(self) -> LogExpr:
        """log max(|x|, |y|); finite places contribute nothing once gcd = 1."""
        return LogExpr.log_int(max(abs(self.x), abs(self.y)))

    def __str__(self) -> str:
        return f"[{int_text(self.x)}:{int_text(self.y)}]"


_set_x, _set_y = ProjPoint.x.__set__, ProjPoint.y.__set__


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
        return normalize(read_int(a.strip()), read_int(b.strip()))
    return normalize(read_fraction(text))


def log_chordal(p: ProjPoint | polys.Enclosure, q: ProjPoint, v: Place) -> LogExpr | _Infinite:
    """-log of the chordal distance between normalized points at a place.

    Equal points give POS_INF (distance zero), never an error.  At the
    archimedean place the value is
    -log|det| + (1/2) log(x^2 + y^2) + (1/2) log(x'^2 + y'^2), left unreduced:
    reducing it as a fraction would take a gcd of orbit-sized integers.  A
    large point's sum of squares is a deferred atom (see _sum_of_squares).

    p may instead be the polys.Enclosure of a point not built, as of an
    orbit step: the value is then read from the box where it decides (see
    _enclosed), and taken at the point its lineage builds where it does not.
    """
    if isinstance(p, polys.Enclosure):
        dist = _enclosed(p, q, v)
        if dist is not None:
            return dist
        p = p.lineage.build()
    det = _det(p, q)
    if det == 0:
        return POS_INF
    if v.is_archimedean:
        return _archimedean(abs(det), _sum_of_squares(p), q)
    # gcd(x, y) = 1 makes both max-terms p-adic units.
    return LogExpr.log_int(v.prime, padic_valuation(det, v.prime))


def _det(p: ProjPoint, q: ProjPoint) -> int:
    return p.x * q.y - q.x * p.y


def _squares(p: ProjPoint) -> int:
    return p.x * p.x + p.y * p.y


def _archimedean(det: int | Deferred, squares: int | Deferred, q: ProjPoint) -> LogExpr:
    """The archimedean chordal log, from |det| and x^2 + y^2 of the moving point."""
    half = Fraction(1, 2)
    return LogExpr(((det, -1), (squares, half), (_sum_of_squares(q), half)))


def _enclosed(box: polys.Enclosure, q: ProjPoint, v: Place) -> Optional[LogExpr]:
    """log_chordal of a point from its enclosure box (of the point or of -1
    times it, which changes no term), or None where the box does not decide
    it.  |det| and x^2 + y^2 are deferred atoms over the box's bounds on the
    forms x q_y - q_x y and x^2 + y^2, built (if ever) by the box's lineage;
    v_p(det) is read from det mod p^polys.RESIDUE_DIGITS, which decides it
    unless det is 0 there."""
    det = (-q.x, q.y)   # x q_y - q_x y, ascending in X
    if not v.is_archimedean:
        residue = box.values(det, (), 1, v.prime ** polys.RESIDUE_DIGITS)[0]
        return LogExpr.log_int(v.prime, strip_prime(residue, v.prime)[0]) if residue else None
    lo, hi, e = box.bounds(det, 1)
    if lo <= 0 <= hi:
        return None
    build = box.lineage.build   # the atoms hold the lineage, never the box
    size = deferred_atom((min(abs(lo), abs(hi)), max(abs(lo), abs(hi)), e),
                         lambda: abs(_det(build(), q)))
    squares = deferred_atom(box.bounds(_SQUARES, 2), lambda: _squares(build()))
    return None if size is None or squares is None else _archimedean(size, squares, q)


def _sum_of_squares(p: ProjPoint) -> int | Deferred:
    """x^2 + y^2, deferred for a point that polys.Enclosure.of encloses."""
    box = polys.Enclosure.of(p.x, p.y, (polys.BOX_BITS, polys.BOX_BITS))
    atom = None if box is None else deferred_atom(box.bounds(_SQUARES, 2), lambda: _squares(p))
    return _squares(p) if atom is None else atom


def chordal_sum(p: ProjPoint | polys.Enclosure, q: ProjPoint, places) -> LogExpr | _Infinite:
    """Sum of local-degree-weighted chordal logs over a set of places; p may
    be the enclosure of a point not built (see log_chordal)."""
    total = LogExpr.zero()
    for v in places:
        dist = log_chordal(p, q, v)
        if isinstance(dist, _Infinite):
            return POS_INF
        total = total + dist * v.local_degree
    return total
