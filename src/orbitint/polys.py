"""Dense polynomial arithmetic over Z and Q in ascending coefficient order.

Just enough machinery for normalized rational maps: content and primitive
parts, gcd over Q with an integer witness, one fraction-free (Bareiss)
elimination per map that gives both the homogeneous resultant and the
cofactor identities behind certified height-difference constants, and one
homogeneous evaluator.  The evaluator reads a per-point table of
monomials x^i * y^j (`Monomials`) that several forms at one point can share,
so binary forms cost one product per distinct monomial plus linear-time
small-coefficient sums.  `Enclosure` is what the screens and deferred
atoms read of a point they do not build: a box of each coordinate's top
bits at an exponent of its own, its residues modulo any m (forms at them
by Horner's rule), certified bounds on a form over the box, and the same
for the point's image under a map, whose box keeps the trim of this one.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, Optional, Sequence

if TYPE_CHECKING:
    from .ratmap import RatMap

Coeffs = tuple

def strip(cs: Sequence) -> tuple:
    """Drop trailing zero coefficients."""
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def degree(cs: Sequence) -> int:
    """Degree of the stripped polynomial; -1 for the zero polynomial."""
    return len(strip(cs)) - 1


def add(a: Sequence, b: Sequence) -> tuple:
    n = max(len(a), len(b))
    return strip([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
                  for i in range(n)])


def neg(a: Sequence) -> tuple:
    return tuple(-c for c in a)


def mul(a: Sequence, b: Sequence) -> tuple:
    a, b = strip(a), strip(b)
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca == 0:
            continue
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return tuple(out)


def scale(a: Sequence, s) -> tuple:
    return strip([c * s for c in a])


class Monomials:
    """The monomials x^i * y^j of one point, each built once, on first use.

    Every entry costs one product: a pure power is a squaring of the power at
    half the exponent (x^2, x^4, ...) or the power one below times x (x^3 =
    x^2 * x), and a mixed term is x^i * y^j.  All forms evaluated at the
    point read the same table, so the k maps at a tree node share their
    powers of x and y.
    """

    __slots__ = ("_powers", "_mixed")

    def __init__(self, x: int, y: int):
        self._powers = ({0: 1, 1: x}, {0: 1, 1: y})
        self._mixed: dict[tuple[int, int], int] = {}

    def _power(self, axis: int, n: int) -> int:
        """x^n (axis 0) or y^n (axis 1), with the missing powers on its
        halving chain built bottom up."""
        powers = self._powers[axis]
        chain = []
        m = n
        while m not in powers:
            chain.append(m)
            m = m - 1 if m % 2 else m // 2
        for m in reversed(chain):
            if m % 2:
                powers[m] = powers[m - 1] * powers[1]
            else:
                half = powers[m // 2]
                powers[m] = half * half  # one operand twice: CPython squares
        return powers[n]

    def __getitem__(self, ij: tuple[int, int]) -> int:
        """x^i * y^j."""
        i, j = ij
        if not (i and j):
            return self._power(1, j) if j else self._power(0, i)
        value = self._mixed.get(ij)
        if value is None:
            value = self._mixed[ij] = self._power(0, i) * self._power(1, j)
        return value


def eval_homogeneous(f: Sequence, g: Sequence, d: int, x: int, y: int,
                     table: Optional[Monomials] = None) -> tuple[int, int]:
    """(F(x, y), G(x, y)) for the degree-d homogenizations of f and g.

    Both are small-coefficient sums of the monomials x^i * y^(d-i) read from
    table, the Monomials of (x, y); a table of its own is built when none is
    given.  A coefficient 1 takes the entry itself and a first term starts
    the sum, since either operation would copy a full-size integer.
    """
    if table is None:
        table = Monomials(x, y)
    u = v = 0
    for i in range(d + 1):
        a = f[i] if i < len(f) else 0
        b = g[i] if i < len(g) else 0
        if a or b:
            term = table[i, d - i]
            if a:
                scaled = term if a == 1 else a * term
                u = u + scaled if u else scaled
            if b:
                scaled = term if b == 1 else b * term
                v = v + scaled if v else scaled
    return u, v


def _trim(xs: tuple[int, int, int], ys: tuple[int, int, int], small_bits: int,
          large_bits: int) -> tuple[tuple[int, int, int], tuple[int, int, int]]:
    """The box x_lo * 2^ex <= x <= x_hi * 2^ex by y_lo * 2^ey <= y <= y_hi *
    2^ey, given as xs = (x_lo, x_hi, ex) and ys = (y_lo, y_hi, ey), each
    coordinate widened outward to an exponent of its own, no smaller than
    its given one, that keeps at most large_bits of its bits and at most
    small_bits + gap, where gap is how many bits longer it is than the
    smaller coordinate (sizes read from the corner of larger absolute
    value).  So the smaller coordinate keeps small_bits; while the gap is
    at most large_bits - small_bits the two share one exponent, and past it
    the larger keeps large_bits at its own.  A coordinate whose dropped bits
    are all 0 keeps its width."""
    (x_lo, x_hi, ex), (y_lo, y_hi, ey) = xs, ys
    x_bits = max(-x_lo, x_hi).bit_length() + ex
    y_bits = max(-y_lo, y_hi).bit_length() + ey
    floor = min(x_bits, y_bits) - small_bits
    x_drop = max(0, floor - ex, x_bits - large_bits - ex)
    y_drop = max(0, floor - ey, y_bits - large_bits - ey)
    return ((x_lo >> x_drop, -(-x_hi >> x_drop), ex + x_drop),
            (y_lo >> y_drop, -(-y_hi >> y_drop), ey + y_drop))


def _one_exponent(xs: tuple[int, int, int],
                  ys: tuple[int, int, int]) -> Optional[tuple[tuple, tuple]]:
    """xs and ys on one exponent, exactly: the coordinate of the larger
    exponent shifted down to the other's, or None where that would more
    than double the length of its mantissa."""
    (x_lo, x_hi, ex), (y_lo, y_hi, ey) = xs, ys
    if ex == ey:
        return xs, ys
    if ex > ey:
        if ex - ey > max(-x_lo, x_hi).bit_length():
            return None
        return (x_lo << ex - ey, x_hi << ex - ey, ey), ys
    if ey - ex > max(-y_lo, y_hi).bit_length():
        return None
    return xs, (y_lo << ey - ex, y_hi << ey - ex, ex)


def _align(ranges: Sequence[tuple[int, int, int]]) -> tuple[int, list[tuple[int, int]]]:
    """(e, [(lo', hi'), ...]): each range lo * 2^f <= t <= hi * 2^f, given as
    (lo, hi, f), widened outward to lo' * 2^e <= t <= hi' * 2^e on one
    exponent e.  e is the least f, raised so that the largest range keeps
    as many bits as the longest of them has: no shift builds a longer
    integer, and a range under 2^e is rounded out to the grid of 2^e."""
    least, width, top = ranges[0][2], 0, 0
    for lo, hi, f in ranges:
        bits = max(-lo, hi).bit_length()
        width, top, least = max(width, bits), max(top, bits + f), min(least, f)
    e = max(least, top - width)
    return e, [(lo << f - e, hi << f - e) if f >= e else (lo >> e - f, -(-hi >> e - f))
               for lo, hi, f in ranges]


def _power_bounds(lo: int, hi: int, n: int) -> tuple[int, int]:
    """Exact bounds on t^n over the real interval lo <= t <= hi."""
    if lo >= 0 or n % 2 or n == 0:
        return lo ** n, hi ** n
    if hi <= 0:
        return hi ** n, lo ** n
    return 0, max(lo ** n, hi ** n)


def _form_bounds(cs: Sequence, d: int, xs: tuple[int, int, int],
                 ys: tuple[int, int, int]) -> tuple[int, int, int]:
    """(lo, hi, e) with lo * 2^e <= sum of cs[i] X^i Y^(d-i) <= hi * 2^e over
    the box x_lo * 2^ex <= X <= x_hi * 2^ex, y_lo * 2^ey <= Y <= y_hi * 2^ey
    of xs = (x_lo, x_hi, ex) and ys = (y_lo, y_hi, ey).

    Each monomial is bounded exactly and the bounds are added, so the
    enclosure is certified; it is as wide as the box makes the terms, and
    only as tight as their sum does not cancel.  In a box off both axes a
    monomial's bounds are those of |X|^i |Y|^(d-i), with its sign.  On one
    exponent e (_one_exponent) the sum is exact at d * e; else the terms
    are put on one exponent first (_align), rounded outward.
    """
    shared = _one_exponent(xs, ys)
    (x_lo, x_hi, ex), (y_lo, y_hi, ey) = shared or (xs, ys)
    off_axes = (x_lo > 0 or x_hi < 0) and (y_lo > 0 or y_hi < 0)
    if off_axes:
        ax, bx = (x_lo, x_hi) if x_lo > 0 else (-x_hi, -x_lo)
        ay, by = (y_lo, y_hi) if y_lo > 0 else (-y_hi, -y_lo)
    lo = hi = 0
    terms = []   # (lo, hi, exponent) of each term, off one exponent
    for i, c in enumerate(cs):
        if c:
            if off_axes:
                a, b = ax ** i * ay ** (d - i), bx ** i * by ** (d - i)
                if (x_hi < 0 and i % 2 == 1) != (y_hi < 0 and (d - i) % 2 == 1):
                    a, b = -b, -a
            else:
                xlo, xhi = _power_bounds(x_lo, x_hi, i)
                ylo, yhi = _power_bounds(y_lo, y_hi, d - i)
                ends = (xlo * ylo, xlo * yhi, xhi * ylo, xhi * yhi)
                a, b = min(ends), max(ends)
            a, b = (c * a, c * b) if c > 0 else (c * b, c * a)
            if shared:
                lo, hi = lo + a, hi + b
            else:
                terms.append((a, b, i * ex + (d - i) * ey))
    if not terms:
        return lo, hi, d * ex
    e, aligned = _align(terms)
    return sum(a for a, _ in aligned), sum(b for _, b in aligned), e


# A point of at least ENCLOSE_BITS bits is enclosed where only its size and
# residues are read (Enclosure.of is the one gate): below that, building its
# images costs less.  The census's boxes and those of word walks and sums of
# squares keep at most BOX_BITS bits of the larger coordinate, so an atom
# read from one decides its interval at every precision well below that.  A
# valuation v_p is read from residues modulo p^RESIDUE_DIGITS first.
ENCLOSE_BITS = 1024
BOX_BITS = 2048
RESIDUE_DIGITS = 64


class Enclosure:
    """A point [x : y] known without being built: x_lo * 2^ex <= x <= x_hi *
    2^ex and y_lo * 2^ey <= y <= y_hi * 2^ey, each coordinate its top bits
    at an exponent of its own, trimmed at bits (xs = (x_lo, x_hi, ex), ys
    likewise; see _trim) as its images are, and (x, y) mod any m; each form
    is bounded over the box once.  Its lineage (an orbits.Lineage) builds it."""

    __slots__ = ("xs", "ys", "lineage", "_bits", "_reduce", "_residues", "_bounds")

    def __init__(self, xs: tuple[int, int, int], ys: tuple[int, int, int], bits: tuple[int, int],
                 reduce: Callable[[int], tuple[int, int]], lineage=None):
        self.xs, self.ys, self.lineage, self._bits, self._reduce = xs, ys, lineage, bits, reduce
        self._residues: dict[int, tuple[int, int]] = {}   # m -> (x mod m, y mod m)
        self._bounds: dict[tuple, tuple[int, int, int]] = {}   # (cs, d) -> bounds

    @classmethod
    def of(cls, x: int, y: int, bits: tuple[int, int], lineage=None) -> Optional["Enclosure"]:
        """The built point (x, y) of lineage, in the box of its top bits at
        bits = (small_bits, large_bits); None under ENCLOSE_BITS bits."""
        if max(x.bit_length(), y.bit_length()) < ENCLOSE_BITS:
            return None
        return cls(*_trim((x, x, 0), (y, y, 0), *bits), bits, lambda m: (x % m, y % m), lineage)

    def bounds(self, cs: Sequence, d: int) -> tuple[int, int, int]:
        """(lo, hi, e) with lo * 2^e <= sum of cs[i] x^i y^(d-i) <= hi * 2^e."""
        key = (tuple(cs), d)
        bounds = self._bounds.get(key)
        if bounds is None:
            bounds = self._bounds[key] = _form_bounds(cs, d, self.xs, self.ys)
        return bounds

    def values(self, f: Sequence, g: Sequence, d: int, m: int) -> tuple[int, int]:
        """(F(x, y), G(x, y)) mod m for the degree-d forms of f and g (a form
        given as () is not evaluated), by Horner's rule in x on the residues:
        at their size a product costs less than the table that would share
        it."""
        residues = self._residues.get(m)
        if residues is None:
            residues = self._residues[m] = self._reduce(m)
        x, y = residues
        u = v = 0
        y_power = 1   # y^(d-i)
        for i in range(d, -1, -1):
            if f:
                u = u * x + (f[i] * y_power if i < len(f) else 0)
            v = v * x + (g[i] * y_power if i < len(g) else 0)
            y_power *= y
        return u % m, v % m

    def image(self, phi: "RatMap") -> "Enclosure":
        """[F : G]/c for the degree-d forms F and G of the map phi and c =
        gcd(R, F mod R, G mod R) with R = |Res(F, G)|: at a coprime point,
        its image point (see ratmap.eval_point), or -1 times it.  The box is
        F's and G's bounds over this box divided by c, trimmed at this box's
        bits, the residues mod m are those mod m * c divided by c, and the
        lineage is this one's child under phi."""
        f, g, d, r = phi.f, phi.g, phi.degree, phi.resultant
        c = math.gcd(r, *self.values(f, g, d, r)) if r > 1 else 1
        (f_lo, f_hi, f_e), (g_lo, g_hi, g_e) = self.bounds(f, d), self.bounds(g, d)
        return Enclosure(*_trim((f_lo // c, -(-f_hi // c), f_e), (g_lo // c, -(-g_hi // c), g_e),
                                *self._bits),
                         self._bits, lambda m: tuple(t // c for t in self.values(f, g, d, m * c)),
                         None if self.lineage is None else self.lineage.child(phi))

    def size(self) -> tuple[int, int, int]:
        """(lo, hi, e) with lo * 2^e <= max(|x|, |y|) <= hi * 2^e: on the
        coordinates' one exponent (_one_exponent), or else on the one
        _align gives."""
        shared = _one_exponent(self.xs, self.ys)
        if shared:
            (x_lo, x_hi, e), (y_lo, y_hi, _) = shared
        else:
            e, ((x_lo, x_hi), (y_lo, y_hi)) = _align((self.xs, self.ys))
        return max(x_lo, -x_hi, y_lo, -y_hi, 0), max(-x_lo, x_hi, -y_lo, y_hi), e

    def bit_range(self) -> tuple[int, int]:
        """Bounds on max(|x|, |y|).bit_length() from the box: the one read
        of an enclosed point's bits."""
        lo, hi, e = self.size()
        return (lo.bit_length() + e if lo else 0), hi.bit_length() + e


def content(a: Sequence[int]) -> int:
    return math.gcd(*a)


def clear_denominators(a: Sequence[Fraction]) -> tuple:
    """Smallest positive integer multiple with integer coefficients."""
    lcm = math.lcm(*(Fraction(c).denominator for c in a))
    return tuple(int(Fraction(c) * lcm) for c in a)


def to_fractions(a: Sequence) -> tuple:
    return tuple(Fraction(c) for c in a)


def divmod_q(a: Sequence, b: Sequence) -> tuple:
    """Quotient and remainder over Q; b must be nonzero."""
    a, b = list(to_fractions(strip(a))), list(to_fractions(strip(b)))
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 1)
    lead = b[-1]
    while len(a) >= len(b) and a:
        k = len(a) - len(b)
        c = a[-1] / lead
        q[k] = c
        for i, cb in enumerate(b):
            a[k + i] -= c * cb
        while a and a[-1] == 0:
            a.pop()
    return strip(q), strip(a)


def gcd_q(a: Sequence, b: Sequence) -> tuple:
    """Monic gcd over Q, returned as a primitive integer polynomial."""
    a, b = strip(to_fractions(a)), strip(to_fractions(b))
    while b:
        a, b = b, divmod_q(a, b)[1]
    if not a:
        return ()
    ints = clear_denominators(a)
    c = content(ints)
    ints = tuple(v // c for v in ints)
    if ints[-1] < 0:
        ints = neg(ints)
    return ints


def sylvester_matrix(f: Sequence, g: Sequence, d: int) -> list[list[int]]:
    """Sylvester matrix of the degree-d homogenizations F, G of f and g
    (2d x 2d): rows X^(d-1-s) Y^s F, then G, columns X^(2d-1), ..., Y^(2d-1)."""
    rows = []
    for cs in (f, g):
        desc = [(cs[i] if i < len(cs) else 0) for i in range(d, -1, -1)]
        rows += [[0] * s + desc + [0] * (d - 1 - s) for s in range(d)]
    return rows


def cofactor_identities(f: Sequence, g: Sequence, d: int) -> tuple[int, tuple]:
    """Res(F, G) and the integer cofactor forms of the degree-d
    homogenizations F, G, from one fraction-free elimination.

    Returns (res, identities), res = det S for the Sylvester matrix S and
    each identity (u, v, target) the descending coefficient tuples of
    degree-(d-1) forms with u*F + v*G = res * X^target * Y^(2d-1-target),
    for target 2d-1 and 0.  (u, v) * S = res * e_c for the column c of that
    monomial, so (u, v) is row c of adj(S), the solution of S^T x = res * e_c:
    one Bareiss pass over S^T beside e_0 and e_(2d-1) leaves +-res as its
    last pivot, and an exact back substitution gives each x.  Raises
    ValueError when res is 0: then no identity exists.
    """
    n = 2 * d
    m = [list(column) + [int(j == 0), int(j == n - 1)]
         for j, column in enumerate(zip(*sylvester_matrix(f, g, d)))]
    sign = prev = 1
    for k in range(n):
        pivot = next((i for i in range(k, n) if m[i][k]), None)
        if pivot is None:
            raise ValueError("maps with vanishing resultant have no cofactor identity")
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        top, p = m[k], m[k][k]
        for row in m[k + 1:]:
            a = row[k]
            for j in range(k + 1, n + 2):
                row[j] = (row[j] * p - a * top[j]) // prev   # column k is not read again
        prev = p
    res = sign * prev
    identities = []
    for rhs, target in ((n, n - 1), (n + 1, 0)):   # e_0 is X^(2d-1), e_(n-1) Y^(2d-1)
        x = [0] * n
        for i in range(n - 1, -1, -1):
            row = m[i]
            x[i] = (res * row[rhs] - sum(row[j] * x[j] for j in range(i + 1, n))) // row[i]
        identities.append((tuple(x[:d]), tuple(x[d:]), target))
    return res, tuple(identities)
