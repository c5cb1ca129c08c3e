"""Dense polynomial arithmetic over Z and Q in ascending coefficient order.

Just enough machinery for normalized rational maps: content and primitive
parts, gcd over Q with an integer witness, one fraction-free (Bareiss)
determinant for both the homogeneous resultant and the signed minors that
give the cofactor identities behind certified height-difference constants,
and one homogeneous evaluator.  The evaluator reads a per-point table of
monomials x^i * y^j (`Monomials`) that several forms at one point can share,
so binary forms cost one product per distinct monomial plus linear-time
small-coefficient sums.  `Enclosure` is what the screens and deferred
atoms read of a point they do not build: a box of its top bits, its
residues modulo any m (a monomial table per modulus), certified bounds on
a form over the box, and the same for the point's image under a map.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Optional, Sequence

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


def _trim(shift: int, xs: tuple[int, int], ys: tuple[int, int], small_bits: int,
          large_bits: int) -> tuple[int, tuple[int, int], tuple[int, int]]:
    """The box xs * 2^shift by ys * 2^shift, widened outward to a larger
    shift that keeps at most small_bits of the smaller coordinate and at most
    large_bits of the larger (sizes read from the corner of larger absolute
    value).  A coordinate whose dropped bits are all 0 keeps its width."""
    (x_lo, x_hi), (y_lo, y_hi) = xs, ys
    low, high = sorted((max(x_lo.bit_length(), x_hi.bit_length()),
                        max(y_lo.bit_length(), y_hi.bit_length())))
    drop = max(0, low - small_bits, high - large_bits)
    return (shift + drop, (x_lo >> drop, -(-x_hi >> drop)),
            (y_lo >> drop, -(-y_hi >> drop)))


def _power_bounds(lo: int, hi: int, n: int) -> tuple[int, int]:
    """Exact bounds on t^n over the real interval lo <= t <= hi."""
    if lo >= 0 or n % 2 or n == 0:
        return lo ** n, hi ** n
    if hi <= 0:
        return hi ** n, lo ** n
    return 0, max(lo ** n, hi ** n)


def _form_bounds(cs: Sequence, d: int, xs: tuple[int, int],
                 ys: tuple[int, int]) -> tuple[int, int]:
    """Integer bounds (lo, hi) on the degree-d form sum of cs[i] X^i Y^(d-i)
    over the box xs[0] <= X <= xs[1], ys[0] <= Y <= ys[1].

    Each monomial is bounded exactly and the bounds are added, so the
    enclosure is certified; it is as wide as the box makes the terms, and
    only as tight as their sum does not cancel.
    """
    lo = hi = 0
    for i, c in enumerate(cs):
        if c:
            xlo, xhi = _power_bounds(*xs, i)
            ylo, yhi = _power_bounds(*ys, d - i)
            ends = (xlo * ylo, xlo * yhi, xhi * ylo, xhi * yhi)
            a, b = c * min(ends), c * max(ends)
            lo, hi = (lo + a, hi + b) if c > 0 else (lo + b, hi + a)
    return lo, hi


# A point of at least ENCLOSE_BITS bits is enclosed where only its size and
# residues are read: below that, building its images costs less.  The
# census's boxes and those of deferred steps and sums of squares keep at
# most BOX_BITS bits of the larger coordinate, so an atom read from one
# decides its interval at every precision well below that.
ENCLOSE_BITS = 1024
BOX_BITS = 2048


class Enclosure:
    """A point [x : y] known without being built: x in xs * 2^shift and y in
    ys * 2^shift, and (x, y) mod any m, with one monomial table per modulus
    that every form read at the point shares."""

    __slots__ = ("shift", "xs", "ys", "_reduce", "_tables")

    def __init__(self, shift: int, xs: tuple[int, int], ys: tuple[int, int],
                 reduce: Callable[[int], tuple[int, int]]):
        self.shift, self.xs, self.ys, self._reduce = shift, xs, ys, reduce
        self._tables: dict[int, tuple] = {}   # m -> (x mod m, y mod m, table)

    @classmethod
    def of(cls, x: int, y: int, small_bits: int, large_bits: int) -> "Enclosure":
        """The built point (x, y), in the box of its top bits (see _trim)."""
        return cls(*_trim(0, (x, x), (y, y), small_bits, large_bits),
                   lambda m: (x % m, y % m))

    def bounds(self, cs: Sequence, d: int) -> tuple[int, int, int]:
        """(lo, hi, e) with lo * 2^e <= sum of cs[i] x^i y^(d-i) <= hi * 2^e."""
        return (*_form_bounds(cs, d, self.xs, self.ys), self.shift * d)

    def values(self, f: Sequence, g: Sequence, d: int, m: int) -> tuple[int, int]:
        """(F(x, y), G(x, y)) mod m for the degree-d forms of f and g (a form
        given as () is not evaluated)."""
        if m not in self._tables:
            xm, ym = self._reduce(m)
            self._tables[m] = (xm, ym, Monomials(xm, ym))
        u, v = eval_homogeneous(f, g, d, *self._tables[m])
        return u % m, v % m

    def image(self, f: Sequence, g: Sequence, d: int, r: int, small_bits: int,
              large_bits: int) -> "Enclosure":
        """[F : G]/c for the degree-d forms F and G of f and g and c = gcd(r,
        F mod r, G mod r): for a map at a coprime point and r = |Res(F, G)|,
        its image point (see ratmap.eval_point), or -1 times it.  The box is
        F's and G's bounds over this box divided by c, trimmed as `of` trims,
        and the residues mod m are those mod m * c divided by c.
        """
        c = math.gcd(r, *self.values(f, g, d, r)) if r > 1 else 1
        (f_lo, f_hi, shift), (g_lo, g_hi, _) = self.bounds(f, d), self.bounds(g, d)
        return Enclosure(*_trim(shift, (f_lo // c, -(-f_hi // c)), (g_lo // c, -(-g_hi // c)),
                                small_bits, large_bits),
                         lambda m: tuple(t // c for t in self.values(f, g, d, m * c)))

    def size(self) -> tuple[int, int, int]:
        """(lo, hi, e) with lo * 2^e <= max(|x|, |y|) <= hi * 2^e."""
        (x_lo, x_hi), (y_lo, y_hi) = self.xs, self.ys
        return (max(x_lo, -x_hi, y_lo, -y_hi, 0), max(-x_lo, x_hi, -y_lo, y_hi),
                self.shift)


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


def _homogeneous_vector(a: Sequence, d: int) -> list:
    """Coefficients of the degree-d homogenization, descending in X."""
    return [(a[i] if i < len(a) else 0) for i in range(d, -1, -1)]


def sylvester_matrix(f: Sequence, g: Sequence, d: int) -> list[list[int]]:
    """Sylvester matrix of the degree-d homogenizations of f and g (2d x 2d)."""
    fv = _homogeneous_vector(f, d)
    gv = _homogeneous_vector(g, d)
    n = 2 * d
    rows = []
    for shift in range(d):
        rows.append([0] * shift + fv + [0] * (n - d - 1 - shift))
    for shift in range(d):
        rows.append([0] * shift + gv + [0] * (n - d - 1 - shift))
    return rows


def det_bareiss(matrix: Sequence[Sequence[int]]) -> int:
    """Fraction-free determinant of an integer matrix."""
    m = [list(row) for row in matrix]
    n = len(m)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def homogeneous_resultant(f: Sequence, g: Sequence, d: int) -> int:
    """Resultant of the degree-d homogenizations; zero iff a common root exists."""
    return det_bareiss(sylvester_matrix(f, g, d))


def cofactor_identities(f: Sequence, g: Sequence, d: int):
    """Integer cofactor forms for the degree-d homogenizations F, G.

    Returns (res, identities) where each identity is (u, v, target) with u, v
    the descending coefficient vectors of degree-(d-1) forms satisfying
    u*F + v*G = res * X^target * Y^(2d-1-target), for target 2d-1 and 0.
    Exists exactly when the resultant is nonzero.
    """
    syl = sylvester_matrix(f, g, d)
    res = det_bareiss(syl)
    if res == 0:
        raise ValueError("maps with vanishing resultant have no cofactor identity")
    n = 2 * d
    identities = []
    for column in (0, n - 1):  # X^(2d-1) and Y^(2d-1)
        # Row vector (u, v) times Sylvester is res * e_column, so (u, v) is
        # row `column` of the adjugate: the signed minors striking that column.
        struck = [row[:column] + row[column + 1:] for row in syl]
        minors = [(-1) ** (i + column) * det_bareiss(struck[:i] + struck[i + 1:])
                  for i in range(n)]
        identities.append((minors[:d], minors[d:], n - 1 - column))
    return res, identities


def resultant_cofactor_sum(f: Sequence, g: Sequence, d: int) -> int:
    """Larger total absolute coefficient sum |u| + |v| over the two cofactor
    identities; controls how much height evaluation can lose to cancellation.
    """
    _res, identities = cofactor_identities(f, g, d)
    return max(sum(abs(c) for c in u) + sum(abs(c) for c in v)
               for u, v, _ in identities)
