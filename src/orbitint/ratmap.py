"""Rational self-maps of P^1 over Q: normalization, evaluation, composition,
map heights, and ramification indices.

A map is stored as a coprime pair of integer polynomials (f, g), jointly
primitive, with the leading nonzero coefficient of g positive.  Evaluation
goes through the degree-d homogenizations, which are total on P^1(Q) because
the homogeneous resultant is nonzero.  At a coprime point the common factor of
the two values divides that resultant, which bounds the normalizing gcd.
"""

from __future__ import annotations

import math
import re
import sys
from functools import cached_property
from fractions import Fraction
from typing import Optional, Sequence

from . import polys
from .errors import Record
from .logvals import LogExpr
from .proj1 import ProjPoint, from_coprime, read_fraction, read_int


class MapError(ValueError):
    """Invalid rational map data; carries a witness when one exists."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class RatMap(Record):
    """Normalized rational map f/g with degree max(deg f, deg g)."""

    # An instance dict holds the cached properties.
    __slots__ = ("f", "g", "degree", "__dict__")
    _fields = ("f", "g", "degree")

    def homogeneous(self, x: int, y: int,
                    table: Optional[polys.Monomials] = None) -> tuple[int, int]:
        """(F(x, y), G(x, y)) for the degree-d homogenizations, read from
        table, the Monomials of (x, y), when one is given."""
        return polys.eval_homogeneous(self.f, self.g, self.degree, x, y, table)

    @cached_property
    def cofactors(self) -> tuple[int, tuple]:
        """(Res(F, G), cofactor identities) of the degree-d homogenizations,
        from the map's one elimination (see polys.cofactor_identities)."""
        return polys.cofactor_identities(self.f, self.g, self.degree)

    @cached_property
    def resultant(self) -> int:
        """|Res(F, G)|, nonzero because f and g are coprime."""
        return abs(self.cofactors[0])

    @cached_property
    def wronskian(self) -> tuple:
        """f'g - fg' = sum (i - j) f_i g_j z^(i+j-1), computed once per map:
        the 2d - 1 ascending coefficients of the binary form of degree 2d - 2
        that is (F_X G_Y - F_Y G_X) / d for the degree-d homogenizations."""
        w = [0] * (2 * self.degree - 1)
        for i, fc in enumerate(self.f):
            for j, gc in enumerate(self.g):
                if i != j:
                    w[i + j - 1] += (i - j) * fc * gc
        return tuple(w)

    @property
    def max_abs_coeff(self) -> int:
        return max(abs(c) for c in self.f + self.g)

    def __str__(self) -> str:
        num = _poly_str(self.f)
        den = _poly_str(self.g)
        if den == "1":
            return num
        if any(ch in num[1:] for ch in "+-"):
            num = f"({num})"
        if any(ch in den[1:] for ch in "+-"):
            den = f"({den})"
        return f"{num}/{den}"


def _poly_str(cs: Sequence[int]) -> str:
    cs = polys.strip(cs)
    if not cs:
        return "0"
    parts = []
    for i in range(len(cs) - 1, -1, -1):
        c = cs[i]
        if c == 0:
            continue
        if i == 0:
            term = str(abs(c))
        else:
            mag = "" if abs(c) == 1 else str(abs(c))
            term = f"{mag}z" if i == 1 else f"{mag}z^{i}"
        if not parts:
            parts.append(("-" if c < 0 else "") + term)
        else:
            parts.append(("-" if c < 0 else "+") + term)
    return "".join(parts)


def _normalize_pair(f: Sequence, g: Sequence) -> tuple[tuple, tuple]:
    """Joint integer clearing, primitivity, and sign canonicalization."""
    ints = polys.clear_denominators(tuple(f) + tuple(g))
    fi, gi = polys.strip(ints[:len(f)]), polys.strip(ints[len(f):])
    joint = polys.content(fi + gi)
    if joint > 1:
        fi = tuple(c // joint for c in fi)
        gi = tuple(c // joint for c in gi)
    if gi and gi[-1] < 0:
        fi, gi = polys.neg(fi), polys.neg(gi)
    return fi, gi


def _raw_map(f: Sequence, g: Sequence) -> RatMap:
    """Build without the coprimality check (for compositions, known coprime)."""
    fi, gi = _normalize_pair(f, g)
    return RatMap(fi, gi, max(polys.degree(fi), polys.degree(gi)))


def make_map(f_coeffs: Sequence, g_coeffs: Sequence) -> RatMap:
    """Normalized rational map from ascending coefficient lists.

    Accepts ints, Fractions, or strings.  Rejects zero denominators, constant
    maps, and pairs with a common polynomial factor (witness attached).
    """
    f = [_coefficient(c) for c in f_coeffs]
    g = [_coefficient(c) for c in g_coeffs]
    if not polys.strip(g):
        raise MapError("denominator polynomial is zero")
    fi, gi = _normalize_pair(f, g)
    if not fi:
        raise MapError("numerator polynomial is zero (constant map)")
    d = max(polys.degree(fi), polys.degree(gi))
    if d < 1:
        raise MapError("constant maps are not rational self-map data")
    phi = RatMap(fi, gi, d)
    try:   # Res(F, G) != 0 exactly when f and g are coprime
        phi.cofactors
    except ValueError:
        common = polys.gcd_q(fi, gi)
        raise MapError(f"numerator and denominator share the factor {_poly_str(common)}",
                       witness=common) from None
    return phi


def _coefficient(c) -> Fraction:
    """A coefficient as a Fraction; a string is read by proj1.read_fraction,
    so a coefficient of any length is read."""
    return read_fraction(c) if isinstance(c, str) else Fraction(c)


_TERM_RE = re.compile(r"^([+-]?\d*)\*?(z(?:\^(\d+))?)?$")


def _exponent(digits: str) -> int:
    """The exponent written as digits.  It indexes the dense coefficient
    list, so one of sys.maxsize or more is a MapError, raised before anything
    is allocated, and so is one too long for int() to read."""
    digits = digits.lstrip("0") or "0"
    if len(digits) > len(str(sys.maxsize)) or int(digits) >= sys.maxsize:
        shown = digits if len(digits) <= 32 else f"of {len(digits)} digits"
        raise MapError(f"exponent {shown} is too large to index a coefficient list")
    return int(digits)


def _parse_poly(text: str) -> list[int]:
    text = text.strip()
    if text.startswith("(") and text.endswith(")"):
        inner = text[1:-1]
        if inner.count("(") == inner.count(")"):
            text = inner
    text = text.replace(" ", "")
    if not text:
        raise MapError("empty polynomial")
    chunks = re.split(r"(?=[+-])", text)
    coeffs: dict[int, int] = {}
    for chunk in chunks:
        if not chunk:
            continue
        m = _TERM_RE.match(chunk)
        if not m or (not m.group(1) and not m.group(2)):
            raise MapError(f"cannot parse polynomial term {chunk!r}")
        coeff_text, z_part, exp_text = m.group(1), m.group(2), m.group(3)
        if coeff_text in ("", "+"):
            coeff = 1
        elif coeff_text == "-":
            coeff = -1
        else:
            coeff = read_int(coeff_text)
        if z_part is None:
            exp = 0
        else:
            exp = _exponent(exp_text) if exp_text else 1
        coeffs[exp] = coeffs.get(exp, 0) + coeff
    degree = max(coeffs)
    try:
        out = [0] * (degree + 1)
    except MemoryError:   # past about 2^60 entries, refused before any allocation
        raise MapError(f"polynomial {text!r} of degree {degree} is too large "
                       "to hold its coefficient list") from None
    for e, c in coeffs.items():
        out[e] = c
    return out


def parse_map(text: str) -> RatMap:
    """Parse a display string like '(z^2+1)/z', 'z^2-1', or '1/z^2'."""
    text = text.strip().replace(" ", "")
    depth = 0
    split_at = None
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "/" and depth == 0:
            if split_at is not None:
                raise MapError(f"more than one top-level '/' in {text!r}")
            split_at = i
    if split_at is None:
        return make_map(_parse_poly(text), [1])
    return make_map(_parse_poly(text[:split_at]), _parse_poly(text[split_at + 1:]))


def map_from_json(obj: dict) -> RatMap:
    return make_map(obj["f"], obj["g"])


def eval_point(phi: RatMap, p: ProjPoint,
               table: Optional[polys.Monomials] = None) -> ProjPoint:
    """phi(p) in canonical form; table, when given, is the Monomials of p,
    shared by every map evaluated at p.

    p must be canonical and coprime, as every ProjPoint built by `normalize`
    or by this function is.  Then gcd(F(p), G(p)) divides R = |Res(F, G)|
    (from the cofactor identities u*F + v*G = R*X^(2d-1) and its Y twin), so
    it equals gcd(R, F(p) mod R, G(p) mod R): time linear in the size of the
    values, where a gcd of the two values themselves is quadratic.
    """
    u, v = phi.homogeneous(p.x, p.y, table)
    r = phi.resultant
    if r != 1:
        g = math.gcd(r, u % r, v % r)
        if g > 1:
            u, v = u // g, v // g
    return from_coprime(u, v)


def compose(outer: RatMap, inner: RatMap) -> RatMap:
    """outer after inner; degrees multiply and the result stays coprime."""
    d = outer.degree
    p_pows = [(1,)]
    q_pows = [(1,)]
    for _ in range(d):
        p_pows.append(polys.mul(p_pows[-1], inner.f))
        q_pows.append(polys.mul(q_pows[-1], inner.g))
    num: tuple = ()
    den: tuple = ()
    for i in range(d + 1):
        fc = outer.f[i] if i < len(outer.f) else 0
        gc = outer.g[i] if i < len(outer.g) else 0
        if fc or gc:
            cross = polys.mul(p_pows[i], q_pows[d - i])
            if fc:
                num = polys.add(num, polys.scale(cross, fc))
            if gc:
                den = polys.add(den, polys.scale(cross, gc))
    result = _raw_map(num, den)
    assert result.degree == outer.degree * inner.degree, "composition degree defect"
    return result


def map_height(phi: RatMap) -> LogExpr:
    """log of the largest coefficient magnitude (joint primitivity makes the
    finite places contribute nothing)."""
    return LogExpr.log_int(phi.max_abs_coeff)


class MapSystem(Record):
    """Finite generating set, stored sorted by ascending degree."""

    __slots__ = _fields = ("maps",)

    def __init__(self, maps: Sequence[RatMap]):
        maps = tuple(sorted(maps, key=lambda m: m.degree))
        if not maps:
            raise MapError("a map system needs at least one map")
        for m in maps:
            if m.degree < 2:
                raise MapError(f"system maps need degree >= 2, got {m} of degree {m.degree}")
        object.__setattr__(self, "maps", maps)

    @property
    def k(self) -> int:
        return len(self.maps)

    @property
    def degrees(self) -> tuple[int, ...]:
        return tuple(m.degree for m in self.maps)

    @property
    def min_degree(self) -> int:
        return self.maps[0].degree

    @property
    def max_degree(self) -> int:
        return self.maps[-1].degree

    @property
    def degree_sum(self) -> int:
        return sum(self.degrees)

    def map_for_letter(self, letter: int) -> RatMap:
        if not 1 <= letter <= self.k:
            raise ValueError(f"letter {letter} out of range 1..{self.k}")
        return self.maps[letter - 1]


def system_height(system: MapSystem) -> LogExpr:
    """Max member height, exactly (max of coefficient magnitudes)."""
    return LogExpr.log_int(max(m.max_abs_coeff for m in system.maps))


# -- ramification ----------------------------------------------------------

def ramification_index(phi: RatMap, p: ProjPoint) -> int:
    """Multiplicity of p in the fiber of phi over phi(p).

    By Riemann-Hurwitz, e_p(phi) = 1 + ord_p W for the map's Wronskian form
    W: the number of times the linear form yX - xY of p = [x : y] divides it.
    p is coprime, as `normalize` builds it, so that form is primitive, and by
    Gauss's lemma the first inexact integer division ends the count.
    """
    w, x, y = phi.wronskian, p.x, p.y
    if x == 0:  # swap X and Y, so that every division is by x != 0
        w, x, y = w[::-1], y, x
    e = 1
    while True:
        # W = (yX - xY) Q: w_k = y q_(k-1) - x q_k, ascending from q_(-1) = 0.
        q, rem = [0], 0
        for c in w[:-1]:
            top, rem = divmod(y * q[-1] - c, x)
            if rem:
                break
            q.append(top)
        if rem or y * q[-1] != w[-1]:
            break
        w, e = q[1:], e + 1
    assert 1 <= e <= phi.degree, f"ramification index {e} out of range"
    return e


def is_totally_ramified(phi: RatMap, p: ProjPoint) -> bool:
    return ramification_index(phi, p) == phi.degree
