"""Test oracles and utilities that the program itself does not need.

A second ramification index, computed in an explicit chart by derivatives
rather than from the map's Wronskian form; the resultant and cofactor
identities as signed minors of the Sylvester matrix over Fraction
determinants; rational roots by the rational root theorem; the Wronskian
f'g - fg'; polynomial subtraction, derivative and evaluation at a rational; weighted random words; and readings of a
`HeightEstimate` (midpoint, width, containment of a log expression).
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Sequence

from orbitint import polys
from orbitint.heights import HeightEstimate
from orbitint.logvals import DEFAULT_PRECISION, LogExpr
from orbitint.proj1 import ProjPoint
from orbitint.ratmap import MapError, RatMap, compose, eval_point, make_map
from orbitint.words import Word


def sub(a: Sequence, b: Sequence) -> tuple:
    return polys.add(a, polys.neg(b))


def derivative(a: Sequence) -> tuple:
    return polys.strip([i * a[i] for i in range(1, len(a))])


def eval_at(a: Sequence, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(a):
        acc = acc * x + c
    return acc


def order_at(coeffs: Sequence, z0: Fraction) -> int:
    """Multiplicity of z0 as a root: the number of derivatives vanishing there."""
    poly, order = polys.strip(coeffs), 0
    while poly and eval_at(poly, z0) == 0:
        poly, order = derivative(poly), order + 1
    return order


def wronskian(phi: RatMap) -> tuple:
    """f'g - fg'; nonzero for every nonconstant map in characteristic zero."""
    return sub(polys.mul(derivative(phi.f), phi.g), polys.mul(phi.f, derivative(phi.g)))


def mobius_inverse(l: RatMap) -> RatMap:
    """Inverse of a degree-1 map (az+b)/(cz+d) -> (dz-b)/(-cz+a)."""
    if l.degree != 1:
        raise MapError(f"not a fractional linear map: {l}")
    b = l.f[0] if len(l.f) > 0 else 0
    a = l.f[1] if len(l.f) > 1 else 0
    dd = l.g[0] if len(l.g) > 0 else 0
    c = l.g[1] if len(l.g) > 1 else 0
    return make_map((-b, dd), (a, -c))


def ramification_index_chart(phi: RatMap, p: ProjPoint, chart: RatMap) -> int:
    """Ramification index computed in an explicit chart L, as ord at L^-1(p)
    of the conjugated map; must agree with ramification_index for any valid L.
    """
    l_inv = mobius_inverse(chart)
    beta_pt = eval_point(l_inv, p)
    if beta_pt.y == 0:
        raise MapError(f"chart {chart} sends {p} to infinity; pick another")
    conj = compose(l_inv, compose(phi, chart))
    beta = Fraction(beta_pt.x, beta_pt.y)
    g_at = eval_at(conj.g, beta)
    if g_at == 0:
        raise MapError(f"chart {chart} leaves the image at infinity; pick another")
    f_at = eval_at(conj.f, beta)
    # ord_beta of conj(z) - conj(beta); the denominator does not vanish there.
    return order_at(sub(polys.scale(conj.f, g_at), polys.scale(conj.g, f_at)), beta)


def det_fraction(matrix: Sequence[Sequence[int]]) -> int:
    """Determinant of an integer matrix by Gaussian elimination over Q."""
    n = len(matrix)
    m = [[Fraction(v) for v in row] for row in matrix]
    det = Fraction(1)
    for k in range(n):
        pivot = next((i for i in range(k, n) if m[i][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            det = -det
        det *= m[k][k]
        for i in range(k + 1, n):
            if m[i][k]:
                factor = m[i][k] / m[k][k]
                for j in range(k, n):
                    m[i][j] -= factor * m[k][j]
    return int(det)


def cofactor_identities_by_minors(f: Sequence, g: Sequence, d: int) -> tuple[int, tuple]:
    """(res, identities) as polys.cofactor_identities gives them, from the
    adjugate: res = det S for the Sylvester matrix S of the degree-d forms
    (rows X^(d-1-s) Y^s F then G, columns X^(2d-1), ..., Y^(2d-1)), and the
    cofactor vector of X^(2d-1) (Y^(2d-1)) is row 0 (row 2d-1) of adj(S),
    the signed minors that strike that column.  ValueError when res is 0."""
    rows = []
    for cs in (f, g):
        desc = [cs[i] if i < len(cs) else 0 for i in range(d, -1, -1)]
        rows += [[0] * s + desc + [0] * (d - 1 - s) for s in range(d)]
    res = det_fraction(rows)
    if res == 0:
        raise ValueError("vanishing resultant")
    n, identities = 2 * d, []
    for column in (0, n - 1):
        struck = [row[:column] + row[column + 1:] for row in rows]
        minors = [(-1) ** (i + column) * det_fraction(struck[:i] + struck[i + 1:])
                  for i in range(n)]
        identities.append((tuple(minors[:d]), tuple(minors[d:]), n - 1 - column))
    return res, tuple(identities)


def _divisors(n: int) -> set[int]:
    out = set()
    for d in range(1, math.isqrt(n) + 1):
        if n % d == 0:
            out.update((d, n // d))
    return out


def rational_roots(coeffs: Sequence[int]) -> list[tuple[Fraction, int]]:
    """Rational roots with multiplicities, via the rational root theorem."""
    poly = list(polys.strip(coeffs))
    if not poly:
        raise ValueError("zero polynomial has every root")
    roots: list[tuple[Fraction, int]] = []
    shift = 0
    while poly[0] == 0:
        shift += 1
        poly.pop(0)
    if shift:
        roots.append((Fraction(0), shift))
    if len(poly) <= 1:
        return roots
    candidates = {sign * Fraction(p, q) for p in _divisors(abs(poly[0]))
                  for q in _divisors(abs(poly[-1])) for sign in (1, -1)}
    for cand in sorted(candidates):
        if eval_at(poly, cand) == 0:
            roots.append((cand, order_at(poly, cand)))
    return roots


def sample_word(degrees: Sequence[int], length: int, rng: random.Random) -> Word:
    """Finite word with letters drawn with probability d_j / sum(d)."""
    total = sum(degrees)
    letters = []
    for _ in range(length):
        u = rng.randrange(total)
        acc = 0
        for j, d in enumerate(degrees, start=1):
            acc += d
            if u < acc:
                letters.append(j)
                break
    return Word.finite(letters)


def mid(est: HeightEstimate, prec: int = DEFAULT_PRECISION) -> float:
    return (est.lo(prec) + est.hi(prec)) / 2


def width(est: HeightEstimate, prec: int = DEFAULT_PRECISION) -> float:
    return est.hi(prec) - est.lo(prec)


def contains(est: HeightEstimate, value: LogExpr, prec: int = DEFAULT_PRECISION) -> bool:
    lo_ok = (value - est.lo_expr).sign(prec)
    hi_ok = (est.hi_expr - value).sign(prec)
    return (lo_ok is None or lo_ok >= 0) and (hi_ok is None or hi_ok >= 0)
