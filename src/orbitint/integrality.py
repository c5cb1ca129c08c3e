"""Quasi-integrality tests, proximity-set scans, S-integral censuses, and the
numerator/denominator log-ratio series.

Threshold decisions consume certified intervals and report "ambiguous" when
an interval straddles the cut; nothing is ever silently rounded across it.
The census builds only the tree nodes it may need: its verdict in
`orbits.settle` (`NonUnitLeaves`) drops, unbuilt, a node whose denominator
cannot be an S-unit, from its parent's `polys.Enclosure` (a box of the top
bits and residues modulo p^K: the archimedean and p-adic parts of the size).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Optional

from . import polys
from .heights import HeightEstimate, canonical_height_word, system_bounds
from .logvals import DEFAULT_PRECISION, LogExpr, _Infinite
from .orbits import (DEFAULT_LIMITS, REFUSE, Orbit, WorkLimits, enumerate_tree,
                     find_cycle, iterate_word, settle)
from .places import PlaceSet, is_s_unit, log_plus_abs, strip_prime
from .proj1 import ProjPoint, chordal_sum
from .ratmap import MapSystem, RatMap
from .words import Word


def quasi_integral_test(x: Fraction | int, s: PlaceSet, epsilon: Fraction,
                        prec: int = DEFAULT_PRECISION) -> bool:
    """True when the S-part of the height is at least epsilon times the height.

    Both sides are exact log combinations; ties fall back to integer power
    comparison, so the boundary (equality) is decided exactly and counts as in.
    """
    epsilon = Fraction(epsilon)
    if not 0 < epsilon <= 1:
        raise ValueError("epsilon must lie in (0, 1]")
    x = Fraction(x)
    s_part = LogExpr.zero()
    for v in s:
        s_part = s_part + log_plus_abs(x, v) * v.local_degree
    height = LogExpr.log_int(max(abs(x.numerator), x.denominator))
    sign = (s_part - height * epsilon).sign(prec)
    if sign is None:
        raise ArithmeticError(
            "quasi-integrality comparison undecidable; raise the precision")
    return sign >= 0


class GammaVerdict(enum.Enum):
    IN = "in"
    OUT = "out"
    AMBIGUOUS = "ambiguous"


@dataclass(frozen=True)
class GammaRecord:
    """Membership scan of the proximity set at one configuration."""

    word: Word
    base: ProjPoint      # A, the target point
    point: ProjPoint     # P, the moving point
    places: PlaceSet
    epsilon: Fraction
    depth: int
    members: tuple       # (n, GammaVerdict) pairs for n = 0..depth
    height: HeightEstimate
    preperiodic: bool = False

    def verdicts(self) -> dict[int, GammaVerdict]:
        return dict(self.members)

    def in_set(self) -> list[int]:
        return [n for n, v in self.members if v is GammaVerdict.IN]


def gamma_set(system: MapSystem, word: Word, s: PlaceSet, base: ProjPoint,
              point: ProjPoint, epsilon: Fraction, depth: int,
              bounds=None, prec: int = DEFAULT_PRECISION,
              limits: WorkLimits = DEFAULT_LIMITS) -> GammaRecord:
    """Scan n = 0..depth for chordal proximity to the base beating the height.

    The right side at step n is epsilon * D_n * (canonical height of the
    starting point), via the shift functional equation; the height interval
    makes each verdict in, out, or ambiguous.
    """
    epsilon = Fraction(epsilon)
    if not 0 < epsilon <= 1:
        raise ValueError("epsilon must lie in (0, 1]")
    if bounds is None:
        bounds = system_bounds(system)
    # One walk: the cycle scan, the height lookahead and the membership scan
    # all read one orbit.
    orbit = Orbit(system, word, point)
    preperiodic = word.is_periodic and find_cycle(orbit, max(depth, 16), limits) is not None
    est = canonical_height_word(orbit, depth + 4, bounds, limits)
    members = []
    for n, current in enumerate(iterate_word(orbit, depth, limits)):
        lhs = chordal_sum(current, base, s)
        if isinstance(lhs, _Infinite):
            members.append((n, GammaVerdict.IN))
            continue
        scale = epsilon * orbit.degree(n)
        in_sign = (lhs - est.hi_expr * scale).sign(prec)
        if in_sign is not None and in_sign >= 0:
            members.append((n, GammaVerdict.IN))
            continue
        out_sign = (lhs - est.lo_expr * scale).sign(prec)
        if out_sign is not None and out_sign < 0:
            members.append((n, GammaVerdict.OUT))
            continue
        members.append((n, GammaVerdict.AMBIGUOUS))
    return GammaRecord(word, base, point, s, epsilon, depth, tuple(members),
                       est, preperiodic)


# The census screens the leaves of a node of at least polys.ENCLOSE_BITS
# bits.  The screen's box keeps TOP_BITS bits of the smaller coordinate, and
# at most polys.BOX_BITS of the larger; it reads v_p modulo p^RESIDUE_DIGITS
# first.
TOP_BITS = 64
RESIDUE_DIGITS = 64


class NonUnitLeaves:
    """The census's test (orbits.NodeTest): settle with a verdict that keeps
    nothing for a node it rules out and refuses any other, so the children
    the census needs neither built nor expanded are dropped unbuilt.
    Picklable, so census workers share it.

    The leaf of phi = F/G is [F(x, y) : G(x, y)] divided by a common factor
    g of R = |Res(F, G)|, so its denominator |G(x, y)|/g can be an S-unit
    only if G(x, y) != 0 and |G(x, y)| <= R * prod_{p in S} p^v_p(G(x, y)).
    A letter is ruled out when both sides are bounded and this fails:
    - |G(x, y)| >= 2^floor_bits, from exact integer bounds on G over the box
      of the top bits of x and y at one shared exponent 2^shift (an
      enclosure that contains 0 rules out nothing);
    - v_p(G(x, y)) exactly, as v_p of G(x mod p^K, y mod p^K) mod p^K once
      that residue is not 0; K doubles while it is, as long as p^K fits
      the bound;
    - R * prod p^v < 2^floor_bits, compared as bit lengths.

    A last-level node is dropped with its leaves only when it and every
    leaf are ruled out, each from its parent's enclosure, which may be of -1
    times the node: that changes no |G| and no valuation the test reads.
    """

    def __init__(self, s: PlaceSet):
        self.primes = s.finite_primes

    def __call__(self, system: MapSystem, node: ProjPoint, levels: int, limits: WorkLimits):
        return settle(system, node, levels, limits, (TOP_BITS, polys.BOX_BITS), self._verdict)

    def _verdict(self, parent: polys.Enclosure, phi: RatMap, leaf: bool, build) -> object:
        return None if self._rules_out(phi, parent) else REFUSE

    def _rules_out(self, phi: RatMap, node: polys.Enclosure) -> bool:
        lo, hi, e = node.bounds(phi.g, phi.degree)
        if lo <= 0 <= hi:
            return False
        floor_bits = min(abs(lo), abs(hi)).bit_length() - 1 + e
        # R * part < 2^floor_bits once part, the S-part of G(x, y), has at
        # most budget bits.
        budget = floor_bits - phi.resultant.bit_length()
        part = 1
        for p in self.primes:
            digits = RESIDUE_DIGITS
            while not (value := node.values((), phi.g, phi.degree, p ** digits)[1]):
                # p^digits divides G(x, y): more digits help only while it fits.
                if (part * p ** digits).bit_length() > budget:
                    return False
                digits *= 2
            part *= p ** strip_prime(value, p)[0]
        return part.bit_length() <= budget


def s_integral_census(system: MapSystem, point: ProjPoint, s: PlaceSet,
                      depth: int, limits: WorkLimits = DEFAULT_LIMITS,
                      workers: int = 1) -> tuple:
    """The (word, point) pairs of the distinct orbit points with S-integral
    affine coordinate, each at its first word in preorder; the point at
    infinity has none and is skipped.  Orbit points are canonical, so y is
    the reduced denominator of the affine coordinate.  The tree is
    deduplicated before the root is dropped, so the starting point is never
    a hit, even where a word of length >= 1 returns to it.

    Leaves that NonUnitLeaves rules out are never built, nor are the
    last-level nodes it rules out together with their leaves.
    Such a node is not an S-unit point, and neither is any other node of
    its point, so dropping it removes no hit and changes no hit's first
    word.
    """
    if not s.contains_infinite:
        raise ValueError("S must contain the archimedean place")
    return enumerate_tree(system, point, depth, dedupe=True, limits=limits,
                          workers=workers, test=NonUnitLeaves(s), fold=partial(_hits, s))


def _hits(s: PlaceSet, nodes) -> tuple:
    """The census's fold: the (word, point) pairs past the root with
    S-integral affine coordinate."""
    return tuple((word, point) for word, point in nodes
                 if word and not point.is_infinite and is_s_unit(point.y, s))


@dataclass(frozen=True)
class RatioTerm:
    """One term of the log|numerator| / log|denominator| series."""

    n: int
    num_bits: int
    den_bits: int
    ratio: Optional[float]
    verdict: str  # "defined" | "small-numerator" | "small-denominator" | "infinity"


def ratio_series(system: MapSystem, word: Word, point: ProjPoint, depth: int,
                 prec: int = DEFAULT_PRECISION,
                 limits: WorkLimits = DEFAULT_LIMITS) -> list[RatioTerm]:
    """log|a_n|/log|b_n| along the orbit written in lowest terms a_n/b_n.

    Terms whose numerator or denominator has absolute value <= 1 carry a
    marker instead of a ratio; an orbit point at infinity truncates the
    series with a marker term.
    """
    if point.is_infinite:
        raise ValueError("the starting point must be affine")
    terms = []
    for n, p in enumerate(iterate_word(Orbit(system, word, point), depth, limits)):
        terms.append(_ratio_term(n, p, prec))
        if p.is_infinite:
            break
    return terms


def _ratio_term(n: int, p: ProjPoint, prec: int) -> RatioTerm:
    """The term for one orbit point; only a "defined" term carries a ratio."""
    if p.is_infinite:
        return RatioTerm(n, 0, 0, None, "infinity")
    a, b = abs(p.x), p.y
    if a <= 1 or b <= 1:
        return RatioTerm(n, a.bit_length(), b.bit_length(), None,
                         "small-numerator" if a <= 1 else "small-denominator")
    box = LogExpr.log_int(a).interval(prec) / LogExpr.log_int(b).interval(prec)
    return RatioTerm(n, a.bit_length(), b.bit_length(),
                     (float(box.a) + float(box.b)) / 2, "defined")


@dataclass(frozen=True)
class AveragedRatio:
    """Mean of the level-n ratios over all words, with exclusions counted."""

    level: int
    mean: Optional[float]
    total_words: int
    excluded: int


def averaged_ratio(system: MapSystem, point: ProjPoint, level: int,
                   prec: int = DEFAULT_PRECISION,
                   limits: WorkLimits = DEFAULT_LIMITS) -> AveragedRatio:
    """Arithmetic mean of log|a|/log|b| over the lexicographic enumeration of
    all words of the given length (words, not distinct maps)."""
    if point.is_infinite:
        raise ValueError("the starting point must be affine")
    # Leaves of the preorder tree arrive in lexicographic word order, and the
    # shared-prefix walk costs one evaluation per node.
    leaves = enumerate_tree(system, point, level, limits=limits,
                            fold=partial(_leaf_ratios, level, prec))
    ratios = [ratio for ratio in leaves if ratio is not None]
    mean = sum(ratios) / len(ratios) if ratios else None
    return AveragedRatio(level, mean, system.k ** level, len(leaves) - len(ratios))


def _leaf_ratios(level: int, prec: int, nodes) -> list[Optional[float]]:
    """averaged_ratio's fold: the ratio of each point at the level, None
    where it has none."""
    return [_ratio_term(level, point, prec).ratio for word, point in nodes if len(word) == level]
