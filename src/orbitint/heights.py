"""Certified canonical heights along words and for whole map systems.

Every estimate is a certified interval; the radius comes from per-map
height-difference constants summed along the word.  One-sided constants are
tracked separately, so monomial-like maps (whose height transforms exactly)
get zero-width intervals up to rounding.  A word estimate keeps its endpoints
as exact log expressions, whose last point's atom may be deferred (see
canonical_height_word).  A system estimate carries exact rational
endpoints: the enclosures of its two log expressions at the precision it was
computed at, in which the leaves under large nodes are deferred atoms,
each bounded by an image of its node's one `polys.Enclosure` (see
canonical_height_system).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Iterable, Optional, Sequence

from mpmath.libmp import to_rational

from . import polys
from .logvals import DEFAULT_PRECISION, Deferred, LogExpr, deferred_atom
from .orbits import (DEFAULT_LIMITS, WorkLimits, children, find_cycle, fold_tree,
                     walk_word)
from .proj1 import ProjPoint, normalize
from .ratmap import MapSystem, RatMap, eval_point
from .words import Word, degree_products, iter_periodic_words

DEFAULT_DEPTH = 12


@dataclass(frozen=True)
class HeightDifferenceBound:
    """Bounds on how far h(phi(x)) can sit from d*h(x), for all x.

    upper and lower are unnormalized one-sided constants:
        -lower <= h(phi(x)) - d*h(x) <= upper.
    c is the normalized two-sided constant max(upper, lower)/d.
    """

    c: LogExpr
    upper: LogExpr
    lower: LogExpr
    mode: str = "certified"
    sample_size: int = 0

    @property
    def certified(self) -> bool:
        return self.mode == "certified"


def _logexpr_max(a: LogExpr, b: LogExpr, prec: int = DEFAULT_PRECISION) -> LogExpr:
    """max(a, b) when the comparison is decided, else the certified upper
    bound a + max(q, 0), with q an exact upper bound on b - a."""
    s = (a - b).sign(prec)
    if s is None:
        return a + LogExpr.constant(max((b - a).upper_bound(prec), Fraction(0)))
    return a if s >= 0 else b


def c_bound(phi: RatMap, mode: str = "certified",
            samples: int = 400) -> HeightDifferenceBound:
    """Height-difference constant for a single map of degree >= 2.

    Certified mode: the upper side multiplies the largest coefficient by the
    term count; the lower side comes from the resultant cofactor identities
    (u*F + v*G = Res*X^(2d-1) and the Y twin), whose coefficient sums bound
    the worst cancellation.  Empirical mode reports a sampled maximum times a
    safety factor and is flagged as such.
    """
    d = phi.degree
    if d < 2:
        raise ValueError("height-difference constants need degree >= 2")
    if mode == "certified":
        tf = sum(1 for c in phi.f if c)
        tg = sum(1 for c in phi.g if c)
        maxf = max((abs(c) for c in phi.f if c), default=1)
        maxg = max((abs(c) for c in phi.g if c), default=1)
        upper = LogExpr.log_int(max(tf * maxf, tg * maxg))
        lower = LogExpr.log_int(polys.resultant_cofactor_sum(phi.f, phi.g, d))
        c = _logexpr_max(upper, lower) * Fraction(1, d)
        return HeightDifferenceBound(c, upper, lower, "certified")
    if mode != "empirical":
        raise ValueError(f"unknown c_bound mode {mode!r}")
    rng = random.Random(0)
    worst = LogExpr.zero()
    pts = [normalize(a, b) for a in range(-12, 13) for b in range(1, 13)
           if math.gcd(a, b) == 1]
    pts.append(ProjPoint(1, 0))
    while len(pts) < samples:
        a = rng.randrange(-10**6, 10**6 + 1)
        b = rng.randrange(1, 10**6)
        pts.append(normalize(a, b))
    for p in pts:
        q = eval_point(phi, p)
        defect = q.height() - p.height() * d
        if defect.sign() is not None and defect.sign() < 0:
            defect = -defect
        worst = _logexpr_max(worst, defect)
    padded = worst * Fraction(5, 4)
    return HeightDifferenceBound(padded * Fraction(1, d), padded, padded,
                                 "empirical", sample_size=len(pts))


def system_bounds(system: MapSystem, mode: str = "certified") -> list[HeightDifferenceBound]:
    return [c_bound(m, mode) for m in system.maps]


def system_c(bounds: Sequence[HeightDifferenceBound]) -> LogExpr:
    out = LogExpr.zero()
    for b in bounds:
        out = _logexpr_max(out, b.c)
    return out


@dataclass(frozen=True)
class HeightEstimate:
    """Certified interval for a canonical height.

    lo_expr and hi_expr are exact: log expressions for a word estimate, and
    rational constants for a system estimate (the endpoints of its sums at
    the prec it was computed at, so lo() and hi() at that prec give the
    floats of the full expressions).  Floats are materialized on demand.
    lo_expr may be negative; lo() is the one floor at 0.0 (canonical heights
    are nonnegative).  target_met is False only when the bit cap stopped the
    walk.
    """

    lo_expr: LogExpr
    hi_expr: LogExpr
    depth: int
    degree_product: int
    certified: bool
    target_met: bool = True
    word: Optional[Word] = None

    def lo(self, prec: int = DEFAULT_PRECISION) -> float:
        return max(0.0, self.lo_expr.float_bounds(prec)[0])

    def hi(self, prec: int = DEFAULT_PRECISION) -> float:
        return self.hi_expr.float_bounds(prec)[1]


def _upcoming_tails(system: MapSystem, bounds: Sequence[HeightDifferenceBound],
                    word: Word, n: int) -> tuple[LogExpr, LogExpr]:
    """Exact one-sided tail sums for the error after n steps, divided by D_n later.

    Periodic words get the exact per-period geometric sum; finite words get a
    bound valid for every infinite continuation (worst per-step constant with
    min-degree scaling), so the interval covers any extension of the prefix.
    """
    degrees = system.degrees
    if word.is_periodic:
        period = len(word.letters)
        block_up = LogExpr.zero()
        block_down = LogExpr.zero()
        running = 1
        for t in range(period):
            letter = word.letter_at(n + t)
            running *= degrees[letter - 1]
            inv = Fraction(1, running)
            block_up = block_up + bounds[letter - 1].upper * inv
            block_down = block_down + bounds[letter - 1].lower * inv
        geom = Fraction(running, running - 1)
        return block_up * geom, block_down * geom
    d1 = system.min_degree
    worst_up = LogExpr.zero()
    worst_down = LogExpr.zero()
    for j, b in enumerate(bounds):
        inv = Fraction(1, degrees[j])
        worst_up = _logexpr_max(worst_up, b.upper * inv)
        worst_down = _logexpr_max(worst_down, b.lower * inv)
    geom = Fraction(d1, d1 - 1)
    return worst_up * geom, worst_down * geom


def canonical_height_word(system: MapSystem, word: Word, point: ProjPoint,
                          depth: int = DEFAULT_DEPTH,
                          bounds: Optional[Sequence[HeightDifferenceBound]] = None,
                          limits: WorkLimits = DEFAULT_LIMITS,
                          memo: Optional[list] = None) -> HeightEstimate:
    """Canonical height of a point along a word, as a certified interval.

    Iterates h(Phi^n(P))/D_n pointwise (never composing maps); the intervals
    at successive depths nest, so the deepest one is returned.  The walk stops
    at depth, at the end of a finite word, or at the first point over the bit
    cap; only the last sets target_met=False.  lo_expr is not floored (see
    HeightEstimate).  memo is an orbit point list shared with other passes
    over the same orbit (see walk_word).

    When the point before the last step has at least polys.ENCLOSE_BITS
    bits, the last point is not built: its height atom enters the estimate
    as a logvals.Deferred, and the cap test reads the atom's enclosure (see
    _deferred_step).  The estimate's values are those of the built point.
    """
    for letter in word.letters:
        if letter > system.k:
            raise ValueError(f"letter {letter} outside system of size {system.k}")
    if bounds is None:
        bounds = system_bounds(system)
    steps = walk_word(system, word, point, memo)
    current = point
    height: Optional[LogExpr] = None
    d_n = 1
    n = 0
    truncated = False
    while n < depth and word.supports_depth(n + 1):
        phi = system.map_for_letter(word.letter_at(n))
        last = n + 1 == depth or not word.supports_depth(n + 2)
        step = (_deferred_step(phi, current, steps, limits, last)
                if limits.bits_of(current) >= polys.ENCLOSE_BITS else None)
        d_n *= phi.degree
        n += 1
        if step is not None:
            atom, truncated = step
            height = LogExpr(((atom, 1),))
            break
        current = next(steps)
        if not limits.fits(current):
            truncated = True
            break
    up, down = _upcoming_tails(system, bounds, word, n)
    inv = Fraction(1, d_n)
    mid = (current.height() if height is None else height) * inv
    certified = all(b.certified for b in bounds)
    return HeightEstimate(mid - down * inv, mid + up * inv, n, d_n, certified,
                          not truncated, word)


def _deferred_step(phi: RatMap, node: ProjPoint, steps, limits: WorkLimits,
                   last: bool) -> Optional[tuple[Deferred, bool]]:
    """(atom, over the cap) for the point phi(node) when the enclosure of its
    atom shows the step is the walk's last: the point is certainly over the
    bit cap, or it certainly fits and last says the walk ends there.  The
    atom is built from steps, the walk's own generator, if ever.  None when
    the step must be built: it may go on, or the enclosure does not decide
    the cap test or that the atom is at least 2.  A step that is not the
    last and whose point cannot reach the cap (|F(x, y)| is at most the
    coefficient sum of F times max(|x|, |y|)^d) is not enclosed.
    """
    if not last:
        coeffs = max(sum(map(abs, phi.f)), sum(map(abs, phi.g)))
        if limits.fits_bits(limits.bits_of(node) * phi.degree + coeffs.bit_length()):
            return None
    bits = polys.BOX_BITS
    box = polys.Enclosure.of(node.x, node.y, bits, bits)
    atom = deferred_atom(box.image(phi.f, phi.g, phi.degree, phi.resultant, bits, bits).size(),
                         lambda: _leaf_atom(next(steps)))
    if atom is None:
        return None
    low, high = atom.bit_range()
    if not limits.fits_bits(low):
        return atom, True
    if last and limits.fits_bits(high):
        return atom, False
    return None


# canonical_height_system encloses the leaves of a last-level node of at
# least polys.ENCLOSE_BITS bits instead of building them.  The node's
# enclosure keeps BOX_PER_PREC bits of the larger coordinate per bit of the
# estimate's precision.
BOX_PER_PREC = 4


def _leaf_boxes(system: MapSystem, node: ProjPoint, prec: int,
                limits: WorkLimits = DEFAULT_LIMITS) -> dict[int, Deferred]:
    """letter -> the atom N = max(|F(x, y)|, |G(x, y)|)/g of the node's leaf,
    as a Deferred, for each letter whose enclosure shows N >= 2.

    N is bounded by the size of an image of the node's one polys.Enclosure,
    and the build expands the node for that letter only.
    """
    leaves, atoms, bits = _Leaves(system, node, limits), {}, BOX_PER_PREC * prec
    box = polys.Enclosure.of(node.x, node.y, bits, bits)
    for letter, phi in enumerate(system.maps, start=1):
        image = box.image(phi.f, phi.g, phi.degree, phi.resultant, bits, bits)
        atom = deferred_atom(image.size(), partial(leaves.build, letter))
        if atom is not None:
            atoms[letter] = atom
    leaves.left = len(atoms)
    return atoms


class _Leaves:
    """The enclosed leaves of one last-level node, built a letter at a time.
    The builds share the node's monomial table, which is let go with the
    node once every enclosed leaf is built."""

    __slots__ = ("system", "node", "limits", "left", "table")

    def __init__(self, system: MapSystem, node: ProjPoint, limits: WorkLimits):
        self.system, self.node, self.limits = system, node, limits
        self.left, self.table = 0, None

    def build(self, letter: int) -> int:
        """The atom of the leaf for letter; no other leaf is built."""
        node, k = self.node, self.system.k
        if self.table is None:
            self.table = polys.Monomials(node.x, node.y)
        kids = children(self.system, node, self.limits,
                        lambda *_: {j for j in range(1, k + 1) if j != letter}, self.table)
        self.left -= 1
        if not self.left:
            self.node = self.table = None
        return _leaf_atom(kids[letter - 1])


def _leaf_atom(p: ProjPoint) -> int:
    """max(|x|, |y|), the atom of h(p) (none when it is 1)."""
    return max(abs(p.x), abs(p.y))


def _last_level(system: MapSystem, depth: int, limits: WorkLimits, prec: int,
                nodes: Iterable[tuple[tuple, ProjPoint]]) -> list:
    """The atoms of the leaves under the last-level nodes of a walk to
    depth - 1: an int for each built leaf, and a Deferred for each leaf
    _leaf_boxes encloses."""
    out: list = []
    for word, node in nodes:
        if len(word) < depth - 1:
            continue
        limits.check_bits(node)   # before the enclosures, as children would
        atoms = (_leaf_boxes(system, node, prec, limits)
                 if limits.bits_of(node) >= polys.ENCLOSE_BITS else {})
        out += [_leaf_atom(kid) for kid in children(system, node, limits, lambda *_: atoms)
                if kid is not None]
        out += atoms.values()
    return out


def canonical_height_system(system: MapSystem, point: ProjPoint, depth: int = 6,
                            bounds: Optional[Sequence[HeightDifferenceBound]] = None,
                            limits: WorkLimits = DEFAULT_LIMITS,
                            prec: int = DEFAULT_PRECISION,
                            workers: int = 1) -> HeightEstimate:
    """Eigensystem (averaged) canonical height via the word-tree operator.

    Evaluates the depth-n averaging operator (sum of h over all words of
    length n, divided by (d_1+...+d_k)^n) with one evaluation per tree node,
    plus a geometric tail certified by the contraction factor k/D <= 1/2.

    prec is the binary precision of the result: the endpoints are the
    prec-bit enclosures of the two exact log expressions, carried as exact
    rationals.  A leaf under a node of at least polys.ENCLOSE_BITS bits
    enters them as a logvals.Deferred (_leaf_boxes), built only when its
    enclosure meets another atom of its expression or does not decide its
    prec-bit box; each other leaf is built once.  The sums then have the
    terms, the order and the interval steps of the full expressions, so the
    endpoints are theirs.
    """
    k, big_d = system.k, system.degree_sum
    if bounds is None:
        bounds = system_bounds(system)
    limits.check_nodes(k, depth)
    # Summation commutes and term merging is canonical, so the sum does not
    # depend on how the worker count splits the tree.
    atoms = ([_leaf_atom(point)] if depth == 0 else
             fold_tree(system, point, depth - 1, partial(_last_level, system, depth, limits, prec),
                       limits, workers))
    sum_up = LogExpr.zero()
    sum_down = LogExpr.zero()
    for b in bounds:
        sum_up = sum_up + b.upper
        sum_down = sum_down + b.lower
    # sup |T h - h| <= sum(upper)/D on the + side; tail is geometric in k/D.
    tail_coeff = Fraction(k ** depth, big_d ** depth) * Fraction(big_d, big_d - k) * Fraction(1, big_d)
    up, down = sum_up * tail_coeff, -sum_down * tail_coeff
    inv = Fraction(1, big_d ** depth)
    leaves = [(atom, inv) for atom in atoms]
    lo_expr = LogExpr(leaves + list(down.terms), down.const)
    hi_expr = LogExpr(leaves + list(up.terms), up.const)
    logs: dict = {}   # lo and hi share every atom's log box
    lo, hi = lo_expr.interval(prec, logs), hi_expr.interval(prec, logs)
    certified = all(b.certified for b in bounds)
    return HeightEstimate(LogExpr.constant(Fraction(*to_rational(lo._mpi_[0]))),
                          LogExpr.constant(Fraction(*to_rational(hi._mpi_[1]))),
                          depth, big_d ** depth, certified, True, None)


@dataclass(frozen=True)
class HminResult:
    """Minimum of word canonical heights over the sampled periodic family.

    Upper-estimates the infimum over all infinite words; the lower endpoint is
    certified only relative to the family scanned.  A preperiodic witness
    makes the infimum zero outright.  The estimate's depth is the shallowest
    depth any scanned word reached, and target_met is False when any word
    stopped early at the bit cap.
    """

    estimate: HeightEstimate
    witness_word: Word
    preperiodic_witness: Optional[Word]
    words_scanned: int

    @property
    def preperiodic(self) -> bool:
        return self.preperiodic_witness is not None


def hmin_estimate(system: MapSystem, point: ProjPoint, period_bound: int = 2,
                  depth: int = 8,
                  bounds: Optional[Sequence[HeightDifferenceBound]] = None,
                  prec: int = DEFAULT_PRECISION,
                  limits: WorkLimits = DEFAULT_LIMITS) -> HminResult:
    """Scan periodic words of bounded period for the least canonical height."""
    limits.check_scan(system.k, period_bound, depth)
    if bounds is None:
        bounds = system_bounds(system)
    best: Optional[HeightEstimate] = None
    lo_min: Optional[LogExpr] = None
    reached, all_met = depth, True
    scanned = 0
    for word in iter_periodic_words(system.k, period_bound):
        scanned += 1
        points = [point]
        if find_cycle(system, word, points, depth, limits) is not None:
            zero = LogExpr.zero()
            est = HeightEstimate(zero, zero, depth,
                                 degree_products(system.degrees, word, depth)[-1],
                                 True, True, word)
            return HminResult(est, word, word, scanned)
        est = canonical_height_word(system, word, point, depth=depth,
                                    bounds=bounds, limits=limits, memo=points)
        reached, all_met = min(reached, est.depth), all_met and est.target_met
        if best is None or est.hi(prec) < best.hi(prec):
            best = est
        if lo_min is None or (est.lo_expr - lo_min).sign(prec) == -1:
            lo_min = est.lo_expr
    assert best is not None and lo_min is not None
    merged = HeightEstimate(lo_min, best.hi_expr, reached, best.degree_product,
                            best.certified, all_met, best.word)
    return HminResult(merged, best.word, None, scanned)
