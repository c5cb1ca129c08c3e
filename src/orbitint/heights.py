"""Certified canonical heights along words and for whole map systems.

Every estimate is a certified interval; the radius comes from per-map
height-difference constants summed along the word.  One-sided constants are
tracked separately, so monomial-like maps (whose height transforms exactly)
get zero-width intervals up to rounding.  A word estimate keeps its endpoints
as exact log expressions.  Its walk takes each cap test from
orbits.Orbit.fits, which reads a step past polys.ENCLOSE_BITS from the
orbit's chained enclosures, so a step is built only where its box straddles
the cap, and the atom of a last point left unbuilt is deferred (see
canonical_height_word).  A system estimate carries exact rational
endpoints: the enclosures of its two log expressions at the precision it
was computed at, in which the leaves its verdict (`LeafAtoms`) settles are
deferred atoms (see canonical_height_system).
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import partial
from typing import Iterable, NamedTuple, Optional, Sequence

from mpmath.libmp import to_rational

from . import polys
from .logvals import DEFAULT_PRECISION, Deferred, LogExpr, deferred_atom
from .orbits import DEFAULT_LIMITS, REFUSE, Lineage, Orbit, WorkLimits, find_cycle, fold_tree
from .proj1 import ProjPoint, normalize
from .ratmap import MapSystem, RatMap, eval_point
from .words import Word, iter_periodic_words

DEFAULT_DEPTH = 12


class HeightDifferenceBound(NamedTuple):
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


def _logexpr_min(a: LogExpr, b: LogExpr, prec: int = DEFAULT_PRECISION) -> LogExpr:
    """min(a, b) when the comparison is decided, else the certified lower
    bound a - max(q, 0), with q an exact upper bound on a - b."""
    s = (a - b).sign(prec)
    if s is None:
        return a - LogExpr.constant(max((a - b).upper_bound(prec), Fraction(0)))
    return a if s <= 0 else b


def c_bound(phi: RatMap, mode: str = "certified",
            samples: int = 400) -> HeightDifferenceBound:
    """Height-difference constant for a single map of degree >= 2.

    Certified mode: the upper side multiplies the largest coefficient by the
    term count; the lower side comes from the resultant cofactor identities
    (u*F + v*G = Res*X^(2d-1) and the Y twin, read from phi.cofactors),
    whose coefficient sums bound the worst cancellation.  Empirical mode
    reports a sampled maximum times a safety factor and is flagged as such.
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
        lower = LogExpr.log_int(max(sum(map(abs, u + v)) for u, v, _ in phi.cofactors[1]))
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
        if defect.sign() == -1:
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


class HeightEstimate(NamedTuple):
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


def _upcoming_tails(orbit: Orbit, bounds: Sequence[HeightDifferenceBound],
                    n: int) -> tuple[LogExpr, LogExpr]:
    """Exact one-sided tail sums for the error after n steps, divided by D_n later.

    Periodic words get the exact per-period geometric sum; finite words get a
    bound valid for every infinite continuation (worst per-step constant with
    min-degree scaling), so the interval covers any extension of the prefix.
    """
    word = orbit.word
    if word.is_periodic:
        block_up = LogExpr.zero()
        block_down = LogExpr.zero()
        for t in range(len(word)):
            bound = bounds[word.letter_at(n + t) - 1]
            inv = Fraction(orbit.degree(n), orbit.degree(n + t + 1))
            block_up = block_up + bound.upper * inv
            block_down = block_down + bound.lower * inv
        turn = orbit.degree(len(word))   # one period's degree, from any phase
        geom = Fraction(turn, turn - 1)
        return block_up * geom, block_down * geom
    d1 = orbit.system.min_degree
    worst_up = LogExpr.zero()
    worst_down = LogExpr.zero()
    for b, d in zip(bounds, orbit.system.degrees):
        worst_up = _logexpr_max(worst_up, b.upper * Fraction(1, d))
        worst_down = _logexpr_max(worst_down, b.lower * Fraction(1, d))
    geom = Fraction(d1, d1 - 1)
    return worst_up * geom, worst_down * geom


def canonical_height_word(orbit: Orbit, depth: int = DEFAULT_DEPTH,
                          bounds: Optional[Sequence[HeightDifferenceBound]] = None,
                          limits: WorkLimits = DEFAULT_LIMITS) -> HeightEstimate:
    """Canonical height of a point along a word, as a certified interval.

    Iterates h(Phi^n(P))/D_n pointwise along the orbit (never composing
    maps); the intervals at successive depths nest, so the deepest one is
    returned.  The walk stops at depth, at the end of a finite word, or at
    the first point over the bit cap; only the last sets target_met=False.
    lo_expr is not floored (see HeightEstimate).

    Past polys.ENCLOSE_BITS the orbit advances by enclosures (Orbit.step),
    and each cap test is Orbit.fits, which builds a step only when its box
    straddles the cap.  When the last step is not built, its height atom
    enters the estimate as a logvals.Deferred over its enclosure, built by
    the step's lineage if ever.  The estimate's values are those of the
    built points.
    """
    system, word = orbit.system, orbit.word
    if bounds is None:
        bounds = system_bounds(system)
    n, truncated = 0, False
    while n < depth and word.supports_depth(n + 1):
        n += 1
        if not orbit.fits(n, limits):
            truncated = True
            break
    up, down = _upcoming_tails(orbit, bounds, n)
    degree = orbit.degree(n)
    inv = Fraction(1, degree)
    step = orbit.step(n)
    atom = None if isinstance(step, ProjPoint) else _enclosed_atom(step)
    mid = (orbit[n].height() if atom is None else LogExpr(((atom, 1),))) * inv
    certified = all(b.certified for b in bounds)
    return HeightEstimate(mid - down * inv, mid + up * inv, n, degree, certified,
                          not truncated, word)


# The enclosures of canonical_height_system's settle keep BOX_PER_PREC bits
# of the larger coordinate per bit of the estimate's precision.
BOX_PER_PREC = 4


class LeafAtoms:
    """The system height's verdict (see orbits.settle) at precision prec:
    nothing kept above the leaves, and a leaf's atom max(|F|, |G|)/g read
    from the image of parent's enclosure (_enclosed_atom), or REFUSE unless
    that shows it >= 2.  Its boxes keep BOX_PER_PREC * prec bits of each
    coordinate.  Picklable, so workers share it."""

    def __init__(self, prec: int):
        self.bits = (BOX_PER_PREC * prec, BOX_PER_PREC * prec)

    def __call__(self, parent: polys.Enclosure, phi: RatMap, leaf: bool) -> object:
        if not leaf:
            return None
        return _enclosed_atom(parent.image(phi)) or REFUSE


def _enclosed_atom(box: polys.Enclosure) -> Optional[Deferred]:
    """The atom of h at box's point, a Deferred over its size that the
    point's lineage builds if ever, or None unless the box shows it >= 2."""
    return deferred_atom(box.size(), partial(_built_atom, box.lineage))


def _built_atom(lineage: Lineage) -> int:
    return _leaf_atom(lineage.build())


def _leaf_atom(p: ProjPoint) -> int:
    """max(|x|, |y|), the atom of h(p) (none when it is 1)."""
    return max(abs(p.x), abs(p.y))


def _leaf_atoms(depth: int, nodes: Iterable[tuple[tuple, object]]) -> list:
    """The atoms of a walk's leaves, in preorder: an int for each built leaf
    and the Deferreds of the leaves under each child LeafAtoms settles."""
    atoms = []
    for word, node in nodes:
        if type(node) is tuple:
            atoms.extend(node)
        elif len(word) == depth:
            atoms.append(_leaf_atom(node))
    return atoms


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
    rationals.  A leaf one to three levels under a node of at least
    polys.ENCLOSE_BITS bits enters them as a logvals.Deferred (LeafAtoms),
    so the nodes between may not be built either; it is built only when its
    enclosure meets another atom of its expression or does not decide its
    prec-bit box; each other leaf is built once.  The sums then have the
    terms, the order and the interval steps of the full expressions, so the
    endpoints are theirs.
    """
    k, big_d = system.k, system.degree_sum
    if bounds is None:
        bounds = system_bounds(system)
    # Summation commutes and term merging is canonical, so the sum does not
    # depend on how the worker count splits the tree.
    atoms = fold_tree(system, point, depth, partial(_leaf_atoms, depth), limits, workers,
                      LeafAtoms(prec))
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


class HminResult(NamedTuple):
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
    if period_bound < 1:
        raise ValueError("period_bound must be at least 1")
    limits.check_scan(system.k, period_bound, depth)
    if bounds is None:
        bounds = system_bounds(system)
    best: Optional[HeightEstimate] = None
    lo_min: Optional[LogExpr] = None
    reached, all_met = depth, True
    for scanned, word in enumerate(iter_periodic_words(system.k, period_bound), start=1):
        orbit = Orbit(system, word, point)
        if find_cycle(orbit, depth, limits) is not None:
            zero = LogExpr.zero()
            est = HeightEstimate(zero, zero, depth, orbit.degree(depth), True, True, word)
            return HminResult(est, word, word, scanned)
        est = canonical_height_word(orbit, depth, bounds, limits)
        reached, all_met = min(reached, est.depth), all_met and est.target_met
        if best is None or est.hi(prec) < best.hi(prec):
            best = est
        lo_min = est.lo_expr if lo_min is None else _logexpr_min(lo_min, est.lo_expr, prec)
    assert best is not None and lo_min is not None
    merged = HeightEstimate(lo_min, best.hi_expr, reached, best.degree_product,
                            best.certified, all_met, best.word)
    return HminResult(merged, best.word, None, scanned)
