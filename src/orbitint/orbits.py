"""The orbit engine: every walk along a word or over the semigroup tree.

`children` is the one place a tree node expands, and only the walks call
it: it checks the node's bits, `settle`s the children that the consumer's
verdict decides unbuilt, and evaluates the others in letter order from one
shared monomial table of the node's point.  `walk_tree` yields (word,
point) in preorder (prefixes first, letters ascending) on an explicit
stack, and `fold_tree` fans the tree out by first letter for parallel
workers and concatenates the parts.  Both take the consumer's one verdict,
`verdict(parent, phi, leaf)` with the `bits` its boxes keep; a consumer
with no verdict gets all nodes.  `settle` decides the nodes under a large
node at most `SETTLE_LEVELS` (3) levels above the leaves from chained
`polys.Enclosure`s, which keep each coordinate's top bits at an exponent
of its own.  Each enclosure carries its point's `Lineage`, the one build
of a point read unbuilt, so a settled point is built later only down its
path from its node, never by expanding its parent again.
`Orbit` is the one walk along a word: the orbit Phi^0(P), Phi^1(P), ...
of a point, built one map per step on first use and shared by every pass
over it (`find_cycle` scans it for a repeat, `iterate_word` yields it
bit-checked), and the one source of the degree products D_n.  Past
`polys.ENCLOSE_BITS` it advances by chained enclosures: each step that is
not built is known by the `polys.Enclosure.image` of the step before, so
the height walk and gamma's membership scan read the height atom and the
chordal sum of a large step from its box, and build the point (by its
lineage) only where a box does not decide.  `Orbit.fits` is the one cap
test of a word step: it reads the step's bit range
(`polys.Enclosure.bit_range` of its box) and builds the step only when
that range straddles the cap.
`WorkLimits` is the one way a cap reaches the engine: `bits_of` is the one
coordinate-size measure, `fits_bits` the one bit-cap test, `check_nodes`
and `check_scan` the node-cap tests (of a tree and of an hmin scan) and
`cycle_scan` the one cycle budget.
`enumerate_tree` streams the walk's (word, point) pairs into a consumer's
fold, so no node is held that the consumer does not keep.  Point equality
is exact equality of normalized coordinates: the one dedupe index,
`_earlier_words`, keeps each distinct point's first word under a cheap key
and confirms a key match by rebuilding the earlier point (its `Lineage`).
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sized

from . import polys
from .errors import WorkLimitExceeded
from .proj1 import ProjPoint, int_text
from .ratmap import MapSystem, RatMap, is_totally_ramified, eval_point
from .words import Word


# Cycles have small coordinates, so a cycle scan gives up at this size even
# under a larger bit cap.  A missed cycle only leaves a verdict "unknown" or
# a height estimate in its place; it never makes a verdict wrong.
CYCLE_BITS = 1 << 16


def _tree_size(k: int, depth: int) -> int:
    """1 + k + ... + k^depth, the nodes of a k-ary tree of the given depth."""
    return depth + 1 if k == 1 else (k ** (depth + 1) - 1) // (k - 1)


class WorkLimits(NamedTuple):
    """The work caps of one run.  node_cap bounds the nodes of a word tree;
    bit_cap bounds orbit coordinate sizes (a hard stop in walks, a soft one
    in height estimates and cycle scans).  A word step is tested by
    Orbit.fits, which reads fits_bits from the step's bit range, so past
    polys.ENCLOSE_BITS neither a height estimate nor a cycle scan builds a
    point past its cap, and iterate_word builds one only to name its exact
    bits when the enclosure leaves them open."""

    node_cap: int = 1_000_000
    bit_cap: int = 1_000_000

    @staticmethod
    def bits_of(p: ProjPoint) -> int:
        return max(p.x.bit_length(), p.y.bit_length())

    def fits_bits(self, bits: int) -> bool:
        """True when a point of the given bits_of is within the bit cap."""
        return bits <= self.bit_cap

    def check_bits(self, bits: int):
        """Reject a point of the given bits_of over the bit cap."""
        if not self.fits_bits(bits):
            raise WorkLimitExceeded(
                f"orbit coordinate of {bits} bits exceeded the cap {self.bit_cap}",
                bits=bits)

    def check_nodes(self, k: int, depth: int):
        """Reject a k-ary tree of the given depth before it is walked.  The
        cap counts all 1 + k + ... + k^depth nodes, leaves that a consumer's
        verdict rules out without building them included."""
        if depth < 0:
            raise ValueError("depth must be nonnegative")
        self._check_power("tree", k, depth)
        self._check_count("tree", _tree_size(k, depth))

    def check_scan(self, k: int, period_bound: int, depth: int):
        """Reject an hmin scan before it starts: the cap counts depth steps for
        each of the k + ... + k^period_bound candidate words."""
        self._check_power("hmin scan", k, period_bound if depth else 0)
        self._check_count("hmin scan", (_tree_size(k, period_bound) - 1) * depth)

    def _check_power(self, what: str, k: int, exponent: int):
        """Reject a count of at least k^exponent nodes, unbuilt, when that
        bound is over the cap by more than 64 bits: the message names it."""
        if exponent * (k.bit_length() - 1) > self.node_cap.bit_length() + 64:
            raise WorkLimitExceeded(
                f"{what} of at least {k}^{exponent} nodes exceeds the node cap {self.node_cap}")

    def _check_count(self, what: str, nodes: int):
        if nodes > self.node_cap:
            raise WorkLimitExceeded(
                f"{what} of {int_text(nodes)} nodes exceeds the node cap {self.node_cap}",
                nodes=nodes)

    def cycle_scan(self) -> "WorkLimits":
        """These limits with the bit cap lowered to CYCLE_BITS."""
        return self._replace(bit_cap=min(self.bit_cap, CYCLE_BITS))


DEFAULT_LIMITS = WorkLimits()

# A verdict's refusal to settle a node (see settle), compared by identity.
REFUSE = object()

# settle runs at nodes at most this many levels above the leaves: the one
# level bound of every consumer.  Each level more chains one more image,
# whose box loses bits to cancellation, so fewer nodes are decided.
SETTLE_LEVELS = 3


def settle(system: MapSystem, node: ProjPoint, levels: int, limits: WorkLimits,
           verdict: Callable) -> dict:
    """The stand-ins, by letter, of the children of a node levels above the
    leaves that verdict settles unbuilt.  A node at most SETTLE_LEVELS
    levels above the leaves is enclosed once (polys.Enclosure.of at
    verdict.bits), and each node under it by the image of its parent's
    enclosure, whose Lineage builds it.  verdict(parent, phi, leaf) gives
    REFUSE or the value kept for the node phi(parent).  A child is settled
    when no node under it is refused and each one above the leaves is shown
    within the bit cap, as its expansion would check.  Its stand-in, the
    tuple of the values kept in preorder, is yielded in its place and never
    expanded; None, when none is kept, drops it with its subtree."""
    box = (polys.Enclosure.of(node.x, node.y, verdict.bits, Lineage(node))
           if levels <= SETTLE_LEVELS else None)
    if box is None:
        return {}
    out = {}
    for letter, child_map in enumerate(system.maps, start=1):
        kept, stack = [], [(box, child_map, 1)]
        while stack:
            parent, phi, level = stack.pop()
            value = verdict(parent, phi, level == levels)
            if value is REFUSE:
                break
            if value is not None:
                kept.append(value)
            if level < levels:
                image = parent.image(phi)
                if not limits.fits_bits(image.bit_range()[1]):
                    break
                stack.extend((image, psi, level + 1) for psi in reversed(system.maps))
        else:
            out[letter] = tuple(kept) if kept else None
    return out


class Lineage:
    """How one point is built: it is the built point, or the image under
    phi of its parent lineage's point.  Every point read unbuilt (a settled
    node, an orbit step, a first point of the dedupe index) is built by its
    lineage alone, and a later build holds the lineage, never a box."""

    __slots__ = ("point", "parent", "phi", "_table")

    def __init__(self, point: Optional[ProjPoint], parent: Optional[Lineage] = None, phi=None):
        self.point, self.parent, self.phi, self._table = point, parent, phi, None

    def child(self, phi: RatMap) -> "Lineage":
        return Lineage(None, self, phi)

    def build(self) -> ProjPoint:
        """The point, evaluated once down from the nearest built ancestor
        and kept, as is each point between; the maps at one built point read
        its one monomial table, made on the first build there."""
        chain, source = [], self
        while source.point is None:
            chain.append(source)
            source = source.parent
        for lineage in reversed(chain):
            if source._table is None:
                source._table = polys.Monomials(source.point.x, source.point.y)
            lineage.point = eval_point(lineage.phi, source.point, source._table)
            source = lineage
        return self.point


class Orbit:
    """The orbit of a point along a word: points is the list Phi^0(P), ...,
    as far as built.  orbit[n] builds each missing point up to Phi^n(P),
    one map per step, so every pass over one orbit evaluates each point
    once.  Past polys.ENCLOSE_BITS the orbit advances by enclosures (see
    step), so a step is built only when a reader needs its exact value.  A
    letter outside the system is a ValueError."""

    __slots__ = ("system", "word", "points", "_boxes", "_products")

    def __init__(self, system: MapSystem, word: Word, point: ProjPoint):
        self.system, self.word, self.points = system, word, [point]
        self._boxes: dict[int, Optional[polys.Enclosure]] = {}   # step -> its enclosure or None
        self._products = [1]   # D_0, ..., D_m over the word's m letters
        for letter in word.letters:
            if letter > system.k:
                raise ValueError(f"letter {letter} outside system of size {system.k}")
            self._products.append(self._products[-1] * system.degrees[letter - 1])

    def __getitem__(self, n: int) -> ProjPoint:
        points = self.points
        while len(points) <= n:
            box = self._boxes.pop(len(points), None)   # a built step is enclosed anew
            points.append(eval_point(self.map(len(points) - 1), points[-1]) if box is None
                          else box.lineage.build())
        return points[n]

    def step(self, n: int) -> ProjPoint | polys.Enclosure:
        """Phi^n(P) when it is built, else its enclosure once the orbit is
        past polys.ENCLOSE_BITS: the image of step n - 1's enclosure, which
        is polys.Enclosure.of that point at polys.BOX_BITS when it is built,
        or else its own image.  A step after a built point with no box is
        built, which costs less than its box."""
        if n < len(self.points):
            return self.points[n]
        boxes, k = self._boxes, n
        while k not in boxes and k >= len(self.points):
            k -= 1
        box = boxes[k] if k in boxes else self._enclose(k)
        for m in range(k + 1, n + 1):
            if box is None:   # m follows a built point with no box
                box = self._enclose(m)
            else:
                box = boxes[m] = box.image(self.map(m - 1))
        return self.points[n] if n < len(self.points) else box

    def _enclose(self, n: int) -> Optional[polys.Enclosure]:
        """The enclosure of the point Phi^n(P), built now if it is not yet,
        at polys.BOX_BITS, or None when polys.Enclosure.of gives none.  The
        one place a word walk encloses a point."""
        point = self[n]
        if n not in self._boxes:
            self._boxes[n] = polys.Enclosure.of(point.x, point.y, (polys.BOX_BITS, polys.BOX_BITS),
                                                Lineage(point))
        return self._boxes[n]

    def bit_range(self, n: int) -> tuple[int, int]:
        """Bounds on WorkLimits.bits_of(Phi^n(P)): its bits when the step is
        built, else those its enclosure allows (see step)."""
        step = self.step(n)
        if isinstance(step, ProjPoint):
            bits = WorkLimits.bits_of(step)
            return bits, bits
        return step.bit_range()

    def fits(self, n: int, limits: WorkLimits) -> bool:
        """True when Phi^n(P) is within limits' bit cap: the one cap test of
        a word step.  It reads the step's bit range and builds the step only
        when that range straddles the cap."""
        low, high = self.bit_range(n)
        if limits.fits_bits(low) != limits.fits_bits(high):
            low = limits.bits_of(self[n])
        return limits.fits_bits(low)

    def map(self, n: int) -> RatMap:
        """The map of step n + 1, from Phi^n(P) to Phi^(n+1)(P)."""
        return self.system.map_for_letter(self.word.letter_at(n))

    def degree(self, n: int) -> int:
        """D_n = d_{w_1} ... d_{w_n}, the degree of the first n steps: along a
        periodic word, a power of one period's product times a cached
        prefix's, so the cache grows with the word, not with the orbit."""
        turns, rest = divmod(n, len(self.word)) if self.word.is_periodic else (0, n)
        return self._products[-1] ** turns * self._products[rest]


def find_cycle(orbit: Orbit, steps: int,
               limits: WorkLimits = DEFAULT_LIMITS) -> Optional[tuple[int, int]]:
    """(tail length, cycle length) of the first exact repeat of (point, word
    phase) within steps steps along the orbit, or None.

    A repeat proves a finite orbit.  The scan gives up at the end of a
    finite word and at the first point over the cycle budget
    (limits.cycle_scan), which Orbit.fits tests before the point is built.
    """
    seen = {(orbit[0], 0): 0}
    scan = limits.cycle_scan()
    for n in range(1, steps + 1):
        if not (orbit.word.supports_depth(n) and orbit.fits(n, scan)):
            return None
        start = seen.setdefault((orbit[n], n % len(orbit.word)), n)
        if start != n:
            return start, n - start
    return None


def children(system: MapSystem, point: ProjPoint, limits: WorkLimits,
             verdict: Optional[Callable] = None, levels: int = 1) -> list:
    """The k children of a tree node levels above the leaves, in letter
    order, after its bits are checked.  A child that verdict, when given,
    settles (the one call of settle) is its stand-in, never built.  The maps
    read one lazily built monomial table of the node's point.  Only
    walk_tree and fold_tree call it."""
    limits.check_bits(limits.bits_of(point))
    settled = settle(system, point, levels, limits, verdict) if verdict is not None else {}
    table = polys.Monomials(point.x, point.y)
    return [settled[letter] if letter in settled else eval_point(phi, point, table)
            for letter, phi in enumerate(system.maps, start=1)]


def walk_tree(system: MapSystem, point: ProjPoint, depth: int,
              limits: WorkLimits = DEFAULT_LIMITS, prefix: tuple = (),
              verdict: Optional[Callable] = None) -> Iterator[tuple[tuple, ProjPoint]]:
    """Yield (word, point) for the subtree under prefix, in preorder, down to
    words of the given length.  Children wait on an explicit stack, last
    letter at the bottom, so the walk never recurses.  verdict, when given,
    settles each node expanded (see children)."""
    stack = [(prefix, point)]
    while stack:
        word, node = stack.pop()
        yield word, node
        if len(word) < depth and isinstance(node, ProjPoint):
            kids = children(system, node, limits, verdict, depth - len(word))
            stack.extend(reversed([(word + (letter,), kid)
                                   for letter, kid in enumerate(kids, start=1)
                                   if kid is not None]))


def _fold_subtree(args) -> list:
    fold, system, point, prefix, depth, limits, verdict = args
    return fold(walk_tree(system, point, depth, limits, prefix, verdict))


def fold_tree(system: MapSystem, point: ProjPoint, depth: int,
              fold: Callable[[Iterable], list],
              limits: WorkLimits = DEFAULT_LIMITS, workers: int = 1,
              verdict: Optional[Callable] = None) -> list:
    """fold applied to the preorder walk of the tree, as one list.

    With workers > 1 the root is expanded here, each first-letter subtree is
    folded in a worker process, and the parts are concatenated in letter
    order after the root's.  A fold that maps each node on its own (fold
    and verdict must be picklable) therefore gives the same list for any
    worker count.  verdict is the consumer's verdict of walk_tree, applied
    to the root as well.  A tree of depth at most 1 is folded here, and so
    is each stand-in settled for a child of the root: no stand-in goes to
    a worker.  The node cap is checked here, before any evaluation.
    """
    limits.check_nodes(system.k, depth)
    if workers <= 1 or depth <= 1:
        return fold(walk_tree(system, point, depth, limits, verdict=verdict))
    from concurrent.futures import ProcessPoolExecutor

    kids = children(system, point, limits, verdict, depth)
    tasks = [(fold, system, child, (letter,), depth, limits, verdict)
             for letter, child in enumerate(kids, start=1) if child is not None]
    out = fold([((), point)])
    with ProcessPoolExecutor(max_workers=workers) as pool:
        parts = pool.map(_fold_subtree, [task for task in tasks if isinstance(task[2], ProjPoint)])
        for task in tasks:
            out.extend(next(parts) if isinstance(task[2], ProjPoint) else _fold_subtree(task))
    return out


def iterate_word(orbit: Orbit, n: int,
                 limits: WorkLimits = DEFAULT_LIMITS) -> Iterator[ProjPoint | polys.Enclosure]:
    """Yield the steps Phi^0(P)..Phi^n(P) along the orbit's word, one at a
    time, as orbit.step gives them: each point, or the enclosure of a point
    not built past polys.ENCLOSE_BITS (orbit[m] builds it).  Each step past
    P is checked against the bit cap when it is reached (Orbit.fits): a step
    over the cap is built only when its enclosure leaves open the exact bits
    that the error names.  A consumer that stops early builds nothing
    further."""
    if not orbit.word.supports_depth(n):
        raise ValueError(f"word {orbit.word} is too short for depth {n}")
    yield orbit[0]
    for m in range(1, n + 1):
        if not orbit.fits(m, limits):
            low, high = orbit.bit_range(m)
            limits.check_bits(high if low == high else limits.bits_of(orbit[m]))
        yield orbit.step(m)


def _point_key(point: ProjPoint) -> tuple:
    """The dedupe index's key of a point.  hash alone is too weak: int hashes
    are taken mod 2^61 - 1, so 2^m and 2^(m + 61) collide; the coordinates'
    bit lengths part them.  Any key is exact, since _earlier_words confirms
    a match by rebuilding the earlier point."""
    return hash(point), point.x.bit_length(), point.y.bit_length()


def _earlier_words(system: MapSystem, root: ProjPoint,
                   nodes: Iterable[tuple[tuple, object]]) -> Iterator[tuple]:
    """(word, node, earlier) for each (word, node) pair of the tree under
    root: earlier is the first word of an earlier pair of its point, or None
    when it is the first (a stand-in always is).  This is the one dedupe
    index: it lists each first word under its point's _point_key, and
    compares a point whose key matches with each earlier point of that key,
    rebuilt by its Lineage from the root on first need and kept.  So
    equality is exact, and the index holds words, not points."""
    index: dict[tuple, list] = {}
    lineages = {(): Lineage(root)}   # word -> the lineage of its point

    def rebuilt(word: tuple) -> ProjPoint:
        for n, letter in enumerate(word):
            if word[:n + 1] not in lineages:
                lineages[word[:n + 1]] = lineages[word[:n]].child(system.map_for_letter(letter))
        return lineages[word].build()

    for word, node in nodes:
        earlier = None
        if isinstance(node, ProjPoint):
            words = index.setdefault(_point_key(node), [])
            earlier = next((first for first in words if rebuilt(first) == node), None)
            if earlier is None:
                words.append(word)
        yield word, node, earlier


def enumerate_tree(system: MapSystem, point: ProjPoint, depth: int,
                   dedupe: bool = False, limits: WorkLimits = DEFAULT_LIMITS,
                   workers: int = 1, verdict: Optional[Callable] = None,
                   fold: Callable[[Iterator[tuple[tuple, object]]], Sized] = list) -> Sized:
    """fold applied to the walk's (word, point) pairs to the given depth,
    streamed in preorder word order, less the nodes that the consumer's
    verdict drops (see walk_tree): by default the list of them.  The node cap is
    checked before fold is called, and no pair is held but those fold keeps.
    The tree is walked within this call and fold's result is sized (a fold
    that writes the pairs out returns a range over them): perfbench's tracer
    counts the walk's nodes inside this call and reads the length as the
    pairs kept.

    With dedupe=True only the first pair per distinct point is streamed
    (the witness word is the lexicographically least, by traversal order),
    through the one dedupe index, _earlier_words.  Output is independent of
    the worker count: with workers > 1 the parts come back whole from
    fold_tree and stream from there.
    """
    limits.check_nodes(system.k, depth)
    nodes = (walk_tree(system, point, depth, limits, verdict=verdict) if workers <= 1
             else fold_tree(system, point, depth, list, limits, workers, verdict))
    if dedupe:
        nodes = ((word, node) for word, node, earlier in _earlier_words(system, point, nodes)
                 if earlier is None)
    return fold(nodes)


class HypothesisReport(NamedTuple):
    """Depth-bounded evidence for the orbit hypotheses.

    A True flag means no counterexample up to the checked depth, never a
    proof; witnesses re-verify by construction.
    """

    repeated_point_free: bool
    repeat_witness: Optional[tuple]  # (word1, word2, point)
    totally_ramified_free: bool
    ramified_witness: Optional[tuple]  # (map index 1-based, point, word)
    depth_checked: int


def hypothesis_check(system: MapSystem, base: ProjPoint, depth: int,
                     limits: WorkLimits = DEFAULT_LIMITS) -> HypothesisReport:
    """Scan the full word tree of the base point for repeated points and for
    points where some system map is totally ramified."""
    repeat, ramified = enumerate_tree(system, base, depth, limits=limits,
                                      fold=partial(_hypothesis_witnesses, system, base))
    return HypothesisReport(
        repeated_point_free=repeat is None,
        repeat_witness=repeat,
        totally_ramified_free=ramified is None,
        ramified_witness=ramified,
        depth_checked=depth)


def _hypothesis_witnesses(system: MapSystem, base: ProjPoint,
                          nodes: Iterable[tuple[tuple, ProjPoint]]) -> list:
    """[repeat witness, ramified witness] of the tree's (word, point) pairs,
    each None when there is none: the first pair whose point an earlier pair
    had, and the first map totally ramified at the point of a first pair
    (ramification depends only on the point)."""
    repeat = ramified = None
    for word, point, earlier in _earlier_words(system, base, nodes):
        if earlier is not None:
            if repeat is None:
                repeat = (earlier, word, point)
        elif ramified is None:
            ramified = next(((idx, point, word)
                             for idx, phi in enumerate(system.maps, start=1)
                             if is_totally_ramified(phi, point)), None)
    return [repeat, ramified]
