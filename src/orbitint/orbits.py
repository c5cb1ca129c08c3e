"""The orbit engine: every walk along a word or over the semigroup tree.

`children` is the one place a tree node expands, and only the walks call
it: it checks the node's bits and evaluates its k children in letter order
from one shared monomial table of the node's point, less the children a
consumer's test (`NodeTest`) settles without building them.  `walk_tree`
yields (word, point) in preorder (prefixes first, letters ascending) on an
explicit stack, and `fold_tree` fans the tree out by first letter for
parallel workers and concatenates the parts.  Both call the consumer's one
test, `settle` with its verdict, at each node they expand, and a consumer
with no test gets all nodes.  A settled point is built later only along
its path from its node (`_Settled`), never by expanding its parent again.
`Orbit` is the one walk along a word: the orbit Phi^0(P), Phi^1(P), ...
of a point, built one map per step on first use and shared by every pass
over it (`find_cycle` scans it for a repeat, `iterate_word` yields it
bit-checked), and the one source of the degree products D_n.
`WorkLimits` is the one way a cap reaches the engine: `bits_of` is the one
coordinate-size measure, `fits_bits` the one bit-cap test (`fits` applies
it to a point), `check_nodes` and `check_scan` the node-cap tests (of a
tree and of an hmin scan) and `cycle_scan` the one cycle budget.
`enumerate_tree` streams the walk's (word, point) pairs into a consumer's
fold, so no node is held that the consumer does not keep.  Point equality
is exact equality of normalized coordinates: the one dedupe index,
`_earlier_words`, keeps each distinct point's first word under a cheap key
and confirms a key match by rebuilding the earlier point along its word
(`_Settled`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sized

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


@dataclass(frozen=True)
class WorkLimits:
    """The work caps of one run.  node_cap bounds the nodes of a word tree;
    bit_cap bounds orbit coordinate sizes (a hard stop in walks, a soft one
    in height estimates and cycle scans).  A height estimate never builds a
    point past the cap: once the point before it is large, it reads only the
    enclosure of that point's height atom (see
    heights.canonical_height_word)."""

    node_cap: int = 1_000_000
    bit_cap: int = 1_000_000

    @staticmethod
    def bits_of(p: ProjPoint) -> int:
        return max(p.x.bit_length(), p.y.bit_length())

    def fits(self, p: ProjPoint) -> bool:
        """True when p is within the bit cap."""
        return self.fits_bits(self.bits_of(p))

    def fits_bits(self, bits: int) -> bool:
        """True when a point of the given bits_of is within the bit cap."""
        return bits <= self.bit_cap

    def check_bits(self, p: ProjPoint):
        if not self.fits(p):
            bits = self.bits_of(p)
            raise WorkLimitExceeded(
                f"orbit coordinate of {bits} bits exceeded the cap {self.bit_cap}",
                bits=bits)

    def check_nodes(self, k: int, depth: int):
        """Reject a k-ary tree of the given depth before it is walked.  The
        cap counts all 1 + k + ... + k^depth nodes, leaves that a consumer's
        test rules out without building them included."""
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
        return replace(self, bit_cap=min(self.bit_cap, CYCLE_BITS))


DEFAULT_LIMITS = WorkLimits()

# A consumer's test of a tree node: test(system, node, levels, limits), for
# a node levels above the leaves, maps each letter whose child the consumer
# settles without building it to the child's stand-in (see settle).  A
# stand-in of None drops the child with its subtree; any other is yielded in
# the child's place and never expanded, so it stands for the whole subtree.
NodeTest = Callable[[MapSystem, ProjPoint, int, WorkLimits], Mapping[int, object]]

# A verdict's refusal to settle a node (see settle), compared by identity.
REFUSE = object()


def settle(system: MapSystem, node: ProjPoint, levels: int, limits: WorkLimits,
           bits: tuple[int, int], judge: Callable) -> dict:
    """A consumer's test (NodeTest) from its verdict judge.  A node of at
    least polys.ENCLOSE_BITS bits, at most 2 levels above the leaves, is
    enclosed once (polys.Enclosure.of at bits), and each node under it by
    the image of its parent's enclosure.  judge(parent, phi, leaf, build)
    gives REFUSE or the value kept for the node phi(parent), which build()
    builds.  A child is settled when no node under it is refused and each
    one above the leaves is shown within the bit cap, as its expansion would
    check; its stand-in is the tuple of the values kept, in preorder, or
    None when none is."""
    if levels > 2 or limits.bits_of(node) < polys.ENCLOSE_BITS:
        return {}
    settled, out = _Settled(system, node), {}
    box = polys.Enclosure.of(node.x, node.y, *bits)
    maps = list(enumerate(system.maps, start=1))
    for letter, child_map in maps:
        kept, stack = [], [(box, child_map, (letter,))]
        while stack:
            parent, phi, path = stack.pop()
            leaf = len(path) == levels
            value = judge(parent, phi, leaf, partial(settled.build, path))
            if value is REFUSE:
                break
            if value is not None:
                kept.append(value)
            if not leaf:
                image = parent.image(phi, *bits)
                _, hi, e = image.size()
                if not limits.fits_bits(hi.bit_length() + e):
                    break
                stack.extend((image, psi, path + (b,)) for b, psi in reversed(maps))
        else:
            out[letter] = tuple(kept) if kept else None
    return out


class _Settled:
    """Points under one node, each built along its path from the node: the
    points settle settled, and the first points that the dedupe index
    (_earlier_words) compares.  Each point between is built once, and the
    maps at one point read its one monomial table, made on the first build
    there."""

    __slots__ = ("system", "points", "tables")

    def __init__(self, system: MapSystem, node: ProjPoint):
        self.system, self.points, self.tables = system, {(): node}, {}

    def _image(self, path: tuple) -> ProjPoint:
        """The point at path, from the built point at path[:-1]."""
        parent = path[:-1]
        point, table = self.points[parent], self.tables.get(parent)
        if table is None:
            table = self.tables[parent] = polys.Monomials(point.x, point.y)
        return eval_point(self.system.map_for_letter(path[-1]), point, table)

    def build(self, path: tuple) -> ProjPoint:
        """The point at path."""
        for n in range(1, len(path)):
            if path[:n] not in self.points:
                self.points[path[:n]] = self._image(path[:n])
        return self._image(path)

    def kept(self, path: tuple) -> ProjPoint:
        """The point at path, built on first need and kept."""
        if path not in self.points:
            self.points[path] = self.build(path)
        return self.points[path]


class Orbit:
    """The orbit of a point along a word: points is the list Phi^0(P), ...,
    as far as built.  orbit[n] builds each missing point up to Phi^n(P),
    one map per step, so every pass over one orbit evaluates each point
    once.  A letter outside the system is a ValueError."""

    __slots__ = ("system", "word", "points", "_products")

    def __init__(self, system: MapSystem, word: Word, point: ProjPoint):
        self.system, self.word, self.points = system, word, [point]
        self._products = [1]   # D_0, ..., D_m over the word's m letters
        for letter in word.letters:
            if letter > system.k:
                raise ValueError(f"letter {letter} outside system of size {system.k}")
            self._products.append(self._products[-1] * system.degrees[letter - 1])

    def __getitem__(self, n: int) -> ProjPoint:
        points = self.points
        while len(points) <= n:
            points.append(eval_point(self.map(len(points) - 1), points[-1]))
        return points[n]

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
    (limits.cycle_scan).
    """
    seen = {(orbit[0], 0): 0}
    scan = limits.cycle_scan()
    for n in range(1, steps + 1):
        if not (orbit.word.supports_depth(n) and scan.fits(current := orbit[n])):
            return None
        start = seen.setdefault((current, n % len(orbit.word)), n)
        if start != n:
            return start, n - start
    return None


def children(system: MapSystem, point: ProjPoint, limits: WorkLimits,
             test: Optional[NodeTest] = None, levels: int = 1) -> list:
    """The k children of a tree node levels above the leaves, in letter
    order, after its bits are checked.  test, when given, settles some
    children without building them: the list holds each one's stand-in in
    its place (see NodeTest).  The maps read one lazily built monomial
    table of the node's point.  Only walk_tree and fold_tree call it."""
    limits.check_bits(point)
    settled = test(system, point, levels, limits) if test is not None else {}
    table = polys.Monomials(point.x, point.y)
    return [settled[letter] if letter in settled else eval_point(phi, point, table)
            for letter, phi in enumerate(system.maps, start=1)]


def walk_tree(system: MapSystem, point: ProjPoint, depth: int,
              limits: WorkLimits = DEFAULT_LIMITS, prefix: tuple = (),
              test: Optional[NodeTest] = None) -> Iterator[tuple[tuple, ProjPoint]]:
    """Yield (word, point) for the subtree under prefix, in preorder, down to
    words of the given length.  Children wait on an explicit stack, last
    letter at the bottom, so the walk never recurses.  test, when given, is
    the consumer's test at every node expanded (see NodeTest)."""
    stack = [(prefix, point)]
    while stack:
        word, node = stack.pop()
        yield word, node
        if len(word) < depth and isinstance(node, ProjPoint):
            kids = children(system, node, limits, test, depth - len(word))
            stack.extend(reversed([(word + (letter,), kid)
                                   for letter, kid in enumerate(kids, start=1)
                                   if kid is not None]))


def _fold_subtree(args) -> list:
    fold, system, point, prefix, depth, limits, test = args
    return fold(walk_tree(system, point, depth, limits, prefix, test))


def fold_tree(system: MapSystem, point: ProjPoint, depth: int,
              fold: Callable[[Iterable], list],
              limits: WorkLimits = DEFAULT_LIMITS, workers: int = 1,
              test: Optional[NodeTest] = None) -> list:
    """fold applied to the preorder walk of the tree, as one list.

    With workers > 1 the root is expanded here, each first-letter subtree is
    folded in a worker process, and the parts are concatenated in letter
    order after the root's.  A fold that maps each node on its own (fold
    and test must be picklable) therefore gives the same list for any worker
    count.  test is the consumer's test of walk_tree, applied to the root
    as well.  A tree of depth at most 1 is folded here, and so is each
    stand-in the test gives for a child of the root: no stand-in goes to a
    worker.  The node cap is checked here, before any evaluation.
    """
    limits.check_nodes(system.k, depth)
    if workers <= 1 or depth <= 1:
        return fold(walk_tree(system, point, depth, limits, test=test))
    from concurrent.futures import ProcessPoolExecutor

    kids = children(system, point, limits, test, depth)
    tasks = [(fold, system, child, (letter,), depth, limits, test)
             for letter, child in enumerate(kids, start=1) if child is not None]
    out = fold([((), point)])
    with ProcessPoolExecutor(max_workers=workers) as pool:
        parts = pool.map(_fold_subtree, [task for task in tasks if isinstance(task[2], ProjPoint)])
        for task in tasks:
            out.extend(next(parts) if isinstance(task[2], ProjPoint) else _fold_subtree(task))
    return out


def iterate_word(orbit: Orbit, n: int,
                 limits: WorkLimits = DEFAULT_LIMITS) -> Iterator[ProjPoint]:
    """Yield Phi^0(P)..Phi^n(P) along the orbit's word, one at a time, each
    past P checked against the bit cap when it is reached, so a consumer
    that stops early builds nothing further."""
    if not orbit.word.supports_depth(n):
        raise ValueError(f"word {orbit.word} is too short for depth {n}")
    yield orbit[0]
    for m in range(1, n + 1):
        current = orbit[m]
        limits.check_bits(current)
        yield current


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
    rebuilt exactly along its word from the root (_Settled) on first need
    and kept.  So equality stays exact equality of normalized coordinates,
    and the index holds words, not points."""
    index: dict[tuple, list] = {}
    rebuilt = _Settled(system, root)
    for word, node in nodes:
        earlier = None
        if isinstance(node, ProjPoint):
            words = index.setdefault(_point_key(node), [])
            earlier = next((first for first in words if rebuilt.kept(first) == node), None)
            if earlier is None:
                words.append(word)
        yield word, node, earlier


def enumerate_tree(system: MapSystem, point: ProjPoint, depth: int,
                   dedupe: bool = False, limits: WorkLimits = DEFAULT_LIMITS,
                   workers: int = 1, test: Optional[NodeTest] = None,
                   fold: Callable[[Iterator[tuple[tuple, object]]], Sized] = list) -> Sized:
    """fold applied to the walk's (word, point) pairs to the given depth,
    streamed in preorder word order, less the nodes that the consumer's test
    drops (see walk_tree): by default the list of them.  The node cap is
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
    nodes = (walk_tree(system, point, depth, limits, test=test) if workers <= 1
             else fold_tree(system, point, depth, list, limits, workers, test))
    if dedupe:
        nodes = ((word, node) for word, node, earlier in _earlier_words(system, point, nodes)
                 if earlier is None)
    return fold(nodes)


@dataclass(frozen=True)
class HypothesisReport:
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
