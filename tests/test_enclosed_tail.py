"""A word orbit past polys.ENCLOSE_BITS advances by chained enclosures and
builds a step only where a reader needs its exact value.  The height walk
and gamma's membership scan then give what they give with every step built:
the same members, estimate floats, depth, targetMet, and the same errors
with the same message and bits.  The exact side lifts ENCLOSE_BITS above
every cap, so nothing is enclosed there."""

import random
from fractions import Fraction

import pytest

from orbitint import orbits, polys
from orbitint.errors import WorkLimitExceeded
from orbitint.heights import canonical_height_word, system_bounds
from orbitint.integrality import gamma_set
from orbitint.orbits import Orbit, WorkLimits
from orbitint.places import INFINITE_PLACE, Place, PlaceSet
from orbitint.logvals import POS_INF, _Infinite
from orbitint.proj1 import chordal_sum, normalize
from orbitint.ratmap import MapSystem, eval_point, parse_map
from orbitint.verify import random_point, random_system, random_word
from orbitint.words import Word

PLACES = (INFINITE_PLACE, Place(2), Place(3), Place(5))


def outcome(fn, *args, **kwargs):
    """What a run gives, as plain comparable data: its result, or its
    error's type, message and bits."""
    try:
        return "ok", fn(*args, **kwargs)
    except WorkLimitExceeded as exc:
        return type(exc).__name__, str(exc), getattr(exc, "bits", None)


def estimate(est):
    return est.lo(), est.hi(), est.depth, est.degree_product, est.target_met


def height(system, word, point, depth, bounds, limits):
    orbit = Orbit(system, word, point)
    est = canonical_height_word(orbit, depth, bounds, limits)
    return estimate(est), len(orbit.points) <= est.depth


def membership(*args, **kwargs):
    record = gamma_set(*args, **kwargs)
    return record.members, estimate(record.height), record.preperiodic


def test_enclosed_tail_decides_as_every_step_built(monkeypatch):
    unbuilt = errors = members = hits = 0
    for seed in range(150):
        rng = random.Random(f"enclosed-tail:{seed}")
        system = random_system(rng, k_max=2, max_degree=3)
        periodic = rng.random() < 0.8
        word = random_word(rng, system.k, rng.randint(1, 3), periodic)
        point, base = random_point(rng, 1 << rng.randint(2, 60)), random_point(rng, 50)
        if rng.random() < 0.3:   # a base on the orbit: an infinite chordal log
            base = Orbit(system, word, point)[rng.randint(0, min(2, len(word.letters)))]
        places = PlaceSet(rng.sample(PLACES, rng.randint(1, 3)))
        limits = WorkLimits(bit_cap=rng.choice((400, 3000, 20_000, 120_000)))
        depth = rng.randint(2, 9) if periodic else len(word.letters)
        bounds = system_bounds(system)
        gamma = (system, word, places, base, point, Fraction(1, rng.randint(1, 4)),
                 min(depth, 7 if periodic else depth), bounds)
        runs = {}
        for threshold in (rng.choice((0, 64, 256, 1024)), 1 << 62):
            monkeypatch.setattr(polys, "ENCLOSE_BITS", threshold)
            runs[threshold] = (outcome(height, system, word, point, depth, bounds, limits),
                               outcome(membership, *gamma, limits=limits))
        (walk, scan), (exact_walk, exact_scan) = runs.values()
        assert walk[0] == exact_walk[0] and scan == exact_scan, seed
        if walk[0] == "ok":
            assert walk[1][0] == exact_walk[1][0], seed
            unbuilt += walk[1][1]
        errors += scan[0] != "ok"
        members += scan[0] == "ok"
        hits += scan[0] == "ok" and any(v.value == "in" for _, v in scan[1][0])
    # The runs must cover an unbuilt tail, scans that end in the bit-cap
    # error, and scans that give their members, some of them in.
    counts = (unbuilt, errors, members, hits)
    assert all(n >= floor for n, floor in zip(counts, (40, 20, 40, 10))), counts


def test_enclosed_chordal_sums_are_the_built_ones(monkeypatch):
    """Each chordal sum that gamma's scan reads from a step's enclosure has
    the interval, at every precision, of the sum at the built point, and is
    infinite exactly where that one is."""
    enclosed = infinite = 0
    for seed in range(80):
        rng = random.Random(f"enclosed-chordal:{seed}")
        system = random_system(rng, k_max=2, max_degree=3)
        word = random_word(rng, system.k, rng.randint(1, 3), True)
        point = random_point(rng, 1 << rng.randint(2, 40))
        places = PlaceSet(rng.sample(PLACES, rng.randint(1, 4)))
        depth = 5
        exact = Orbit(system, word, point)
        base = exact[rng.randint(0, 3)] if rng.random() < 0.3 else random_point(rng, 50)
        monkeypatch.setattr(polys, "ENCLOSE_BITS", rng.choice((0, 64, 256)))
        orbit = Orbit(system, word, point)
        sums = [(n, chordal_sum(step, base, places))
                for n, step in enumerate(orbits.iterate_word(orbit, depth))
                if isinstance(step, polys.Enclosure)]
        monkeypatch.setattr(polys, "ENCLOSE_BITS", 1 << 62)
        for n, lhs in sums:
            enclosed += 1
            ref = chordal_sum(exact[n], base, places)
            if isinstance(ref, _Infinite):
                infinite += 1
                assert lhs is POS_INF, (seed, n)
            else:
                assert {p: lhs.interval(p)._mpi_ for p in (53, 128, 512)} == \
                    {p: ref.interval(p)._mpi_ for p in (53, 128, 512)}, (seed, n)
    assert enclosed >= 60 and infinite >= 3, (enclosed, infinite)


def test_a_cap_error_names_the_step_its_box_sizes(monkeypatch):
    """iterate_word rejects a step over the cap from its enclosure when that
    gives the exact bits, unbuilt, with the message the built point gives:
    step 2 of z^2 from 2^1500 - 1 has 6,000 bits."""
    system = MapSystem([parse_map("z^2")])
    sizes = []
    monkeypatch.setattr(orbits, "eval_point", lambda *args: sizes.append(1) or eval_point(*args))
    orbit = Orbit(system, Word.periodic((1,)), normalize((1 << 1500) - 1))
    limits = WorkLimits(bit_cap=5000)
    with pytest.raises(WorkLimitExceeded) as caught:
        list(orbits.iterate_word(orbit, 3, limits))
    assert (str(caught.value), caught.value.bits) == (
        "orbit coordinate of 6000 bits exceeded the cap 5000", 6000)
    assert sizes == [] and len(orbit.points) == 1


def test_a_cycle_scan_stops_at_a_step_its_box_puts_over_the_budget(monkeypatch):
    """find_cycle gives up at the first step over orbits.CYCLE_BITS without
    building it: step 1 of z^2 from 2^40000 - 1 has 80,000 bits, and its
    enclosure shows that unbuilt."""
    system = MapSystem([parse_map("z^2")])
    sizes = []
    monkeypatch.setattr(orbits, "eval_point", lambda *args: sizes.append(1) or eval_point(*args))
    orbit = Orbit(system, Word.periodic((1,)), normalize((1 << 40000) - 1))
    assert orbit.bit_range(1)[0] > orbits.CYCLE_BITS
    assert orbits.find_cycle(orbit, 8) is None
    assert sizes == [] and len(orbit.points) == 1


def test_a_step_whose_box_leaves_its_bits_open_is_built():
    """(2^3000 - 1)^2 has 6,000 bits and its enclosure reaches 2^6000, so
    iterate_word builds it to test it: it fits a cap of 6,000 bits, and
    under 5,999 the error names its exact bits."""
    system = MapSystem([parse_map("z^2")])
    for cap, error in ((6000, None), (5999, ("orbit coordinate of 6000 bits exceeded "
                                              "the cap 5999", 6000))):
        orbit = Orbit(system, Word.periodic((1,)), normalize((1 << 3000) - 1))
        assert orbit.bit_range(1) == (6000, 6001)
        got = outcome(list, orbits.iterate_word(orbit, 1, WorkLimits(bit_cap=cap)))
        assert got[1:] == error if error else got[0] == "ok"
        assert len(orbit.points) == 2
