"""Deferred log atoms: an expression that holds some atoms by their
enclosures decides as the same LogExpr built with the exact integers, on
interval(p) at p in PRECS, on float_bounds, on sign and on term order, along
every path an atom can take: enclosed throughout, or built because its
enclosure meets another atom, because a rounding is undecided, because the
exact sign stage needs it, or because it straddles the bit cap."""

import contextlib
import io
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from mpmath.libmp import from_man_exp, mpf_cmp, round_floor

from orbitint import cli, orbits, polys
from orbitint.heights import canonical_height_word, hmin_estimate
from orbitint.integrality import gamma_set
from orbitint.logvals import Deferred, LogExpr, _key, deferred_atom
from orbitint.orbits import Orbit, WorkLimits
from orbitint.places import INFINITE_PLACE, Place, PlaceSet
from orbitint.proj1 import INFINITY, ProjPoint, log_chordal, normalize
from orbitint.ratmap import MapSystem, eval_point, parse_map
from orbitint.verify import random_point, random_system, random_word
from orbitint.words import Word

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
PRECS = (53, 128, 256, 512)
PAIR = MapSystem([parse_map("z^2"), parse_map("z^3")])   # z^2 z^3 = z^3 z^2
ARCH = INFINITE_PLACE


def value(atom):
    return atom.value() if isinstance(atom, Deferred) else atom


def deferred_atoms(expr):
    return [atom for atom, _ in expr.terms if isinstance(atom, Deferred)]


def built(atoms):
    return [atom._value is not None for atom in atoms]


def assert_agrees(expr, oracle=None, prec=128):
    """expr decides as oracle, by default expr over its atoms' integers.
    Everything is read from expr before any atom is built for the oracle."""
    boxes = {p: expr.interval(p)._mpi_ for p in PRECS}
    floats = expr.float_bounds(prec)
    sign = expr.sign(prec)
    order = list(expr.terms)
    if oracle is None:
        oracle = LogExpr([(value(atom), c) for atom, c in order], expr.const)
    assert not deferred_atoms(oracle)
    assert [(value(atom), c) for atom, c in order] == list(oracle.terms)
    assert expr.const == oracle.const
    assert boxes == {p: oracle.interval(p)._mpi_ for p in PRECS}
    assert floats == oracle.float_bounds(prec)
    assert sign == oracle.sign(prec)


@pytest.fixture
def deferring(monkeypatch):
    """Every step and sum of squares may be deferred, whatever its size."""
    monkeypatch.setattr(polys, "ENCLOSE_BITS", 0)


def exactly(fn, *args, **kwargs):
    """fn with nothing deferred: the oracle's run."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(polys, "ENCLOSE_BITS", 1 << 62)
        return fn(*args, **kwargs)


def assert_same_estimate(est, ref):
    assert (est.depth, est.degree_product, est.target_met) == (
        ref.depth, ref.degree_product, ref.target_met)
    assert_agrees(est.lo_expr, ref.lo_expr)
    assert_agrees(est.hi_expr, ref.hi_expr)
    assert_agrees(est.hi_expr - est.lo_expr, ref.hi_expr - ref.lo_expr)
    assert (est.lo_expr, est.hi_expr) == (ref.lo_expr, ref.hi_expr)
    assert hash(est.hi_expr) == hash(ref.hi_expr)


def test_random_words_with_the_threshold_lifted(deferring):
    """Word estimates and gamma scans on random systems, with a bit cap low
    enough that some walks stop at a point over it."""
    deferred = 0
    places = PlaceSet([ARCH, Place(2), Place(3)])
    for seed in range(12):
        rng = random.Random(f"deferred-words:{seed}")
        system = random_system(rng, k_max=2, max_degree=3)
        word = random_word(rng, system.k, rng.randint(1, 3), rng.random() < 0.7)
        point = random_point(rng, 50)
        limits = WorkLimits(bit_cap=(300, 10_000)[seed % 2])
        depth = 7 if word.is_periodic else len(word.letters)
        est = canonical_height_word(Orbit(system, word, point), depth, limits=limits)
        deferred += bool(deferred_atoms(est.hi_expr))
        assert_same_estimate(est, exactly(canonical_height_word,
                                          Orbit(system, word, point), depth, limits=limits))
        base = random_point(rng, 20)
        if word.is_periodic:
            args = (system, word, places, base, point, Fraction(1, 3), 3)
            record = gamma_set(*args, limits=limits)
            reference = exactly(gamma_set, *args, limits=limits)
            assert record.members == reference.members
            assert_same_estimate(record.height, reference.height)
    assert deferred >= 8


def test_chordal_sums_of_squares(deferring):
    rng = random.Random(1403)
    for _ in range(30):
        p, q = random_point(rng, 1 << rng.randint(1, 3000)), random_point(rng, 1 << 40)
        dist = log_chordal(p, q, ARCH)
        assert deferred_atoms(dist)
        assert_agrees(dist)


def test_atoms_keep_their_order_among_exact_atoms():
    """Deferred and exact atoms of interleaved sizes, some a few units
    apart, sort as their values do."""
    rng = random.Random(7)
    values = sorted({rng.getrandbits(rng.randint(3000, 3010)) | 1 for _ in range(12)})
    values += [v + 2 for v in values[::3]]
    terms = []
    for i, n in enumerate(values):
        atom = n if i % 2 else Deferred(n, n, 0, lambda n=n: n)
        terms.append((atom, Fraction(rng.randint(-5, 5) or 1, rng.randint(1, 4))))
    expr = LogExpr(terms)
    assert len(deferred_atoms(expr)) >= 6
    assert_agrees(expr)


def test_keys_compare_as_the_rounded_values():
    """logvals._key orders man * 2^exp rounded down to prec bits as mpmath
    orders the rounded mpf values, and key + 1 is above every value that
    rounds down to it, a mantissa of all ones included."""
    rng = random.Random(17)
    values = [(1, 0), (3, 0), (7, -1), ((1 << 200) - 1, 5), (1 << 200, 4)]
    values += [(rng.getrandbits(rng.randint(1, 300)) | 1, rng.randint(-40, 40))
               for _ in range(60)]
    for prec in (2, 53, 64, 128, 301):
        keyed = [(_key(man, exp, prec), from_man_exp(man, exp, prec, round_floor),
                  from_man_exp(man, exp)) for man, exp in values]
        for (k1, down1, exact1), (k2, down2, exact2) in zip(keyed, keyed[1:] + keyed[:1]):
            assert (k1 > k2) - (k1 < k2) == mpf_cmp(down1, down2)
            if k1 + 1 <= k2:
                assert mpf_cmp(exact1, down2) < 0


def test_enclosures_at_the_edges_of_their_bit_range():
    """An enclosure whose lower end is a power of 2 stays clear of an exact
    atom one bit shorter; an exact atom a unit above its upper end rounds
    down onto it, so it is built; the atom inside an enclosure merges with
    it; exact atoms far outside the enclosures' bit lengths keep their
    places."""
    k = 3000
    for above, outcome in ((False, [False, True]), (True, [True, True])):
        low = Deferred(1, 3, k, lambda: (1 << k) + 1)
        inside = Deferred(5, 6, k + 7, lambda: 11 << k + 6)
        terms = [(low, 1), ((1 << k) - 1, -1), (3, 1), (1 << 4000 | 1, 2),
                 (inside, Fraction(1, 2)), (11 << k + 6, 3)]
        expr = LogExpr(terms + [((3 << k) + 1, 1)] * above)
        assert built([low, inside]) == outcome
        assert_agrees(expr)


def test_deferred_atom_needs_n_at_least_2_and_drops_idle_bits():
    assert deferred_atom((1, 5, 0), lambda: 3) is None
    assert deferred_atom((0, 9, 3), lambda: 3) is None
    atom = deferred_atom((2, 3, 0), lambda: 3)
    assert (atom.lo, atom.hi, atom.exp) == (2, 3, 0)
    lo, hi = (1 << 1000) + 12345, (1 << 1000) + (1 << 300)
    atom = deferred_atom((lo, hi, 7), lambda: lo << 7)
    assert atom.lo << atom.exp <= lo << 7 and atom.hi << atom.exp >= hi << 7
    assert (atom.hi - atom.lo).bit_length() <= 9 and atom.exp > 7


def test_an_atom_that_meets_another_is_built():
    """Words 12 and 21 of z^2, z^3 reach one point: the two estimates' atoms
    meet, so their difference builds and merges them."""
    word12, word21 = Word.periodic((1, 2)), Word.periodic((2, 1))
    point = normalize(Fraction(5, 3))
    est12, est21 = (canonical_height_word(Orbit(PAIR, word, point), 10)
                    for word in (word12, word21))
    atoms = deferred_atoms(est12.lo_expr) + deferred_atoms(est21.lo_expr)
    assert len(atoms) == 2 and built(atoms) == [False, False]
    diff = est12.lo_expr - est21.lo_expr
    assert built(atoms) == [True, True] and not deferred_atoms(diff)
    ref12, ref21 = (exactly(canonical_height_word, Orbit(PAIR, word, point), 10)
                    for word in (word12, word21))
    assert_agrees(diff, ref12.lo_expr - ref21.lo_expr)


def test_hmin_over_words_that_meet():
    point = normalize(Fraction(5, 3))
    result = hmin_estimate(PAIR, point, 2, 10)
    reference = exactly(hmin_estimate, PAIR, point, 2, 10)
    assert (result.witness_word, result.words_scanned) == (
        reference.witness_word, reference.words_scanned)
    assert_same_estimate(result.estimate, reference.estimate)


def test_an_undecided_rounding_builds_the_atom():
    """An enclosure about 100 bits wide decides the 53-bit box, but not the
    128-bit one."""
    rng = random.Random(11)
    for _ in range(10):
        n = rng.getrandbits(4000) | (1 << 3999)
        atom = Deferred(n >> 3900, (n >> 3900) + 1, 3900, lambda n=n: n)
        expr = LogExpr([(atom, Fraction(1, 3)), (3, -1)])
        expr.interval(53)
        assert built([atom]) == [False]
        assert_agrees(expr)
        assert built([atom]) == [True]


def test_a_box_past_the_enclosure_builds_the_atom():
    """BOX_BITS top bits decide a 512-bit box, but not a 4,096-bit one."""
    p = ProjPoint(random.Random(5).getrandbits(5000) | (1 << 4999), 3)
    dist = log_chordal(p, INFINITY, ARCH)
    atoms = deferred_atoms(dist)
    assert atoms and dist.interval(512) is not None and built(atoms) == [False]
    dist.interval(4096)
    assert built(atoms) == [True]
    assert_agrees(dist)


def pythagorean(bits):
    rng = random.Random(bits)
    m = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
    n = rng.getrandbits(bits - 1) & ~1
    while Fraction(m, n).denominator != n:
        n += 2
    return m * m - n * n, 2 * m * n, m * m + n * n


def test_an_exact_tie_builds_the_atom():
    """x^2 + y^2 = z^2, so -log|det| + 1/2 log(x^2 + y^2) + log y - log z is
    exactly 0: only the exact stage decides it, and it builds the atom."""
    x, y, z = pythagorean(700)
    p = normalize(x, y)
    assert max(p.x.bit_length(), p.y.bit_length()) >= 1024
    tie = log_chordal(p, INFINITY, ARCH) + LogExpr.log_int(y) - LogExpr.log_int(z)
    atoms = deferred_atoms(tie)
    assert len(atoms) == 1 and built(atoms) == [False]
    tie.interval(128)
    assert built(atoms) == [False]
    assert tie.sign() == 0 and built(atoms) == [True]
    assert_agrees(tie)


def test_a_step_that_straddles_the_cap_is_built():
    """(2^3000 - 1)^2 has 6,000 bits, and its enclosure reaches 2^6000: under
    a cap of 6,000 bits the step is built and the cap test reads the built
    point; under 5,999 the enclosure alone puts it over the cap."""
    system = MapSystem([parse_map("z^2")])
    word, point = Word.periodic((1,)), ProjPoint((1 << 3000) - 1, 1)
    for cap, met in ((6000, True), (5999, False)):
        orbit = Orbit(system, word, point)
        limits = WorkLimits(bit_cap=cap)
        est = canonical_height_word(orbit, 1, limits=limits)
        assert len(orbit.points) == 1 + met and est.target_met is met
        assert_same_estimate(est, exactly(canonical_height_word,
                                          Orbit(system, word, point), 1, limits=limits))


def test_a_deferred_step_builds_its_own_point(deferring):
    """The atom of a deferred last step is built from its orbit's point of
    that step, also after another pass has walked the orbit past it.  Every
    step past the start advances by enclosures, so the walk builds none."""
    orbit = Orbit(MapSystem([parse_map("z^2 + 1")]), Word.periodic((1,)), normalize(3, 2))
    est = canonical_height_word(orbit, 3)
    [atom] = deferred_atoms(est.hi_expr)
    assert len(orbit.points) == 1 and built([atom]) == [False]
    orbit[6]
    assert atom.value() == max(abs(orbit[3].x), abs(orbit[3].y))


def test_a_large_exact_stage_reads_the_enclosure():
    """The exact stage's cap test needs only the atom's bit length."""
    atom = Deferred(2, 3, 9_000_000, lambda: pytest.fail("built"))
    assert atom.bit_length() == 9_000_002
    assert (LogExpr([(atom, 1)]) - LogExpr([(atom, 1)])).sign() == 0
    assert LogExpr([(atom, 1), (3, -1)]).exact_sign() is None


def run_gamma(tmp_path, monkeypatch, point, depth):
    """(exit code, last stderr line, report or None, bits of each point
    built) of gamma --depth depth on bounds_mixed from point."""
    sizes = []
    monkeypatch.setattr(orbits, "eval_point", lambda *args: sizes.append(
        orbits.WorkLimits.bits_of(result := eval_point(*args))) or result)
    raw = json.loads((CONFIGS / "bounds_mixed.json").read_text(encoding="utf-8"))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**raw, "point": point}), encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(["gamma", "--config", str(config), "--depth", str(depth),
                         "--out", str(tmp_path / "out")])
    reports = list((tmp_path / "out").glob("gamma_*.json"))
    report = json.loads(reports[0].read_text()) if reports else None
    return code, (err.getvalue().splitlines() or [""])[-1], report, sizes


@pytest.mark.parametrize("point, lo, hi", [
    ("3", 0.9178995310898016, 0.9179005698071369),
    ("1/2", 0.9165439318922844, 0.9165449706096197),
])
def test_gamma_at_depth_15_builds_nothing_past_the_cap(tmp_path, monkeypatch, point, lo, hi):
    """gamma --depth 15 on bounds_mixed: the cycle scan builds steps 1-12
    and stops at step 13, which its enclosure alone puts over the 2^16-bit
    budget (Orbit.fits).  Steps 13-16 advance by enclosures: the height
    walk stops at step 16, over the 10^6-bit cap, read from its enclosure
    alone, and the membership verdicts of steps 13-15 are read from theirs."""
    code, _, report, sizes = run_gamma(tmp_path, monkeypatch, point, 15)
    assert code == 0
    assert report["height"] == {"lo": lo, "hi": hi, "depth": 16, "targetMet": False,
                                "certified": True}
    assert "".join(m["verdict"][0].upper() for m in report["members"]) == "IOOOOOOOOOOOOOOO"
    assert len(sizes) == 12 and max(sizes) <= 1 << 17


@pytest.mark.parametrize("point, bits", [("3", 2224232), ("1/2", 2220947)])
def test_gamma_at_depth_16_names_its_step_unbuilt(tmp_path, monkeypatch, point, bits):
    """gamma --depth 16 on bounds_mixed: membership step 16 is over the
    10^6-bit cap, and its enclosure gives its exact bits, so the run exits
    3 naming them without building any point over 2^17 bits."""
    code, last, report, sizes = run_gamma(tmp_path, monkeypatch, point, 16)
    assert (code, report) == (3, None)
    assert json.loads(last) == {
        "error": f"orbit coordinate of {bits} bits exceeded the cap 1000000",
        "kind": "work-limit"}
    assert len(sizes) == 12 and max(sizes) <= 1 << 17
