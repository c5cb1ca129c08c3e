import math
import random
import sys
import tracemalloc
from fractions import Fraction

import pytest

from orbitint.errors import WorkLimitExceeded
from orbitint.heights import canonical_height_word
from orbitint.integrality import (GammaVerdict, averaged_ratio, gamma_set,
                                  quasi_integral_test, ratio_series,
                                  s_integral_census)
from orbitint.logvals import LogExpr
from orbitint.places import INFINITE_PLACE, Place, PlaceSet, is_s_integer
from orbitint.orbits import Orbit, WorkLimits, enumerate_tree
from orbitint.proj1 import INFINITY, ZERO, ProjPoint, normalize
from orbitint.ratmap import MapSystem, eval_point, make_map, parse_map
from orbitint.verify import random_factored_int
from orbitint.words import Word

S_INF = PlaceSet.parse(["inf"])


def test_quasi_integral_examples():
    assert quasi_integral_test(5, S_INF, Fraction(1))
    assert not quasi_integral_test(Fraction(8, 3), S_INF, Fraction(1))
    # boundary case: equality counts as in
    assert quasi_integral_test(Fraction(8, 3), PlaceSet.parse(["inf", "p3"]),
                               Fraction(1))
    with pytest.raises(ValueError):
        quasi_integral_test(5, S_INF, Fraction(3, 2))


def test_quasi_integral_s_integers_always_pass():
    rng = random.Random(103)
    s = PlaceSet.parse(["inf", "p2", "p3"])
    for _ in range(200):
        num, _ = random_factored_int(rng, 3)
        x = Fraction(num, 2 ** rng.randrange(4) * 3 ** rng.randrange(3))
        assert is_s_integer(x, s)
        assert quasi_integral_test(x, s, Fraction(1))


def test_gamma_squaring_all_in(z2):
    system = MapSystem([z2])
    record = gamma_set(system, Word.periodic([1]), S_INF, INFINITY,
                       normalize(2, 1), Fraction(1, 2), 5)
    assert [v for _, v in record.members] == [GammaVerdict.IN] * 6
    assert not record.preperiodic
    assert GammaVerdict.AMBIGUOUS not in record.verdicts().values()


def test_gamma_squaring_origin_all_out(z2):
    system = MapSystem([z2])
    record = gamma_set(system, Word.periodic([1]), S_INF, ZERO,
                       normalize(2, 1), Fraction(1, 2), 5)
    assert all(v is GammaVerdict.OUT for n, v in record.members if n >= 1)


def test_gamma_hit_of_base_is_in(z2_minus_1):
    # Orbit passes through A itself: infinite distance, always a member.
    system = MapSystem([z2_minus_1])
    record = gamma_set(system, Word.periodic([1]), S_INF, normalize(-1, 1),
                       ZERO, Fraction(1, 2), 3)
    assert record.preperiodic  # 0 -> -1 -> 0 cycle flagged
    verdicts = record.verdicts()
    assert verdicts[1] is GammaVerdict.IN  # point equals A at n = 1


def test_gamma_on_a_zero_height_cycle(z2_minus_1):
    # 0 -> -1 -> 0 has canonical height 0: the certified lower end is
    # -log(2)/4096, unfloored, and the verdicts are those of a floor at 0.
    system = MapSystem([z2_minus_1])
    record = gamma_set(system, Word.periodic([1]), PlaceSet.parse(["inf", "p2"]),
                       INFINITY, ZERO, Fraction(1, 2), 8)
    assert record.height.lo_expr == LogExpr.log_int(2, Fraction(-1, 4096))
    assert record.height.lo() == 0.0
    ambiguous, member = GammaVerdict.AMBIGUOUS, GammaVerdict.IN
    assert [v for _, v in record.members] == [ambiguous, member] * 4 + [ambiguous]


def test_gamma_walks_its_orbit_once(pair_system, monkeypatch):
    import orbitint.orbits as orbits

    calls = []

    def counting_eval_point(phi, p):
        calls.append(p)
        return eval_point(phi, p)

    monkeypatch.setattr(orbits, "eval_point", counting_eval_point)
    depth = 8
    record = gamma_set(pair_system, Word.periodic([1, 2]), S_INF, INFINITY,
                       normalize(3, 1), Fraction(1, 2), depth)
    assert not record.preperiodic and record.height.lo_expr.sign() == 1
    assert len(calls) <= max(depth + 4, 16)
    assert len(set(calls)) == len(calls)


def test_gamma_bit_cap_in_scan_and_lookahead(z2):
    system, word, start = MapSystem([z2]), Word.periodic([1]), normalize(3, 1)
    limits = WorkLimits(bit_cap=100)  # 3^(2^5) has 51 bits, 3^(2^6) has 102
    with pytest.raises(WorkLimitExceeded):
        gamma_set(system, word, S_INF, INFINITY, start, Fraction(1, 2), 7,
                  limits=limits)
    record = gamma_set(system, word, S_INF, INFINITY, start, Fraction(1, 2), 5,
                       limits=limits)
    direct = canonical_height_word(Orbit(system, word, start), depth=9, limits=limits)
    assert record.height.target_met is False
    assert (record.height.lo_expr, record.height.hi_expr, record.height.depth) == \
        (direct.lo_expr, direct.hi_expr, direct.depth)
    assert len(record.members) == 6


def test_gamma_epsilon_monotonicity(pair_system):
    s = PlaceSet.parse(["inf", "p2"])
    p = normalize(Fraction(3, 2))
    word = Word.periodic([1, 2])
    members = {}
    for eps in (Fraction(1, 8), Fraction(1, 2), Fraction(1)):
        record = gamma_set(pair_system, word, s, INFINITY, p, eps, 5)
        members[eps] = set(record.in_set())
    assert members[Fraction(1)] <= members[Fraction(1, 2)] <= members[Fraction(1, 8)]


def test_census_examples(z2, recip_square):
    hits = s_integral_census(MapSystem([recip_square]), normalize(2, 1), S_INF, 4)
    assert hits == (((1, 1), ProjPoint(16, 1)), ((1, 1, 1, 1), ProjPoint(65536, 1)))

    hits = s_integral_census(MapSystem([z2]), normalize(2, 1), S_INF, 4)
    assert [point for _, point in hits] == [ProjPoint(v, 1) for v in (4, 16, 256, 65536)]

    hits = s_integral_census(MapSystem([z2]), INFINITY, S_INF, 3)
    assert hits == ()  # no affine coordinate anywhere


def test_census_excludes_start_and_dedupes(pair_system):
    hits = s_integral_census(pair_system, normalize(2, 1), S_INF, 2)
    values = [Fraction(point.x, point.y) for _, point in hits]
    assert Fraction(2) not in values
    assert len(values) == len(set(values))
    assert set(values) == {4, 8, 16, 64, 512}


def test_census_never_counts_a_recurring_root(z2_minus_1):
    """The tree is deduplicated before depth 0 is dropped, so the starting
    point is no hit even where longer words return to it: z^2 - 1 and z^3
    take 0 back to 0 by (2,) and (1, 1), and only [-1 : 1] counts."""
    system = MapSystem([z2_minus_1, parse_map("z^3")])
    reached = dict(enumerate_tree(system, ZERO, 3))
    assert reached[(2,)] == reached[(1, 1)] == ZERO
    assert s_integral_census(system, ZERO, S_INF, 3) == (((1,), ProjPoint(-1, 1)),)


def test_census_reads_denominators_without_fractions():
    system = MapSystem([parse_map("(z^2-1)/(z^2+1)"), parse_map("z^3-2")])
    s = PlaceSet.parse(["inf", "p2"])
    start = ProjPoint(3, 1)
    expected = [(word, point) for word, point in enumerate_tree(system, start, 5, dedupe=True)
                if word and not point.is_infinite
                and is_s_integer(Fraction(point.x, point.y), s)]
    built = []

    def count_fractions(frame, event, arg):
        if event == "call" and frame.f_code is Fraction.__new__.__code__:
            built.append(frame.f_back.f_code.co_name)

    previous = sys.getprofile()
    sys.setprofile(count_fractions)
    try:
        hits = s_integral_census(system, start, s, 5)
    finally:
        sys.setprofile(previous)
    assert built == []
    assert expected and list(hits) == expected


def test_census_requires_infinite_place(z2):
    with pytest.raises(ValueError):
        s_integral_census(MapSystem([z2]), normalize(2, 1),
                          PlaceSet([Place(2)]), 2)


def test_census_gamma_consistency(recip_square):
    # S-integral hits with height above twice the certified gap are proximity
    # members at epsilon 1/2.
    from orbitint.heights import system_bounds, system_c

    system = MapSystem([recip_square])
    hits = s_integral_census(system, normalize(2, 1), S_INF, 4)
    record = gamma_set(system, Word.periodic([1]), S_INF, INFINITY,
                       normalize(2, 1), Fraction(1, 2), 4)
    verdicts = record.verdicts()
    gap = (system_c(system_bounds(system)) * 4).to_float()
    for word, point in hits:
        if point.height().to_float() >= gap:
            assert verdicts[len(word)] is GammaVerdict.IN


def test_ratio_series_example():
    system = MapSystem([parse_map("(z^2-1)/(z^2+1)")])
    terms = ratio_series(system, Word.periodic([1]), normalize(2, 1), 3)
    assert terms[0].verdict == "small-denominator"
    assert terms[1].ratio == pytest.approx(math.log(3) / math.log(5), rel=1e-12)
    assert terms[2].ratio == pytest.approx(math.log(8) / math.log(17), rel=1e-12)
    assert terms[3].ratio == pytest.approx(math.log(225) / math.log(353), rel=1e-12)


def test_ratio_series_memory_is_linear_in_depth(z2_minus_1):
    # z^2 - 1 from 0 cycles through 0 and -1, so the points stay small and
    # the peak measures what the walk keeps per step.
    tracemalloc.start()
    try:
        terms = ratio_series(MapSystem([z2_minus_1]), Word.periodic([1]), ZERO, 3000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(terms) == 3001 and peak < 8 * 2 ** 20


def test_ratio_series_markers(z2):
    # Integer orbits never define a ratio (denominator is 1 throughout).
    terms = ratio_series(MapSystem([z2]), Word.periodic([1]), normalize(2, 1), 4)
    assert all(t.verdict == "small-denominator" for t in terms)
    assert all(t.ratio is None for t in terms)


def test_ratio_series_truncates_at_infinity():
    # z -> z^2/(z-1)^2 ... choose a map sending some orbit point to infinity.
    m = make_map([0, 0, 1], [1, -2, 1])  # z^2/(z-1)^2, pole at 1
    terms = ratio_series(MapSystem([m]), Word.periodic([1]), normalize(1, 1), 4)
    assert terms[-1].verdict == "infinity"
    assert len(terms) < 5


def test_ratio_series_symmetric_swap(recip_square):
    # 1/z^2 swaps numerator and denominator sizes; at 2/3 every power keeps
    # |a| and b as powers of 2 and 3, so the ratio alternates log2/log3 wise.
    terms = ratio_series(MapSystem([recip_square]), Word.periodic([1]),
                         normalize(Fraction(2, 3)), 4)
    r = math.log(2) / math.log(3)
    assert terms[0].ratio == pytest.approx(r, rel=1e-12)
    assert terms[1].ratio == pytest.approx(1 / r, rel=1e-12)
    assert terms[2].ratio == pytest.approx(r, rel=1e-12)


def test_averaged_ratio_levels():
    f1 = parse_map("(z^2-1)/(z^2+1)")
    f2 = parse_map("(z^3-2)/(z^3+2)")
    system = MapSystem([f1, f2])
    avg = averaged_ratio(system, normalize(2, 1), 2)
    assert avg.total_words == 4 and avg.excluded == 0
    # oracle: mean of the four individual word ratios
    expected = []
    for letters in ((1, 1), (1, 2), (2, 1), (2, 2)):
        terms = ratio_series(system, Word.finite(letters), normalize(2, 1), 2)
        expected.append(terms[2].ratio)
    assert avg.mean == pytest.approx(sum(expected) / 4, rel=1e-12)

    single = averaged_ratio(MapSystem([f1]), normalize(2, 1), 1)
    terms = ratio_series(MapSystem([f1]), Word.periodic([1]), normalize(2, 1), 1)
    assert single.mean == pytest.approx(terms[1].ratio, rel=1e-12)


def test_averaged_ratio_counts_exclusions(z2):
    avg = averaged_ratio(MapSystem([z2]), normalize(2, 1), 2)
    assert avg.mean is None and avg.excluded == avg.total_words == 1


def test_low_precision_never_flips_verdicts(pair_system):
    # Dropping the precision may blur verdicts to ambiguous but can never
    # turn a definite in into out or vice versa.
    s = PlaceSet.parse(["inf", "p2"])
    p = normalize(Fraction(3, 2))
    word = Word.periodic([1, 2])
    fine = gamma_set(pair_system, word, s, INFINITY, p, Fraction(1, 2), 5,
                     prec=128).verdicts()
    coarse = gamma_set(pair_system, word, s, INFINITY, p, Fraction(1, 2), 5,
                       prec=16).verdicts()
    for n, verdict in coarse.items():
        if verdict is not GammaVerdict.AMBIGUOUS:
            assert verdict is fine[n]


def test_local_decay_surrogate():
    # lambda_v(orbit, A)/D_n shrinks below any fixed threshold within depth,
    # for systems whose orbit of A = infinity meets the ramification
    # hypothesis (infinity fixed but not totally ramified for any member).
    from orbitint.orbits import hypothesis_check, iterate_word
    from orbitint.proj1 import chordal_sum

    configs = [
        (MapSystem([parse_map("(z^2+1)/z")]), Word.periodic([1])),
        (MapSystem([parse_map("(z^2+1)/z"), parse_map("(z^3+1)/z")]),
         Word.periodic([1, 2])),
    ]
    for system, word in configs:
        report = hypothesis_check(system, INFINITY, 3)
        assert report.totally_ramified_free
        p = normalize(2, 1)
        depth = 8 if system.k == 1 else 6
        orbit = Orbit(system, word, p)
        points = list(iterate_word(orbit, depth))
        for v in (INFINITE_PLACE, Place(2), Place(5)):
            values = []
            for n, point in enumerate(points):
                dist = chordal_sum(point, INFINITY, [v])
                values.append(dist.to_float() / orbit.degree(n))
            assert values[-1] <= 0.05
            assert values[-1] <= max(values[0], 0.05)
