import math
import random
from fractions import Fraction

import pytest

from orbitint.bounds import (BoundParameters, RamificationConstants,
                             RamificationMode, choose_m, census_count_bounds,
                             gamma_count_bound, kappa_constants, log_plus_base,
                             prop_composition_height_bound)
from orbitint.cli import _kappa_json
from orbitint.heights import canonical_height_system, canonical_height_word, hmin_estimate
from orbitint.integrality import gamma_set, s_integral_census
from orbitint.logvals import LogExpr
from orbitint.orbits import Orbit
from orbitint.places import PlaceSet
from orbitint.proj1 import INFINITY, normalize
from orbitint.ratmap import (MapSystem, compose, make_map, map_height,
                             system_height)
from orbitint.verify import random_system
from orbitint.words import Word


def test_kappa_examples(pair_system):
    k = kappa_constants(pair_system, RamificationMode.NOT_TOTALLY_RAMIFIED)
    assert k.kappa1 == 1.0 and k.kappa2 == Fraction(2, 3)
    two = MapSystem([make_map([0, 0, 1], [1]), make_map([1, 0, 1], [0, 1])])
    assert kappa_constants(two, RamificationMode.NOT_TOTALLY_RAMIFIED).kappa2 \
        == Fraction(1, 2)
    k = kappa_constants(pair_system, RamificationMode.DISTINCT_ORBIT)
    assert k.kappa1_exponent == 6  # sum of (2d - 2) over degrees 2, 3
    assert k.kappa1 == pytest.approx(math.exp(6))
    assert k.kappa2 * pair_system.min_degree == 1


def test_choose_m_examples(pair_system):
    ntr = RamificationMode.NOT_TOTALLY_RAMIFIED
    half = RamificationConstants(ntr, 0, Fraction(1, 2))
    assert choose_m(Fraction(1, 2), half).m == 4
    assert choose_m(Fraction(1), half).m == 3
    nine = RamificationConstants(ntr, 0, Fraction(9, 10))
    assert choose_m(Fraction(1), nine).m == 16
    with pytest.raises(ValueError):
        choose_m(Fraction(1, 2), RamificationConstants(ntr, 0, Fraction(3, 2)))
    with pytest.raises(ValueError):
        choose_m(Fraction(2), half)
    # kappa1 = e^E > 1 (distinct-orbit constants) is not a threshold input.
    with pytest.raises(ValueError, match="kappa1"):
        choose_m(Fraction(1, 2), kappa_constants(pair_system, RamificationMode.DISTINCT_ORBIT))


def test_choose_m_minimality_and_small_case():
    rng = random.Random(107)
    ntr = RamificationMode.NOT_TOTALLY_RAMIFIED
    for _ in range(50):
        kappa2 = Fraction(rng.randrange(1, 20), 20)
        eps = Fraction(rng.randrange(1, 33), 32)
        kappa = RamificationConstants(ntr, 0, kappa2)
        chosen = choose_m(eps, kappa)
        assert kappa2 ** chosen.m <= eps / 5
        if chosen.m > 1:
            assert kappa2 ** (chosen.m - 1) > eps / 5
        assert chosen.m <= chosen.small_case_bound + 1e-9


def test_composition_bound_examples():
    h = LogExpr.log_int(7)
    assert prop_composition_height_bound(1, 2, h) == h
    b = prop_composition_height_bound(2, 2, h)
    assert b.to_float() == pytest.approx(3 * math.log(7) + 4 * math.log(8))
    b = prop_composition_height_bound(3, 2, h)
    assert b.to_float() == pytest.approx(7 * math.log(7) + 12 * math.log(8))
    with pytest.raises(ValueError):
        prop_composition_height_bound(0, 2, h)


def test_composition_bound_dominates_exact_heights():
    rng = random.Random(109)
    for _ in range(100):
        system = random_system(rng, 2, 3)
        length = rng.randrange(1, 5)
        letters = [rng.randrange(1, system.k + 1) for _ in range(length)]
        composite = system.map_for_letter(letters[0])
        for letter in letters[1:]:
            composite = compose(system.map_for_letter(letter), composite)
        bound = prop_composition_height_bound(length, system.max_degree,
                                              system_height(system))
        assert (bound - map_height(composite)).exact_sign() >= 0


def test_ramification_growth_bounds():
    # Exact products of stepwise indices against both growth bounds.
    from orbitint.orbits import iterate_word
    from orbitint.ratmap import is_totally_ramified, ramification_index
    from orbitint.verify import random_point, random_word

    rng = random.Random(113)
    clean_orbits = 0
    repetition_free = 0
    while clean_orbits < 60 or repetition_free < 40:
        system = random_system(rng, 2, 3)
        word = random_word(rng, system.k, 6, periodic=True)
        p = random_point(rng, 20)
        points = list(iterate_word(Orbit(system, word, p), 6))
        dmax = system.max_degree
        product = 1
        deg_product = 1
        hypothesis_ok = True
        for i in range(6):
            phi = system.map_for_letter(word.letter_at(i))
            if is_totally_ramified(phi, points[i]):
                hypothesis_ok = False
                break
            product *= ramification_index(phi, points[i])
            deg_product *= phi.degree
            assert Fraction(product) <= Fraction(dmax - 1, dmax) ** (i + 1) * deg_product
        if hypothesis_ok:
            clean_orbits += 1
        if len(set(points)) == len(points):
            repetition_free += 1
            # constant-form bound for repetition-free orbits
            total = 1
            for i in range(6):
                phi = system.map_for_letter(word.letter_at(i))
                total *= ramification_index(phi, points[i])
            assert math.log(total) <= sum(2 * d - 2 for d in system.degrees) + 1e-9


def test_log_plus_base():
    assert log_plus_base(0.5, 2) == 0.0
    assert log_plus_base(1.0, 2) == 0.0
    assert log_plus_base(8.0, 2) == pytest.approx(3.0)


def test_gamma_count_bound_structure(pair_system):
    params = BoundParameters()
    hi_a, h_f = 0.0, 0.0
    base = gamma_count_bound(pair_system, 1, Fraction(1, 2), hi_a, h_f, 2.0, params)
    # height lower bound exceeding the numerator kills the log term
    assert base.max_n == base.m
    assert base.tail_count == 4.0 * params.roth_r1
    two_places = gamma_count_bound(pair_system, 2, Fraction(1, 2), hi_a, h_f, 2.0, params)
    assert two_places.tail_count == 16.0 * params.roth_r1
    with pytest.raises(ValueError):
        gamma_count_bound(pair_system, 1, Fraction(1, 2), hi_a, h_f, 0.0, params)


def test_gamma_count_bound_monotonicity(pair_system):
    params = BoundParameters()
    eps = Fraction(1, 2)
    heights = [0.1, 0.5, 1.0, 2.0, 5.0]
    totals = [gamma_count_bound(pair_system, 1, eps, 1.0, 1.0, h, params).total
              for h in heights]
    assert totals == sorted(totals, reverse=True)  # nonincreasing in hhat(P)
    for arg_index in (0, 1):  # nondecreasing in hhat(A) and h(F)
        values = []
        for t in (0.0, 0.5, 1.0, 4.0):
            args = [1.0, 1.0]
            args[arg_index] = t
            values.append(gamma_count_bound(pair_system, 1, eps, args[0],
                                            args[1], 0.5, params).total)
        assert values == sorted(values)
    sizes = [gamma_count_bound(pair_system, s, eps, 1.0, 1.0, 0.5, params).total
             for s in (1, 2, 3)]
    assert sizes == sorted(sizes)


def test_census_count_bounds_structure(pair_system):
    params = BoundParameters()
    with pytest.raises(ValueError):
        census_count_bounds(pair_system, 1, 0.0, 0.0, params)
    # monomial-style system: h(F) = 0 kills the log term
    cors = census_count_bounds(pair_system, 1, 0.0, math.log(2), params)
    assert cors.tree_depth_cutoff == math.ceil(params.gamma) + 1
    assert cors.tree_count == (2 ** cors.tree_depth_cutoff - 1)
    single = MapSystem([make_map([0, 0, 1], [1])])
    cors1 = census_count_bounds(single, 1, 0.0, math.log(2), params)
    assert cors1.tree_count == cors1.tree_depth_cutoff  # k = 1 degenerates


def test_bounds_dominate_empirical_counts(pair_system, recip_square, z2):
    # On the shipped configurations the bounds exceed the observed counts.
    s = PlaceSet.parse(["inf"])
    params = BoundParameters()

    system = MapSystem([recip_square])
    hits = s_integral_census(system, normalize(2, 1), s, 4)
    hm = hmin_estimate(system, normalize(2, 1), 1, 10)
    cors = census_count_bounds(system, len(s), 0.0, hm.estimate.lo(), params)
    assert len(hits) <= cors.tree_count

    hits = s_integral_census(pair_system, normalize(2, 1), s, 4)
    hm = hmin_estimate(pair_system, normalize(2, 1), 2, 8)
    cors = census_count_bounds(pair_system, len(s),
                            system_height(pair_system).to_float(),
                            hm.estimate.lo(), params)
    assert len(hits) <= cors.tree_count

    word = Word.periodic([1])
    system = MapSystem([z2])
    record = gamma_set(system, word, s, INFINITY, normalize(2, 1),
                       Fraction(1, 2), 5)
    est_p = canonical_height_word(Orbit(system, word, normalize(2, 1)), depth=10)
    est_a = canonical_height_system(system, INFINITY, depth=4)
    bound = gamma_count_bound(system, len(s), Fraction(1, 2), est_a.hi(),
                              0.0, est_p.lo(), params)
    assert len(record.in_set()) <= bound.total


def test_parameter_validation():
    with pytest.raises(ValueError):
        BoundParameters(roth_mu=2.0)
    with pytest.raises(ValueError):
        BoundParameters(gamma=-1.0)
    params = BoundParameters()
    assert params._asdict()["roth_mu"] == 2.5


def test_kappa_serialization(pair_system):
    k = kappa_constants(pair_system, RamificationMode.NOT_TOTALLY_RAMIFIED)
    payload = _kappa_json(k)
    assert payload == {"mode": "not-totally-ramified", "kappa1": 1.0,
                       "kappa2": pytest.approx(2 / 3)}
