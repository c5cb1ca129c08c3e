"""Acceptance suite: one test per criterion, one printed line per pass.

Sample counts and tolerances are pinned here and are not configurable; the
exact-arithmetic checks use integer power-product comparison, never floats.
"""

import itertools
import json
import random
from fractions import Fraction

from orbitint.bounds import (BoundParameters, census_count_bounds,
                             gamma_count_bound, prop_composition_height_bound)
from orbitint.cli import main as cli_main
from orbitint.heights import (canonical_height_system,
                              canonical_height_word, hmin_estimate,
                              system_bounds, system_c)
from orbitint.integrality import (GammaVerdict, gamma_set, quasi_integral_test,
                                  ratio_series, s_integral_census)
from orbitint.logvals import LogExpr
from orbitint.orbits import Orbit
from orbitint.places import INFINITE_PLACE, Place, PlaceSet, abs_log
from orbitint.proj1 import (INFINITY, ZERO, ProjPoint, log_chordal, normalize)
from orbitint.ratmap import (MapSystem, compose, eval_point,
                             is_totally_ramified, make_map, map_height,
                             parse_map, ramification_index, system_height)
from orbitint.verify import random_map, random_point, random_system, random_word
from orbitint.words import Word
from oracles import contains, ramification_index_chart, width

FLOAT_SLACK = 1e-12


def report(number: int, message: str):
    print(f"ACCEPTANCE {number:02d} PASS  {message}")


def bounded_factored(rng, bit_cap=100):
    """Random positive integer with known support, magnitude within 2^bit_cap."""
    pool = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 101, 257, 65537, 999983,
            1000003, 2147483647)
    n = 1
    support = set()
    for _ in range(rng.randrange(1, 7)):
        p = rng.choice(pool)
        e = rng.randrange(1, 5)
        if n.bit_length() + e * p.bit_length() > bit_cap:
            continue
        n *= p ** e
        support.add(p)
    return n, support


def test_criterion_01_exact_arithmetic_core():
    rng = random.Random(20110)
    for _ in range(10_000):
        num, sup_n = bounded_factored(rng)
        den, sup_d = bounded_factored(rng)
        x = Fraction(rng.choice((1, -1)) * num, den)
        if x == 0:
            continue
        total = abs_log(x, INFINITE_PLACE)
        for p in sorted(sup_n | sup_d):
            total = total + abs_log(x, Place(p))
        assert total.exact_sign() == 0
    places = (INFINITE_PLACE, Place(2), Place(3), Place(999983))
    for i in range(10_000):
        num1, _ = bounded_factored(rng, 60)
        den1, _ = bounded_factored(rng, 60)
        num2, _ = bounded_factored(rng, 60)
        den2, _ = bounded_factored(rng, 60)
        x = Fraction(rng.choice((1, -1)) * num1, den1)
        y = Fraction(rng.choice((1, -1)) * num2, den2)
        v = places[i % len(places)]
        assert (abs_log(x * y, v) - abs_log(x, v) - abs_log(y, v)).exact_sign() == 0
    report(1, "product formula and multiplicativity exact on 10^4 samples each")


def test_criterion_02_height_identities():
    rng = random.Random(20120)
    half_log2 = LogExpr.log_int(2, Fraction(1, 2))
    checked = 0
    while checked < 10_000:
        a = rng.randrange(-(10 ** 30), 10 ** 30 + 1)
        b = rng.randrange(1, 10 ** 30)
        if a == 0 and b == 0:
            continue
        p = normalize(a, b)
        assert p.height() == LogExpr.log_int(max(abs(p.x), abs(p.y)))
        if p.is_infinite:
            continue
        # defect = sum of local distances to infinity minus the height
        defect = (log_chordal(p, INFINITY, INFINITE_PLACE)
                  + LogExpr.log_int(p.y) - p.height())
        assert defect.exact_sign() >= 0
        assert (defect - half_log2).exact_sign() <= 0
        checked += 1
    report(2, "height formula and distance defect in [0, log(2)/2] on 10^4 points")


def _close_pair(rng, v):
    y = Fraction(rng.randrange(-60, 61), rng.randrange(1, 25))
    if v.is_archimedean:
        delta = Fraction(rng.choice((1, -1)),
                         2 ** rng.randrange(2, 30) * rng.randrange(1, 9))
    else:
        delta = Fraction(rng.choice((1, -1)) * v.prime ** rng.randrange(2, 14),
                         rng.randrange(1, 9))
    return y + delta, y


def test_criterion_03_metric_comparison_property():
    rng = random.Random(20130)
    places = (INFINITE_PLACE, Place(2), Place(3))
    hits = 0
    attempts = 0
    while hits < 10_000:
        attempts += 1
        assert attempts < 200_000, "premise generator starved"
        v = places[attempts % 3]
        x, y = _close_pair(rng, v)
        if x == y:
            continue
        px, py = normalize(x), normalize(y)
        lam_xy = log_chordal(px, py, v)
        lam_yinf = log_chordal(py, INFINITY, v)
        log_lv = v.log_lv()
        if (lam_xy - lam_yinf - log_lv).exact_sign() != 1:
            continue
        hits += 1
        middle = lam_xy + abs_log(x - y, v)
        assert (lam_yinf - middle).exact_sign() <= 0
        assert (middle - (lam_xy * 2 + log_lv)).exact_sign() <= 0
    report(3, f"metric comparison held on 10^4 premise triples ({attempts} drawn)")


def test_criterion_04_ramification():
    rng = random.Random(20140)
    for _ in range(1000):
        phi = random_map(rng, 2, 4)
        psi = random_map(rng, 2, 4)
        p = random_point(rng, 25)
        assert (ramification_index(compose(psi, phi), p)
                == ramification_index(phi, p)
                * ramification_index(psi, eval_point(phi, p)))
    chart1 = make_map([1], [0, 1])      # 1/w
    chart2 = make_map([1, 1], [0, 1])   # (w+1)/w
    checked = 0
    while checked < 100:
        phi = random_map(rng, 2, 3)
        image = eval_point(phi, INFINITY)
        if image in (eval_point(chart1, INFINITY), eval_point(chart2, INFINITY)):
            continue
        e = ramification_index(phi, INFINITY)
        assert ramification_index_chart(phi, INFINITY, chart1) == e
        assert ramification_index_chart(phi, INFINITY, chart2) == e
        checked += 1
    report(4, "multiplicativity on 10^3 pairs; chart independence on 10^2 maps")


def test_criterion_05_canonical_heights():
    log2 = LogExpr.log_int(2)
    for d in (2, 3):
        coeffs = [0] * d + [1]
        system = MapSystem([make_map(coeffs, [1])])
        c = system_c(system_bounds(system)).to_float()
        for depth in range(1, 8):
            est = canonical_height_word(Orbit(system, Word.periodic([1]), normalize(2, 1)),
                                        depth=depth)
            assert contains(est, log2)
            assert width(est) <= 2 * c / est.degree_product + FLOAT_SLACK
    for system, seed in ((MapSystem([make_map([-1, 0, 1], [1])]), ZERO),
                         (MapSystem([make_map([0, 0, 1], [1])]), ProjPoint(1, 1)),
                         (MapSystem([make_map([0, 0, 0, 1], [1])]), ProjPoint(-1, 1))):
        est = canonical_height_word(Orbit(system, Word.periodic([1]), seed), depth=8)
        assert contains(est, LogExpr.zero())
    rng = random.Random(20150)
    for _ in range(100):
        system = random_system(rng, 2, 3)
        word = random_word(rng, system.k, rng.randrange(1, 4), periodic=True)
        p = random_point(rng, 40)
        bounds = system_bounds(system)
        orbit = Orbit(system, word, p)
        est = canonical_height_word(orbit, depth=5, bounds=bounds)
        shifted = canonical_height_word(Orbit(system, word.shift(), orbit[1]), depth=5,
                                        bounds=bounds)
        assert est.lo() * orbit.degree(1) <= shifted.hi() + FLOAT_SLACK
        assert est.hi() * orbit.degree(1) >= shifted.lo() - FLOAT_SLACK
    report(5, "monomial intervals tight around log 2; preperiodic zeros; "
              "shift identity on 10^2 draws")


def test_criterion_06_eigensystem_height():
    pair = MapSystem([make_map([0, 0, 1], [1]), make_map([0, 0, 0, 1], [1])])
    log2 = LogExpr.log_int(2)
    assert contains(canonical_height_system(pair, normalize(2, 1), depth=5), log2)
    assert contains(canonical_height_system(pair, ProjPoint(1, 1), depth=5), LogExpr.zero())
    assert contains(canonical_height_system(pair, ZERO, depth=5), LogExpr.zero())
    rng = random.Random(20160)
    for _ in range(100):
        system = random_system(rng, 2, 3)
        depth = 4 if system.k == 1 else 3
        x = random_point(rng, 25)
        bounds = system_bounds(system)
        est = canonical_height_system(system, x, depth=depth, bounds=bounds)
        lo_sum = hi_sum = 0.0
        for m in system.maps:
            child = canonical_height_system(system, eval_point(m, x),
                                            depth=depth, bounds=bounds)
            lo_sum += child.lo()
            hi_sum += child.hi()
        d = system.degree_sum
        assert lo_sum <= d * est.hi() + FLOAT_SLACK
        assert hi_sum >= d * est.lo() - FLOAT_SLACK
    for system in (pair, MapSystem([parse_map("(z^2+1)/z"), parse_map("z^2-1")])):
        bounds = system_bounds(system)
        c = system_c(bounds).to_float()
        k, d = system.k, system.degree_sum
        x = normalize(Fraction(3, 2))
        iterates = []
        for n in range(5):
            total = 0.0
            for letters in itertools.product(range(1, k + 1), repeat=n):
                current = x
                for letter in letters:
                    current = eval_point(system.map_for_letter(letter), current)
                total += current.height().to_float()
            iterates.append(total / d ** n)
        for n in range(4):
            tail = 2 * c * (k / d) ** n / (1 - k / d)
            assert abs(iterates[n + 1] - iterates[n]) <= tail + FLOAT_SLACK
    report(6, "eigensystem examples, identity residuals on 10^2 systems, "
              "operator tail dominance")


def test_criterion_07_composition_height_bound():
    rng = random.Random(20170)
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
    report(7, "composition height bound exact-dominates 10^2 composed words")


def test_criterion_08_ramification_growth_dominance():
    rng = random.Random(20180)
    clean = 0
    attempts = 0
    while clean < 100:
        attempts += 1
        assert attempts < 5000, "hypothesis-satisfying orbit generator starved"
        system = random_system(rng, 2, 3)
        word = random_word(rng, system.k, 6, periodic=True)
        p = random_point(rng, 20)
        current = p
        product = 1
        deg_product = 1
        dmax = system.max_degree
        ok = True
        for i in range(6):
            phi = system.map_for_letter(word.letter_at(i))
            if is_totally_ramified(phi, current):
                ok = False
                break
            product *= ramification_index(phi, current)
            deg_product *= phi.degree
            assert Fraction(product) <= Fraction(dmax - 1, dmax) ** (i + 1) * deg_product
            current = eval_point(phi, current)
        if ok:
            clean += 1
    report(8, f"ramification growth bound exact on {clean} clean orbits "
              f"({attempts} drawn)")


def test_criterion_09_integrality_examples():
    s_inf = PlaceSet.parse(["inf"])
    census = s_integral_census(MapSystem([parse_map("1/z^2")]),
                               normalize(2, 1), s_inf, 4)
    assert [rec.point for rec in census.hits] == [ProjPoint(16, 1), ProjPoint(65536, 1)]
    assert quasi_integral_test(Fraction(8, 3), PlaceSet.parse(["inf", "p3"]),
                               Fraction(1))
    system = MapSystem([make_map([0, 0, 1], [1])])
    record = gamma_set(system, Word.periodic([1]), s_inf, INFINITY,
                       normalize(2, 1), Fraction(1, 2), 5)
    assert [v for _, v in record.members] == [GammaVerdict.IN] * 6
    # No ambiguous verdicts in any shipped configuration at 128 bits.
    shipped = [record]
    pair = MapSystem([make_map([0, 0, 1], [1]), make_map([0, 0, 0, 1], [1])])
    shipped.append(gamma_set(pair, Word.periodic([1, 2]),
                             PlaceSet.parse(["inf", "p2"]), INFINITY,
                             normalize(Fraction(3, 2)), Fraction(1, 2), 5))
    shipped.append(gamma_set(system, Word.periodic([1]), s_inf, ZERO,
                             normalize(2, 1), Fraction(1, 2), 5))
    for rec in shipped:
        assert GammaVerdict.AMBIGUOUS not in rec.verdicts().values()
    report(9, "census {16, 65536}; boundary case in; squaring gamma all-in; "
              "no ambiguous verdicts")


def test_criterion_10_bound_dominance_and_monotonicity():
    params = BoundParameters()
    s_inf = PlaceSet.parse(["inf"])

    recip = MapSystem([parse_map("1/z^2")])
    census = s_integral_census(recip, normalize(2, 1), s_inf, 4)
    hm = hmin_estimate(recip, normalize(2, 1), 1, 10)
    cors = census_count_bounds(recip, 1, 0.0, hm.estimate.lo(), params)
    assert census.count <= cors.tree_count

    pair = MapSystem([make_map([0, 0, 1], [1]), make_map([0, 0, 0, 1], [1])])
    census = s_integral_census(pair, normalize(2, 1), s_inf, 4)
    hm = hmin_estimate(pair, normalize(2, 1), 2, 8)
    cors = census_count_bounds(pair, 1, system_height(pair).to_float(),
                            hm.estimate.lo(), params)
    assert census.count <= cors.tree_count

    sq = MapSystem([make_map([0, 0, 1], [1])])
    record = gamma_set(sq, Word.periodic([1]), s_inf, INFINITY,
                       normalize(2, 1), Fraction(1, 2), 5)
    est_p = canonical_height_word(Orbit(sq, Word.periodic([1]), normalize(2, 1)), depth=10)
    est_a = canonical_height_system(sq, INFINITY, depth=4)
    g_bound = gamma_count_bound(sq, 1, Fraction(1, 2), est_a.hi(), 0.0,
                                est_p.lo(), params)
    assert len(record.in_set()) <= g_bound.total

    mixed = MapSystem([parse_map("(z^2-1)/(z^2+1)"), parse_map("z^3-2")])
    census = s_integral_census(mixed, normalize(3, 1),
                               PlaceSet.parse(["inf", "p2"]), 4)
    hm = hmin_estimate(mixed, normalize(3, 1), 2, 8)
    assert hm.estimate.lo() > 0
    cors = census_count_bounds(mixed, 2, system_height(mixed).to_float(),
                            hm.estimate.lo(), params)
    assert census.count <= cors.tree_count

    # a system satisfying the no-totally-ramified hypothesis at infinity, so
    # the count bound genuinely applies
    from orbitint.orbits import hypothesis_check
    good = MapSystem([parse_map("(z^2+1)/z"), parse_map("(z^3+1)/z")])
    assert hypothesis_check(good, INFINITY, 3).totally_ramified_free
    census = s_integral_census(good, normalize(2, 1),
                               PlaceSet.parse(["inf", "p2", "p5"]), 4)
    assert census.count == 4
    hm = hmin_estimate(good, normalize(2, 1), 2, 8)
    assert hm.estimate.lo() > 0
    cors = census_count_bounds(good, 3, system_height(good).to_float(),
                               hm.estimate.lo(), params)
    assert census.count <= cors.tree_count

    heights = (0.125, 0.5, 2.0, 8.0)
    totals = [gamma_count_bound(pair, 1, Fraction(1, 2), 1.0, 1.0, h, params).total
              for h in heights]
    assert all(a >= b - FLOAT_SLACK for a, b in zip(totals, totals[1:]))
    for idx in (0, 1):
        values = []
        for t in (0.0, 0.5, 2.0, 8.0):
            args = [1.0, 1.0]
            args[idx] = t
            values.append(gamma_count_bound(pair, 1, Fraction(1, 2), args[0],
                                            args[1], 0.5, params).total)
        assert all(a <= b + FLOAT_SLACK for a, b in zip(values, values[1:]))
    sizes = [gamma_count_bound(pair, s, Fraction(1, 2), 1.0, 1.0, 0.5, params).total
             for s in (1, 2, 3)]
    assert sizes == sorted(sizes)
    cor_sizes = [census_count_bounds(pair, s, 1.0, 0.5, params).single_orbit
                 for s in (1, 2, 3)]
    assert cor_sizes == sorted(cor_sizes)
    report(10, "bounds dominate all shipped counts; monotone in height, "
               "system height, and place count")


def test_criterion_11_ratio_trend():
    system = MapSystem([parse_map("(z^2-1)/(z^2+1)")])
    terms = ratio_series(system, Word.periodic([1]), normalize(2, 1), 8)
    defined = [t for t in terms if t.ratio is not None]
    assert len(defined) == 8
    deviations = [abs(t.ratio - 1) for t in defined]
    # trend: the worst deviation over the last three computable depths is no
    # larger than over the previous window, which improves on the first
    assert max(deviations[5:8]) <= max(deviations[2:5]) <= max(deviations[0:2])
    assert deviations[-1] < 0.1
    report(11, f"ratio trend windows decrease; final |ratio-1| = "
               f"{deviations[-1]:.2e} < 0.1")


def test_criterion_12_worker_determinism(tmp_path):
    payload = {
        "system": {"maps": ["z^2", "z^3"]},
        "point": "2",
        "places": ["inf"],
        "depth": 4,
        "word": {"letters": [1], "mode": "periodic"},
    }
    cfg = tmp_path / "determinism.json"
    cfg.write_text(json.dumps(payload), encoding="utf-8")
    blobs = {}
    for workers in (1, 2, 8):
        out = tmp_path / f"workers{workers}"
        assert cli_main(["orbit", "--config", str(cfg), "--out", str(out),
                         "--workers", str(workers)]) == 0
        blobs[workers] = [(f.name, f.read_bytes()) for f in sorted(out.iterdir())]
    assert blobs[1] == blobs[2] == blobs[8]
    report(12, "orbit reports byte-identical across 1, 2, and 8 workers")
