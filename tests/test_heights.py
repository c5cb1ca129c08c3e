import itertools
import math
import random
from fractions import Fraction

import pytest

from orbitint.cli import _estimate_json
from orbitint.errors import WorkLimitExceeded
from orbitint.heights import (c_bound, canonical_height_system,
                              canonical_height_word, hmin_estimate,
                              system_bounds, system_c)
from orbitint.logvals import DEFAULT_PRECISION, LogExpr
from orbitint.orbits import WorkLimits
from orbitint.proj1 import ZERO, ProjPoint, normalize
from orbitint.ratmap import MapSystem, eval_point, make_map, parse_map
from orbitint.verify import random_map, random_point, random_system, random_word
from orbitint.words import Word
from oracles import contains, mid, sample_word, width

LOG2 = LogExpr.log_int(2)


def sampled_defect_max(phi, points):
    # |h(phi x) - d h(x)| = log(P/Q) with P >= Q integers; the running max
    # compares by cross-multiplication, exactly.
    d = phi.degree
    best = (1, 1)
    for p in points:
        q = eval_point(phi, p)
        a = max(abs(q.x), abs(q.y))
        b = max(abs(p.x), abs(p.y)) ** d
        num, den = (a, b) if a >= b else (b, a)
        if num * best[1] > best[0] * den:
            best = (num, den)
    return LogExpr.log_int(best[0]) - LogExpr.log_int(best[1])


def sample_points(count, seed=0):
    rng = random.Random(seed)
    pts = [ProjPoint(1, 0), ZERO, ProjPoint(1, 1)]
    while len(pts) < count:
        pts.append(random_point(rng, 10 ** 4))
    return pts


def test_c_bound_certified_dominates_samples(z2, z3):
    # Example-map oracle at full size: sampled |h(phi x) - d h(x)| <= d * c
    # over 10^4 points each; the monomial maximum is exactly zero.
    pts = sample_points(10_000)
    for phi in (z2, z3, make_map([1, 0, 1], [0, 1])):
        b = c_bound(phi)
        worst = sampled_defect_max(phi, pts)
        assert ((b.c * phi.degree) - worst).sign() >= 0
        assert b.certified
        if phi in (z2, z3):
            assert worst.is_structural_zero


def test_c_bound_monomials_are_exact(z2, z3):
    assert c_bound(z2).c == LogExpr.zero()
    assert c_bound(z3).c == LogExpr.zero()
    pts = sample_points(200, seed=3)
    assert sampled_defect_max(z3, pts) == LogExpr.zero()


def test_c_bound_one_sided_constants_certified():
    # -lower <= h(phi(x)) - d h(x) <= upper, checked per side on samples.
    rng = random.Random(59)
    pts = sample_points(150, seed=5)
    for _ in range(20):
        phi = random_map(rng, 2, 3)
        b = c_bound(phi)
        for p in pts:
            defect = eval_point(phi, p).height() - p.height() * phi.degree
            assert (defect - b.upper).sign() <= 0
            assert (defect + b.lower).sign() >= 0


def test_evaluation_gcd_divides_resultant():
    # The cancellation in homogeneous evaluation divides the resultant; this
    # is what makes the lower height-defect constant valid.
    from orbitint import polys

    rng = random.Random(53)
    for _ in range(40):
        phi = random_map(rng, 2, 4)
        res = abs(polys.homogeneous_resultant(phi.f, phi.g, phi.degree))
        for _ in range(10):
            p = random_point(rng, 100)
            u, v = phi.homogeneous(p.x, p.y)
            g = math.gcd(u, v)
            assert g != 0 and res % g == 0


def test_c_bound_empirical_flagged(z2_minus_1):
    b = c_bound(z2_minus_1, mode="empirical", samples=50)
    assert b.mode == "empirical" and not b.certified
    assert b.sample_size >= 50
    with pytest.raises(ValueError):
        c_bound(z2_minus_1, mode="bogus")


def test_canonical_word_squaring(z2):
    system = MapSystem([z2])
    word = Word.periodic([1])
    for depth in range(1, 7):
        est = canonical_height_word(system, word, normalize(2, 1), depth=depth)
        assert contains(est, LOG2)
        assert est.degree_product == 2 ** depth
        # c = 0 for monomials: interval width is rounding slack only
        assert width(est) < 1e-12


def test_canonical_word_preperiodic(z2_minus_1):
    system = MapSystem([z2_minus_1])
    est = canonical_height_word(system, Word.periodic([1]), ZERO, depth=8)
    assert contains(est, LogExpr.zero())
    assert est.lo() == 0.0 and est.lo_expr.sign() != 1  # floored in lo() only


def test_canonical_word_mixed_system(pair_system):
    est = canonical_height_word(pair_system, Word.periodic([1, 2]),
                                normalize(2, 1), depth=6)
    assert contains(est, LOG2)
    assert width(est) < 1e-12


def test_canonical_word_finite_prefix(pair_system):
    est = canonical_height_word(pair_system, Word.finite([1, 2]),
                                normalize(2, 1), depth=6)
    assert est.depth == 2  # prefix exhausted
    assert contains(est, LOG2)


def test_one_sided_radius_bound():
    # Interval endpoints sit within 2c/D_n of the level-n midpoint.
    rng = random.Random(61)
    for _ in range(30):
        system = random_system(rng, 2, 3)
        word = random_word(rng, system.k, rng.randrange(1, 4), periodic=True)
        p = random_point(rng, 40)
        bounds = system_bounds(system)
        c = system_c(bounds).to_float()
        for depth in (1, 3, 5):
            est = canonical_height_word(system, word, p, depth=depth, bounds=bounds)
            centre = _orbit_height_mid(system, word, p, depth)
            cap = 2 * c / est.degree_product + 1e-12
            assert est.hi() - centre <= cap
            assert centre - est.lo() <= cap


def _orbit_height_mid(system, word, p, depth):
    current = p
    d_n = 1
    for i in range(depth):
        phi = system.map_for_letter(word.letter_at(i))
        current = eval_point(phi, current)
        d_n *= phi.degree
    return current.height().to_float() / d_n


def test_bounded_difference_from_start():
    # Every estimate stays within [h(P) - 2c, h(P) + 2c].
    rng = random.Random(67)
    for _ in range(25):
        system = random_system(rng, 2, 3)
        word = random_word(rng, system.k, rng.randrange(1, 3), periodic=True)
        p = random_point(rng, 50)
        bounds = system_bounds(system)
        c = system_c(bounds).to_float()
        est = canonical_height_word(system, word, p, depth=5, bounds=bounds)
        h = p.height().to_float()
        assert est.hi() <= h + 2 * c + 1e-9
        assert est.lo() >= max(h - 2 * c, 0.0) - 1e-9


def test_shift_identity_random():
    rng = random.Random(71)
    for _ in range(100):
        system = random_system(rng, 2, 3)
        word = random_word(rng, system.k, rng.randrange(1, 4), periodic=True)
        p = random_point(rng, 40)
        bounds = system_bounds(system)
        est = canonical_height_word(system, word, p, depth=5, bounds=bounds)
        first = system.map_for_letter(word.letter_at(0))
        shifted = canonical_height_word(system, word.shift(),
                                        eval_point(first, p), depth=5,
                                        bounds=bounds)
        d1 = first.degree
        assert est.lo() * d1 <= shifted.hi() + 1e-9
        assert est.hi() * d1 >= shifted.lo() - 1e-9


def test_system_height_examples(pair_system):
    est2 = canonical_height_system(pair_system, normalize(2, 1), depth=5)
    assert contains(est2, LOG2)
    est1 = canonical_height_system(pair_system, ProjPoint(1, 1), depth=5)
    assert contains(est1, LogExpr.zero())
    est0 = canonical_height_system(pair_system, ZERO, depth=5)
    assert contains(est0, LogExpr.zero())
    assert width(est0) < 1e-12


def test_system_height_worker_partition_deterministic(pair_system):
    serial = canonical_height_system(pair_system, normalize(Fraction(5, 3)), depth=5)
    for workers in (2, 8):
        parallel = canonical_height_system(pair_system, normalize(Fraction(5, 3)),
                                           depth=5, workers=workers)
        assert parallel == serial


def test_word_letters_validated(pair_system):
    with pytest.raises(ValueError):
        canonical_height_word(pair_system, Word.periodic([3]), normalize(2, 1),
                              depth=3)


def test_eigensystem_identity_random():
    rng = random.Random(73)
    for _ in range(100):
        system = random_system(rng, 2, 3)
        depth = 4 if system.k == 1 else 3
        x = random_point(rng, 30)
        bounds = system_bounds(system)
        est = canonical_height_system(system, x, depth=depth, bounds=bounds)
        lo_sum = hi_sum = 0.0
        for m in system.maps:
            child = canonical_height_system(system, eval_point(m, x),
                                            depth=depth, bounds=bounds)
            lo_sum += child.lo()
            hi_sum += child.hi()
        d = system.degree_sum
        assert lo_sum <= d * est.hi() + 1e-9
        assert hi_sum >= d * est.lo() - 1e-9


def test_operator_tail_dominates_iterate_differences(pair_system):
    # Successive averaging-operator iterates differ by at most the certified
    # geometric tail; the iterates are recomputed here directly as an oracle.
    systems = [pair_system,
               MapSystem([make_map([1, 0, 1], [0, 1]), make_map([-1, 0, 1], [1])])]
    for system in systems:
        bounds = system_bounds(system)
        c = system_c(bounds).to_float()
        k, d = system.k, system.degree_sum
        x = normalize(Fraction(3, 2))
        values = []
        for n in range(5):
            total = 0.0
            for letters in itertools.product(range(1, k + 1), repeat=n):
                current = x
                for letter in letters:
                    current = eval_point(system.map_for_letter(letter), current)
                total += current.height().to_float()
            values.append(total / d ** n)
        for n in range(4):
            tail = 2 * c * (k / d) ** n / (1 - k / d)
            assert abs(values[n + 1] - values[n]) <= tail + 1e-9


def test_monte_carlo_weighted_words(pair_system):
    # nu-weighted word sampling approximates the eigensystem height.
    rng = random.Random(79)
    x = normalize(Fraction(5, 3))
    bounds = system_bounds(pair_system)
    est = canonical_height_system(pair_system, x, depth=6, bounds=bounds)
    samples = []
    widths = []
    for _ in range(200):
        w = sample_word(pair_system.degrees, 6, rng)
        word_est = canonical_height_word(pair_system, w, x, depth=6,
                                         bounds=bounds)
        samples.append(mid(word_est))
        widths.append(width(word_est))
    mean = sum(samples) / len(samples)
    var = sum((s - mean) ** 2 for s in samples) / (len(samples) - 1)
    se = math.sqrt(var / len(samples))
    slack = 3 * se + width(est) + max(widths) + 1e-12
    assert est.lo() - slack <= mean <= est.hi() + slack


def test_nonnegativity_random():
    rng = random.Random(83)
    for _ in range(30):
        system = random_system(rng, 2, 3)
        word = random_word(rng, system.k, 2, periodic=True)
        p = random_point(rng, 60)
        est = canonical_height_word(system, word, p, depth=5)
        assert est.hi() >= 0
        assert est.lo() >= -1e-15


def test_hmin_examples(pair_system, z2, z2_minus_1):
    hm = hmin_estimate(pair_system, normalize(2, 1), period_bound=2, depth=8)
    assert not hm.preperiodic
    assert hm.estimate.lo() <= math.log(2) <= hm.estimate.hi()
    assert width(hm.estimate) < 1e-12
    assert hm.words_scanned == 4  # [1], [2], [1,2], [2,1]

    hm0 = hmin_estimate(MapSystem([z2]), ZERO, period_bound=1, depth=8)
    assert hm0.preperiodic and str(hm0.witness_word) == "[1]~"
    assert contains(hm0.estimate, LogExpr.zero())

    hm1 = hmin_estimate(MapSystem([z2_minus_1, z2]), ZERO, period_bound=1, depth=8)
    assert hm1.preperiodic and hm1.preperiodic_witness == Word.periodic([1])


def test_hmin_scan_obeys_the_node_cap(pair_system):
    # 2 + 4 + ... + 64 = 126 candidate words, 8 steps each.
    with pytest.raises(WorkLimitExceeded, match="hmin scan") as info:
        hmin_estimate(pair_system, normalize(2, 1), 6, 8,
                      limits=WorkLimits(node_cap=100))
    assert info.value.nodes == 126 * 8


def test_hmin_honours_the_bit_cap():
    # The census_hypothesis_pair system from 2: its orbits pass 200 bits
    # before depth 8, so a 200-bit cap stops the scan short and says so.
    system = MapSystem([parse_map("(z^2+1)/z"), parse_map("(z^3+1)/z")])
    full = hmin_estimate(system, normalize(2, 1), 2, 8)
    capped = hmin_estimate(system, normalize(2, 1), 2, 8,
                           limits=WorkLimits(bit_cap=200))
    assert full.estimate.depth == 8 and full.estimate.target_met
    assert capped.estimate.depth < 8 and not capped.estimate.target_met
    assert capped.estimate.lo() <= full.estimate.lo() <= full.estimate.hi() \
        <= capped.estimate.hi()


def test_estimate_serialization(pair_system):
    est = canonical_height_word(pair_system, Word.periodic([1]), normalize(2, 1),
                                depth=4)
    payload = _estimate_json(est, DEFAULT_PRECISION)
    assert set(payload) == {"lo", "hi", "depth", "certified", "targetMet"}
    assert payload["certified"] is True and payload["targetMet"] is True
    assert payload["lo"] <= math.log(2) <= payload["hi"]


def test_logexpr_max_undecided_is_an_upper_bound():
    from orbitint.heights import _logexpr_max

    a = LogExpr.log_int(3) - LogExpr.constant(1)          # 0.0986122...
    b = LogExpr.constant(Fraction(987, 10_000))           # a + 8.8e-5
    assert (a - b).sign(2) is None and (a - b).sign() < 0
    for top in (_logexpr_max(a, b, prec=2), _logexpr_max(b, a, prec=2)):
        assert (top - a).sign() >= 0 and (top - b).sign() >= 0
    assert _logexpr_max(a, b) == b  # decided at the default precision
