"""Seeded self-check suites behind the `verify` subcommand.

Each suite replays a module invariant on deterministic random data and
reports pass/fail; the random generators live here so tests can reuse them.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Callable

from .heights import (canonical_height_system, canonical_height_word,
                      system_bounds, system_c)
from .integrality import GammaVerdict, gamma_set, quasi_integral_test, s_integral_census
from .logvals import DEFAULT_PRECISION, LogExpr, _Infinite
from .orbits import Orbit, enumerate_tree, iterate_word
from .places import INFINITE_PLACE, Place, PlaceSet, abs_log, is_s_integer, log_plus_abs
from .proj1 import INFINITY, ProjPoint, log_chordal, normalize
from .ratmap import (MapError, MapSystem, compose, eval_point, make_map,
                     map_height, ramification_index, system_height)
from .words import Word

_PRIME_POOL = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 101, 257,
               65537, 999983, 1000003, 2147483647)


# -- deterministic random data ----------------------------------------------

def random_factored_int(rng: random.Random, max_primes: int = 6,
                        max_exp: int = 4) -> tuple[int, dict]:
    """Positive integer with known factorization from a fixed prime pool."""
    n = 1
    factors: dict[int, int] = {}
    for _ in range(rng.randrange(1, max_primes + 1)):
        p = rng.choice(_PRIME_POOL)
        e = rng.randrange(1, max_exp + 1)
        n *= p ** e
        factors[p] = factors.get(p, 0) + e
    return n, factors


def random_rational(rng: random.Random) -> Fraction:
    """Nonzero rational with tracked support, up to ~100 bits each side."""
    num, _ = random_factored_int(rng)
    den, _ = random_factored_int(rng)
    sign = rng.choice((1, -1))
    return Fraction(sign * num, den)


def random_point(rng: random.Random, size: int = 10**6) -> ProjPoint:
    if rng.random() < 0.02:
        return INFINITY
    a = rng.randrange(-size, size + 1)
    b = rng.randrange(1, size)
    return normalize(a, b)


def random_map(rng: random.Random, min_degree: int = 2, max_degree: int = 3,
               coeff_size: int = 5):
    """Random normalized map of the requested degree range."""
    while True:
        d = rng.randrange(min_degree, max_degree + 1)
        f = [rng.randrange(-coeff_size, coeff_size + 1) for _ in range(d + 1)]
        g = [rng.randrange(-coeff_size, coeff_size + 1) for _ in range(d + 1)]
        if rng.random() < 0.4:
            g = [g[0] if g[0] else 1]  # polynomial-style map
        if rng.random() < 0.5:
            f[d] = rng.choice((1, 2, -1, 3))
        try:
            phi = make_map(f, g)
        except MapError:
            continue
        if phi.degree == d:
            return phi


def random_system(rng: random.Random, k_max: int = 2, max_degree: int = 3) -> MapSystem:
    k = rng.randrange(1, k_max + 1)
    return MapSystem([random_map(rng, 2, max_degree) for _ in range(k)])


def random_word(rng: random.Random, k: int, length: int, periodic: bool) -> Word:
    letters = [rng.randrange(1, k + 1) for _ in range(max(1, length))]
    return Word.periodic(letters) if periodic else Word.finite(letters)


# -- suites ------------------------------------------------------------------

def check_product_formula(rng: random.Random, prec: int, n: int = 400) -> tuple[bool, str]:
    for _ in range(n):
        num, nf = random_factored_int(rng)
        den, df = random_factored_int(rng)
        x = Fraction(rng.choice((1, -1)) * num, den)
        if x == 0:
            continue
        support = set(nf) | set(df)
        total = abs_log(x, INFINITE_PLACE)
        for p in sorted(support):
            total = total + abs_log(x, Place(p))
        if total.exact_sign() != 0:
            return False, f"product formula fails at {x}"
    return True, f"{n} rationals"


def check_abs_log_multiplicative(rng: random.Random, prec: int, n: int = 300) -> tuple[bool, str]:
    for _ in range(n):
        x, y = random_rational(rng), random_rational(rng)
        for v in (INFINITE_PLACE, Place(2), Place(3), Place(999983)):
            lhs = abs_log(x * y, v)
            rhs = abs_log(x, v) + abs_log(y, v)
            if (lhs - rhs).exact_sign() != 0:
                return False, f"multiplicativity fails at {x}, {y}, {v}"
    return True, f"{n} pairs x 4 places"


def check_s_integer_height_identity(rng: random.Random, prec: int, n: int = 300) -> tuple[bool, str]:
    s = PlaceSet([INFINITE_PLACE, Place(2), Place(5)])
    for _ in range(n):
        x = random_rational(rng)
        expected = is_s_integer(x, s)
        total = LogExpr.zero()
        for v in s:
            total = total + log_plus_abs(x, v) * v.local_degree
        height = LogExpr.log_int(max(abs(x.numerator), x.denominator))
        identity = (total - height).exact_sign() == 0
        if identity != expected:
            return False, f"S-integer height identity fails at {x}"
    return True, f"{n} rationals"


def check_chordal_symmetry(rng: random.Random, prec: int, n: int = 300) -> tuple[bool, str]:
    places = (INFINITE_PLACE, Place(2), Place(3))
    for _ in range(n):
        p, q = random_point(rng, 10**4), random_point(rng, 10**4)
        for v in places:
            dpq = log_chordal(p, q, v)
            dqp = log_chordal(q, p, v)
            if isinstance(dpq, _Infinite) != isinstance(dqp, _Infinite):
                return False, f"symmetry fails at {p}, {q}, {v}"
            if isinstance(dpq, _Infinite):
                continue
            if (dpq - dqp).exact_sign() != 0:
                return False, f"symmetry fails at {p}, {q}, {v}"
            if dpq.exact_sign() == -1:
                return False, f"negative distance at {p}, {q}, {v}"
    return True, f"{n} pairs x 3 places"


def _as_val(value) -> float:
    if isinstance(value, _Infinite):
        return math.inf
    return value.to_float()


def check_ultrametric(rng: random.Random, prec: int, n: int = 200) -> tuple[bool, str]:
    # lambda = -log rho, so the ultrametric reads min on the lambda side; the
    # values are integer multiples of log p, making float slack safe.
    for _ in range(n):
        pts = [random_point(rng, 10**4) for _ in range(3)]
        if len({*pts}) < 3:
            continue
        p, q, r = pts
        for v in (Place(2), Place(3), Place(7)):
            dpr = _as_val(log_chordal(p, r, v))
            dpq = _as_val(log_chordal(p, q, v))
            dqr = _as_val(log_chordal(q, r, v))
            if dpr < min(dpq, dqr) - 1e-9:
                return False, f"ultrametric fails at {p}, {q}, {r}, {v}"
    return True, f"{n} triples x 3 primes"


def close_pair(rng: random.Random, v: Place) -> tuple[Fraction, Fraction]:
    """A pair likely to satisfy the closeness premise at the given place."""
    y = Fraction(rng.randrange(-50, 51), rng.randrange(1, 20))
    if v.is_archimedean:
        delta = Fraction(rng.choice((1, -1)), 2 ** rng.randrange(1, 24) * rng.randrange(1, 9))
    else:
        delta = Fraction(rng.choice((1, -1)) * v.prime ** rng.randrange(1, 12),
                         rng.randrange(1, 9))
    return y + delta, y


def check_metric_comparison(rng: random.Random, prec: int, n: int = 400) -> tuple[bool, str]:
    """Whenever a pair is closer than one member is to infinity (by the place
    constant), the affine difference pins the distance to infinity both ways."""
    places = (INFINITE_PLACE, Place(2), Place(3))
    hits = 0
    for i in range(n):
        for v in places:
            if i % 2 == 0:
                x, y = close_pair(rng, v)
            else:
                x, y = random_rational(rng), random_rational(rng)
            if x == y:
                continue
            px, py = normalize(x), normalize(y)
            lam_xy = log_chordal(px, py, v)
            lam_yinf = log_chordal(py, INFINITY, v)
            log_lv = v.log_lv()
            if (lam_xy - lam_yinf - log_lv).exact_sign() == 1:
                hits += 1
                diff_log = abs_log(x - y, v)
                middle = lam_xy + diff_log
                if (lam_yinf - middle).exact_sign() == 1:
                    return False, f"left comparison fails at {x}, {y}, {v}"
                upper = lam_xy * 2 + log_lv
                if (middle - upper).exact_sign() == 1:
                    return False, f"right comparison fails at {x}, {y}, {v}"
    if hits == 0:
        return False, "no premise hits; generator broken"
    return True, f"{hits} premise hits over {n} pairs"


def check_height_distance_defect(rng: random.Random, prec: int, n: int = 300) -> tuple[bool, str]:
    """Sum of distances to infinity minus the height is exactly
    (1/2) log(1 + min^2/max^2), which sits in [0, (1/2) log 2]."""
    for _ in range(n):
        p = random_point(rng, 10**6)
        if p.is_infinite:
            continue
        a, b = p.x, p.y
        # The finite places contribute v_p(b) log p, which sums to log b.
        total = log_chordal(p, INFINITY, INFINITE_PLACE) + LogExpr.log_int(b)
        defect = total - p.height()
        lo, hi = min(a * a, b * b), max(a * a, b * b)
        expected = LogExpr.log_fraction(Fraction(lo + hi, hi), Fraction(1, 2))
        if (defect - expected).exact_sign() != 0:
            return False, f"defect identity fails at {p}"
        if defect.exact_sign() == -1:
            return False, f"defect negative at {p}"
        cap = LogExpr.log_int(2, Fraction(1, 2))
        if (defect - cap).exact_sign() == 1:
            return False, f"defect exceeds half log 2 at {p}"
    return True, f"{n} points"


def check_ramification_multiplicativity(rng: random.Random, prec: int, n: int = 60) -> tuple[bool, str]:
    for _ in range(n):
        phi = random_map(rng, 2, 3)
        psi = random_map(rng, 2, 3)
        p = random_point(rng, 40)
        left = ramification_index(compose(psi, phi), p)
        right = ramification_index(phi, p) * ramification_index(psi, eval_point(phi, p))
        if left != right:
            return False, f"multiplicativity fails at {phi}, {psi}, {p}"
    return True, f"{n} pairs"


def check_composition_height_bound(rng: random.Random, prec: int, n: int = 40) -> tuple[bool, str]:
    from .bounds import prop_composition_height_bound

    for _ in range(n):
        system = random_system(rng, 2, 3)
        length = rng.randrange(1, 4)
        word = [rng.randrange(1, system.k + 1) for _ in range(length)]
        composite = system.map_for_letter(word[0])
        for letter in word[1:]:
            composite = compose(system.map_for_letter(letter), composite)
        bound = prop_composition_height_bound(length, system.max_degree,
                                              system_height(system))
        if (bound - map_height(composite)).exact_sign() == -1:
            return False, f"composition height bound fails for {word}"
    return True, f"{n} words"


def check_shift_identity(rng: random.Random, prec: int, n: int = 25) -> tuple[bool, str]:
    for _ in range(n):
        system = random_system(rng, 2, 3)
        word = random_word(rng, system.k, rng.randrange(1, 4), periodic=True)
        p = random_point(rng, 50)
        bounds = system_bounds(system)
        orbit = Orbit(system, word, p)
        est = canonical_height_word(orbit, depth=5, bounds=bounds)
        shifted = canonical_height_word(Orbit(system, word.shift(), orbit[1]),
                                        depth=5, bounds=bounds)
        d1 = orbit.degree(1)
        lo = est.lo(prec) * d1 - shifted.hi(prec)
        hi = est.hi(prec) * d1 - shifted.lo(prec)
        if lo > 1e-12 or hi < -1e-12:
            return False, f"shift identity violated for {word}, {p}"
    return True, f"{n} configurations"


def check_eigensystem_identity(rng: random.Random, prec: int, n: int = 15) -> tuple[bool, str]:
    for _ in range(n):
        system = random_system(rng, 2, 3)
        x = random_point(rng, 30)
        bounds = system_bounds(system)
        est = canonical_height_system(system, x, depth=4, bounds=bounds, prec=prec)
        total_lo = total_hi = 0.0
        for m in system.maps:
            child = canonical_height_system(system, eval_point(m, x), depth=4,
                                            bounds=bounds, prec=prec)
            total_lo += child.lo(prec)
            total_hi += child.hi(prec)
        dsum = system.degree_sum
        if total_lo - dsum * est.hi(prec) > 1e-9 or total_hi - dsum * est.lo(prec) < -1e-9:
            return False, f"eigensystem identity violated at {x}"
    return True, f"{n} systems"


def check_canonical_nonnegative(rng: random.Random, prec: int, n: int = 25) -> tuple[bool, str]:
    for _ in range(n):
        system = random_system(rng, 2, 3)
        word = random_word(rng, system.k, rng.randrange(1, 3), periodic=True)
        p = random_point(rng, 60)
        est = canonical_height_word(Orbit(system, word, p), depth=5)
        if est.hi(prec) < 0:
            return False, f"upper endpoint negative at {p}"
    return True, f"{n} configurations"


def check_ramification_growth(rng: random.Random, prec: int, n: int = 25) -> tuple[bool, str]:
    """Exact products of step indices stay below the degree-loss bound when no
    orbit point is totally ramified for the applied maps."""
    from .ratmap import is_totally_ramified

    checked = 0
    for _ in range(n):
        system = random_system(rng, 2, 3)
        word = random_word(rng, system.k, 6, periodic=True)
        orbit = Orbit(system, word, random_point(rng, 20))
        product = 1
        dmax = system.max_degree
        for i, _ in enumerate(iterate_word(orbit, 5)):
            phi, point = orbit.map(i), orbit[i]
            if is_totally_ramified(phi, point):
                break
            product *= ramification_index(phi, point)
            bound = Fraction(dmax - 1, dmax) ** (i + 1) * orbit.degree(i + 1)
            if Fraction(product) > bound:
                return False, f"growth bound fails for {word} at step {i + 1}"
        else:
            checked += 1
    return True, f"{checked} clean orbits of {n}"


def check_gamma_monotone_epsilon(rng: random.Random, prec: int) -> tuple[bool, str]:
    system = MapSystem([make_map([0, 0, 1], [1]), make_map([-1, 0, 1], [1])])
    word = Word.periodic([1, 2])
    s = PlaceSet([INFINITE_PLACE, Place(2)])
    p = normalize(Fraction(3, 2))
    eps_values = [Fraction(1, 8), Fraction(1, 2), Fraction(1, 1)]
    previous_in = None
    for eps in eps_values:
        record = gamma_set(system, word, s, INFINITY, p, eps, depth=5, prec=prec)
        current = set(record.in_set())
        if previous_in is not None and not current.issubset(previous_in):
            return False, f"membership grew when epsilon rose to {eps}"
        previous_in = current
    return True, f"{len(eps_values)} epsilon steps"


def check_census_gamma_consistency(rng: random.Random, prec: int) -> tuple[bool, str]:
    """S-integral hits high enough above the certified gap must show up as
    proximity-set members at epsilon = 1/2."""
    system = MapSystem([make_map([1], [0, 0, 1])])  # 1/z^2
    word = Word.periodic([1])
    s = PlaceSet([INFINITE_PLACE])
    p = normalize(2)
    hits = s_integral_census(system, p, s, depth=4)
    record = gamma_set(system, word, s, INFINITY, p, Fraction(1, 2), depth=4, prec=prec)
    verdicts = record.verdicts()
    bounds = system_bounds(system)
    gap = (system_c(bounds) * 4).to_float(prec)
    for hit_word, point in hits:
        if point.height().to_float(prec) >= gap:
            if verdicts[len(hit_word)] is not GammaVerdict.IN:
                return False, f"hit at depth {len(hit_word)} missing from the proximity set"
    return True, f"{len(hits)} hits checked"


def check_quasi_integral_boundary(rng: random.Random, prec: int) -> tuple[bool, str]:
    s = PlaceSet([INFINITE_PLACE, Place(3)])
    if not quasi_integral_test(Fraction(8, 3), s, Fraction(1), prec=prec):
        return False, "boundary case 8/3 should be quasi-integral"
    if quasi_integral_test(Fraction(8, 3), PlaceSet([INFINITE_PLACE]), Fraction(1), prec=prec):
        return False, "8/3 with S={inf} should fail at epsilon=1"
    return True, "boundary cases"


def check_tree_determinism(rng: random.Random, prec: int) -> tuple[bool, str]:
    system = MapSystem([make_map([0, 0, 1], [1]), make_map([0, 0, 0, 1], [1])])
    p = normalize(2)
    first = enumerate_tree(system, p, 4, dedupe=True)
    second = enumerate_tree(system, p, 4, dedupe=True)
    if first != second:
        return False, "repeated enumeration differs"
    return True, f"{len(first)} records"


SUITES: list[tuple[str, Callable]] = [
    ("product-formula", check_product_formula),
    ("abs-log-multiplicative", check_abs_log_multiplicative),
    ("s-integer-height-identity", check_s_integer_height_identity),
    ("chordal-symmetry", check_chordal_symmetry),
    ("chordal-ultrametric", check_ultrametric),
    ("metric-comparison", check_metric_comparison),
    ("height-distance-defect", check_height_distance_defect),
    ("ramification-multiplicativity", check_ramification_multiplicativity),
    ("composition-height-bound", check_composition_height_bound),
    ("canonical-shift-identity", check_shift_identity),
    ("eigensystem-identity", check_eigensystem_identity),
    ("canonical-nonnegative", check_canonical_nonnegative),
    ("ramification-growth", check_ramification_growth),
    ("gamma-epsilon-monotone", check_gamma_monotone_epsilon),
    ("census-gamma-consistency", check_census_gamma_consistency),
    ("quasi-integral-boundary", check_quasi_integral_boundary),
    ("tree-determinism", check_tree_determinism),
]


def run_all(seed: int = 0, prec: int = DEFAULT_PRECISION) -> list[tuple[str, bool, str]]:
    results = []
    for name, fn in SUITES:
        rng = random.Random(f"{seed}:{name}")
        try:
            ok, detail = fn(rng, prec)
        except Exception as exc:  # a crash is a failure, not an abort
            ok, detail = False, f"exception: {exc!r}"
        results.append((name, ok, detail))
    return results
