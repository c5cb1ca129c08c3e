"""Cross-checks against independent implementations.

The sympy oracles are skipped cleanly when sympy is not installed; the
remaining oracles are self-contained brute-force recomputations.
"""

import itertools
import random
from fractions import Fraction

import pytest

from orbitint.heights import (canonical_height_system, canonical_height_word,
                              system_bounds)
from orbitint.proj1 import normalize
from orbitint.ratmap import compose, eval_point, ramification_index
from orbitint.verify import random_map, random_point, random_system, random_word


def test_compose_against_sympy():
    sympy = pytest.importorskip("sympy")
    z = sympy.symbols("z")

    def to_expr(m):
        num = sum(c * z ** i for i, c in enumerate(m.f))
        den = sum(c * z ** i for i, c in enumerate(m.g))
        return num / den

    rng = random.Random(227)
    for _ in range(15):
        outer, inner = random_map(rng, 2, 3), random_map(rng, 2, 3)
        ours = to_expr(compose(outer, inner))
        theirs = to_expr(outer).subs(z, to_expr(inner))
        assert sympy.simplify(ours - theirs) == 0


def test_ramification_against_sympy_multiplicity():
    sympy = pytest.importorskip("sympy")
    z = sympy.symbols("z")
    rng = random.Random(229)
    checked = 0
    while checked < 30:
        phi = random_map(rng, 2, 3)
        p = random_point(rng, 12)
        if p.is_infinite:
            continue
        image = eval_point(phi, p)
        if image.is_infinite:
            continue
        z0 = Fraction(p.x, p.y)
        num = sum(c * z ** i for i, c in enumerate(phi.f))
        den = sum(c * z ** i for i, c in enumerate(phi.g))
        w0 = Fraction(image.x, image.y)
        # order of vanishing of phi(z) - phi(p): multiplicity of z0 in the
        # numerator of the difference (the denominator does not vanish there)
        diff_num = sympy.Poly(sympy.expand(num * w0.denominator
                                           - den * w0.numerator), z)
        mult = 0
        root = sympy.Rational(z0.numerator, z0.denominator)
        while diff_num.eval(root) == 0:
            diff_num = sympy.Poly(sympy.quo(diff_num.as_expr(), z - root), z)
            mult += 1
        assert ramification_index(phi, p) == mult
        checked += 1


def test_eval_against_sympy():
    sympy = pytest.importorskip("sympy")
    z = sympy.symbols("z")
    rng = random.Random(233)
    for _ in range(25):
        phi = random_map(rng, 2, 3)
        p = random_point(rng, 30)
        if p.is_infinite:
            continue
        num = sum(c * z ** i for i, c in enumerate(phi.f))
        den = sum(c * z ** i for i, c in enumerate(phi.g))
        q = sympy.Rational(p.x, p.y)
        den_val = den.subs(z, q)
        ours = eval_point(phi, p)
        if den_val == 0:
            assert ours.is_infinite
            continue
        value = sympy.Rational(num.subs(z, q), den_val)
        assert Fraction(int(value.p), int(value.q)) == Fraction(ours.x, ours.y)


def test_deep_orbit_value_inside_shallow_interval():
    # The certified interval at small depth must contain the raw normalized
    # height much deeper along the same word.
    rng = random.Random(239)
    for _ in range(25):
        system = random_system(rng, 2, 2)
        word = random_word(rng, system.k, rng.randrange(1, 4), periodic=True)
        p = random_point(rng, 30)
        bounds = system_bounds(system)
        shallow = canonical_height_word(system, word, p, depth=4, bounds=bounds)
        current = p
        d_n = 1
        for i in range(12):
            phi = system.map_for_letter(word.letter_at(i))
            current = eval_point(phi, current)
            d_n *= phi.degree
        deep_value = current.height().to_float() / d_n
        assert shallow.lo() - 1e-9 <= deep_value <= shallow.hi() + 1e-9


def test_deep_operator_iterate_inside_shallow_interval():
    rng = random.Random(241)
    for _ in range(12):
        system = random_system(rng, 2, 2)
        x = random_point(rng, 20)
        bounds = system_bounds(system)
        shallow = canonical_height_system(system, x, depth=2, bounds=bounds)
        k, d = system.k, system.degree_sum
        depth = 7 if k == 1 else 5
        total = 0.0
        for letters in itertools.product(range(1, k + 1), repeat=depth):
            current = x
            for letter in letters:
                current = eval_point(system.map_for_letter(letter), current)
            total += current.height().to_float()
        deep_value = total / d ** depth
        # the deep iterate sits within the shallow certified interval plus
        # its own tail allowance
        from orbitint.heights import system_c
        c = system_c(bounds).to_float()
        tail = c * (k / d) ** depth / (1 - k / d)
        assert shallow.lo() - tail - 1e-9 <= deep_value <= shallow.hi() + tail + 1e-9
