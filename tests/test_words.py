import random

import pytest

from orbitint.cli import _word_json
from orbitint.orbits import Orbit
from orbitint.proj1 import ZERO
from orbitint.ratmap import MapSystem, parse_map
from orbitint.words import Word, WordMode, iter_periodic_words, primitive_root
from oracles import built_prefix, sample_word


def test_shift_examples():
    assert Word.finite([1, 2, 1]).shift() == Word.finite([2, 1])
    assert Word.periodic([1, 2]).shift() == Word.periodic([2, 1])
    assert Word.finite([2]).shift() == Word.finite([])
    with pytest.raises(ValueError):
        Word.finite([]).shift()
    with pytest.raises(ValueError):
        Word.periodic([])


def test_letter_access():
    w = Word.periodic([1, 2])
    assert [w.letter_at(i) for i in range(5)] == [1, 2, 1, 2, 1]
    f = Word.finite([1, 2])
    assert f.letter_at(1) == 2
    with pytest.raises(IndexError):
        f.letter_at(2)
    assert f.supports_depth(2) and not f.supports_depth(3)
    assert w.supports_depth(10 ** 6)


def test_shift_periodicity():
    w = Word.periodic([1, 2, 3])
    shifted = w
    for _ in range(3):
        shifted = shifted.shift()
    assert shifted == w
    # shift^n equals shift^(n mod period)
    s5 = w
    for _ in range(5):
        s5 = s5.shift()
    s2 = w.shift().shift()
    assert s5 == s2


def test_degree_products():
    system = MapSystem([parse_map("z^2"), parse_map("z^3")])   # degrees (2, 3)
    orbit = Orbit(system, Word.periodic([1, 2]), ZERO)
    assert [orbit.degree(n) for n in range(5)] == [1, 2, 6, 12, 36]
    assert orbit.degree(3) == 12
    assert orbit.degree(41) == 6 ** 20 * 2
    # multiplicative under concatenation
    u, v, uv = (Orbit(system, Word.finite(letters), ZERO)
                for letters in ([1, 1], [2], [1, 1, 2]))
    assert u.degree(2) * v.degree(1) == uv.degree(3)
    with pytest.raises(IndexError):
        uv.degree(4)
    assert built_prefix(orbit) == [ZERO]   # degrees build no point


def test_json_roundtrip():
    w = Word.periodic([2, 1])
    assert Word.from_json(_word_json(w)) == w
    assert _word_json(w) == {"letters": [2, 1], "mode": "periodic"}
    assert Word.from_json({"letters": [1, 2]}) == Word.finite([1, 2])


def test_primitive_root_and_periodic_enumeration():
    assert primitive_root((1, 1, 1)) == (1,)
    assert primitive_root((1, 2, 1, 2)) == (1, 2)
    assert primitive_root((1, 2, 2)) == (1, 2, 2)
    words = list(iter_periodic_words(2, 2))
    assert words == [Word.periodic([1]), Word.periodic([2]),
                     Word.periodic([1, 2]), Word.periodic([2, 1])]


def test_sample_word_weights():
    rng = random.Random(51)
    counts = {1: 0, 2: 0}
    for _ in range(200):
        w = sample_word((2, 3), 10, rng)
        assert len(w) == 10 and w.mode is WordMode.FINITE
        for c in w.letters:
            counts[c] += 1
    # letter 2 carries weight 3/5 of the mass
    assert 0.5 < counts[2] / 2000 < 0.7


def test_validation():
    for letters in ([0, 1], [1.5], [True], "12"):
        with pytest.raises(ValueError):
            Word(letters)
