"""Each map's Sylvester matrix is built and eliminated once:
`RatMap.cofactors` holds the resultant and both cofactor identities from one
fraction-free solve, and `make_map`'s coprimality check, `RatMap.resultant`,
`heights.c_bound` and `ratmap.eval_point` all read it."""

from pathlib import Path

import pytest

from orbitint import polys
from orbitint.heights import c_bound
from orbitint.proj1 import normalize
from orbitint.ratmap import MapError, eval_point, make_map

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "orbitint").glob("*.py"))


def test_one_elimination_per_map(monkeypatch):
    calls = []
    solve, matrix = polys.cofactor_identities, polys.sylvester_matrix
    monkeypatch.setattr(polys, "cofactor_identities",
                        lambda *args: calls.append("solve") or solve(*args))
    monkeypatch.setattr(polys, "sylvester_matrix",
                        lambda *args: calls.append("matrix") or matrix(*args))
    phi = make_map([1, 0, 0, 3], [0, 0, 2])   # (3z^3 + 1)/(2z^2), |Res| 24
    image = eval_point(phi, normalize(1, 1))
    bound = c_bound(phi)
    assert (image.x, image.y, phi.resultant) == (2, 1, 24)
    assert bound.certified and calls == ["solve", "matrix"]


def test_coprimality_is_read_from_the_elimination(monkeypatch):
    """A coprime pair is accepted on Res != 0 without a gcd over Q; a shared
    factor is still named, from the gcd taken once Res = 0."""
    gcds = []
    gcd_q = polys.gcd_q
    monkeypatch.setattr(polys, "gcd_q", lambda *args: gcds.append(args) or gcd_q(*args))
    make_map([1] + [0] * 29 + [10 ** 40], [3, 10 ** 39])
    assert gcds == []
    with pytest.raises(MapError, match="share the factor z-1") as info:
        make_map([-1, 0, 1], [-1, 1])
    assert info.value.witness == (-1, 1) and len(gcds) == 1


def test_no_second_elimination_in_src():
    retired = ("det_bareiss", "homogeneous_resultant", "resultant_cofactor_sum")
    assert [(path.name, name) for path in SOURCES for name in retired
            if name in path.read_text(encoding="utf-8")] == []
