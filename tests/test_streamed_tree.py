"""The orbit tree streams: enumerate_tree folds its (word, point) pairs as the
walk makes them, through one exact dedupe index (orbits._earlier_words), and the orbit
CSV is written row by row to a file that replaces the report only once the
run has succeeded."""

import ast
import hashlib
import json
import tracemalloc
from functools import partial
from pathlib import Path

import pytest

from orbitint import orbits
from orbitint.cli import _orbit_csv, main
from orbitint.config import load_config, parse_config
from orbitint.integrality import s_integral_census
from orbitint.logvals import DEFAULT_PRECISION
from orbitint.orbits import enumerate_tree, hypothesis_check
from orbitint.proj1 import ProjPoint
from orbitint.ratmap import MapSystem, parse_map

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"
SOURCES = sorted((ROOT / "src" / "orbitint").glob("*.py"))


def _raw(name, **changes):
    return {**json.loads((CONFIGS / f"{name}.json").read_text(encoding="utf-8")), **changes}


def _write(tmp_path, raw, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(raw), encoding="utf-8")
    return str(path)


def _digests(out):
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out.iterdir())}


def _error(capsys):
    return json.loads(capsys.readouterr().err.strip().splitlines()[-1])


def test_orbit_tree_memory_is_linear_in_depth(tmp_path):
    """z^2 from 1 at depth 3000: every word of the one-map tree is as long as
    its depth, so a held record list costs memory quadratic in the depth
    (about 35 MB here).  The streamed rows and the hypothesis scan hold one
    path."""
    system, one = MapSystem([parse_map("z^2")]), ProjPoint(1, 1)
    for dedupe in (False, True):
        tracemalloc.start()
        try:
            rows = enumerate_tree(system, one, 3000, dedupe=dedupe,
                                  fold=partial(_orbit_csv, tmp_path / "orbit.csv",
                                               DEFAULT_PRECISION))
            report = hypothesis_check(system, one, 3000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(rows) == (1 if dedupe else 3001)
        assert report.repeat_witness == ((), (1,), one)
        assert peak < 2 * 2 ** 20, (dedupe, peak)


def test_point_key_parts_what_hash_alone_does_not():
    """Int hashes are taken mod 2^61 - 1, so on the commuting pair z^2, z^3
    from 2 the powers 2^m and 2^(m + 61) collide; the bit lengths part
    them, so this tree's distinct points have distinct keys."""
    config = load_config(CONFIGS / "orbit_pair.json")
    points = {point for _, point in enumerate_tree(config.system, config.point, 11)}
    assert len({hash(p) for p in points}) < len(points) == 78
    assert len({orbits._point_key(p) for p in points}) == len(points)


def _runs(tmp_path, raw, depth, tag):
    """Orbit and census reports, and the census hits and the hypothesis
    witnesses of the tree from the config's point."""
    cfg = _write(tmp_path, raw, f"{tag}.json")
    out = {}
    for sub in ("orbit", "census"):
        for workers in ("1", "2"):
            path = tmp_path / f"{tag}-{sub}-{workers}"
            assert main([sub, "--config", cfg, "--depth", str(depth),
                         "--workers", workers, "--out", str(path)]) == 0
            out[sub, workers] = _digests(path)
    config = parse_config({**raw, "depth": depth})
    hits = s_integral_census(config.system, config.point, config.places, depth)
    report = hypothesis_check(config.system, config.point, depth)
    return out, hits, report


@pytest.mark.parametrize("name, depth", [("orbit_pair", 8), ("bounds_mixed", 6)])
def test_dedupe_is_exact_whatever_the_key(tmp_path, monkeypatch, name, depth):
    """With every point under one key, each node is compared with every
    earlier first point, rebuilt from the root: the reports, the census hits
    and the hypothesis witnesses do not change."""
    raw = _raw(name)
    expected = _runs(tmp_path, raw, depth, "key")
    rebuilt = []
    original = orbits.Lineage.build

    def build(self):
        rebuilt.append(self)
        return original(self)

    monkeypatch.setattr(orbits, "_point_key", lambda point: 0)
    monkeypatch.setattr(orbits.Lineage, "build", build)
    assert _runs(tmp_path, raw, depth, "constant") == expected
    assert rebuilt


# sha256 of the orbit report and CSV and of the census report on orbit_pair
# (z^2 and z^3 from 2) at --depth 11, as written when the tree was held
# and deduplicated by a dict of its points.
ORBIT_PAIR_DEPTH_11_DIGESTS = {
    "orbit.csv": "f9370beb2ba74bade5bfab2ccf8dbac50fbeac7a9b1a00ee59bbbcd0e82bd2b9",
    "orbit.json": "ff4158774b76d216e4307f21e51387bf54a91fa676678d2c4c38c571b5321834",
    "census.json": "8e6d8f8bef9fb12a1cf13a4c900d5d647ada1a1f940292a16da32a0cb5fe0774",
}


@pytest.mark.parametrize("workers", [1, 2])
def test_orbit_pair_depth_11_bytes(tmp_path, workers):
    """A tree of many repeats: 4,095 records of 78 distinct points."""
    out = tmp_path / "reports"
    for sub in ("orbit", "census"):
        assert main([sub, "--config", str(CONFIGS / "orbit_pair.json"), "--depth", "11",
                     "--workers", str(workers), "--out", str(out)]) == 0
    got = {f"{name.split('_')[0]}{Path(name).suffix}": digest
           for name, digest in _digests(out).items()}
    assert got == ORBIT_PAIR_DEPTH_11_DIGESTS


def test_the_orbit_dump_tree_rebuilds_nothing(monkeypatch):
    """census_hypothesis_pair from 2 has no repeated point and no two points
    with one key, so its dedupe builds no point twice."""
    config = load_config(CONFIGS / "census_hypothesis_pair.json")
    monkeypatch.setattr(orbits.Lineage, "build", None)
    records = enumerate_tree(config.system, config.point, 9, dedupe=True)
    assert len(records) == 2 ** 10 - 1


@pytest.mark.parametrize("raw, message", [
    # The walk stops at its 34th node, after 33 rows were written.
    (_raw("census_hypothesis_pair", workLimits={"bitCap": 500}),
     "orbit coordinate of 538 bits exceeded the cap 500"),
    # The walk from 1 fits; the hypothesis scan from 3 stops after it.
    (_raw("orbit_pair", point="1", pointA="3", workLimits={"bitCap": 300}),
     "orbit coordinate of 305 bits exceeded the cap 300"),
], ids=["walk", "hypothesis-scan"])
def test_an_abort_leaves_no_csv(tmp_path, capsys, raw, message):
    out = tmp_path / "reports"
    assert main(["orbit", "--config", _write(tmp_path, raw), "--depth", "8",
                 "--out", str(out)]) == 3
    assert _error(capsys) == {"error": message, "kind": "work-limit"}
    assert not out.exists() or list(out.iterdir()) == []


def test_an_orbit_over_the_node_cap_creates_no_directory(tmp_path, capsys):
    out = tmp_path / "reports"
    raw = _raw("orbit_pair", workLimits={"nodeCap": 100})
    assert main(["orbit", "--config", _write(tmp_path, raw), "--depth", "8",
                 "--out", str(out)]) == 3
    assert _error(capsys) == {"error": "tree of 511 nodes exceeds the node cap 100",
                              "kind": "work-limit"}
    assert not out.exists()


@pytest.mark.parametrize("sub", ["orbit", "census"])
def test_out_naming_a_file_is_rejected_before_any_work(tmp_path, capsys, monkeypatch, sub):
    import orbitint.cli as cli

    blocker = tmp_path / "report.txt"
    blocker.write_text("kept\n", encoding="utf-8")
    monkeypatch.setattr(cli, "load_config", None)   # no work: not even the config
    for out in (blocker, blocker / "reports"):
        assert main([sub, "--config", str(CONFIGS / "orbit_pair.json"),
                     "--out", str(out)]) == 2
        payload = _error(capsys)
        assert payload["kind"] == "validation" and str(blocker) in payload["error"]
    assert blocker.read_text(encoding="utf-8") == "kept\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["report.txt"]


def _functions(tree):
    return [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]


def _keys_by_point(func):
    """Expressions in func that key a dict or set by a tree node's point: an
    attribute .point, or a name point or node, as a walk's pairs unpack."""
    def is_point(node):
        return (isinstance(node, ast.Attribute) and node.attr == "point"
                or isinstance(node, ast.Name) and node.id in ("point", "node"))

    found = []
    for node in ast.walk(func):
        if isinstance(node, ast.Subscript) and is_point(node.slice):
            found.append(ast.unparse(node))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr in ("setdefault", "get", "add", "pop", "fromkeys")
              and node.args and is_point(node.args[0])):
            found.append(ast.unparse(node))
        elif isinstance(node, ast.SetComp) and is_point(node.elt):
            found.append(ast.unparse(node))
        elif isinstance(node, ast.DictComp) and is_point(node.key):
            found.append(ast.unparse(node))
    return found


def test_one_dedupe_site():
    """No src function keys a dict or set by tree points: the one dedupe
    is orbits._earlier_words, which holds words, and both enumerate_tree and
    hypothesis_check read it."""
    keyed = {f"{path.stem}.{func.name}": _keys_by_point(func)
             for path in SOURCES for func in _functions(ast.parse(path.read_text()))}
    assert {name: found for name, found in keyed.items() if found} == {}

    tree = ast.parse((ROOT / "src" / "orbitint" / "orbits.py").read_text())
    funcs = {func.name: func for func in tree.body if isinstance(func, ast.FunctionDef)}

    def names(func):
        return {node.id for node in ast.walk(func) if isinstance(node, ast.Name)}

    reading = sorted(name for name, func in funcs.items() if "_earlier_words" in names(func))
    assert reading == ["_hypothesis_witnesses", "enumerate_tree"]
    assert {"_hypothesis_witnesses", "enumerate_tree"} <= names(funcs["hypothesis_check"])
