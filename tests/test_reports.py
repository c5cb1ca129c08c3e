"""Reports under default interpreter settings: integers of any size are
written in linear time (decimal up to proj1.HEX_BITS bits, hex above) and
read back, CSV lines are the bytes csv.writer would write, a bit cap that
cut a height short says so in the report, and a certified zero height has
lower end 0.0."""

import csv
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import orbitint.cli as cli
from orbitint.cli import (_cmd_ratios, _orbit_rows, _point_json, _record_json,
                          _write_csv, main)
from orbitint.config import load_config
from orbitint.errors import WorkLimitExceeded
from orbitint.integrality import s_integral_census
from orbitint.logvals import DEFAULT_PRECISION
from orbitint.orbits import WorkLimits, enumerate_tree
from orbitint.places import PlaceSet
from orbitint.proj1 import HEX_BITS, ProjPoint, int_text, normalize
from orbitint.ratmap import MapSystem, make_map
from orbitint.verify import random_system

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


@pytest.fixture(autouse=True)
def default_int_digits():
    """The interpreter's default int-to-decimal limit (4,300 digits), restored
    afterwards, so no earlier test's setting can hide a failure."""
    if not hasattr(sys, "set_int_max_str_digits"):  # Python < 3.11: no limit
        yield None
        return
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
    try:
        yield sys.int_info.default_max_str_digits
    finally:
        sys.set_int_max_str_digits(old)


def test_int_text_is_decimal_up_to_hex_bits_and_hex_above():
    top = (1 << HEX_BITS) - 1
    assert top.bit_length() == HEX_BITS
    for n in (0, 7, -7, top, -top):
        assert int_text(n) == str(n)
    assert len(int_text(top)) < 2470
    # Every top-nibble width past HEX_BITS, so the digits start with and
    # without a leading zero of the byte form.
    wide = [(1 << bits) - 1 for bits in range(HEX_BITS + 1, HEX_BITS + 9)]
    for n in [top + 1, 3 ** 100_000, *wide]:
        for signed in (n, -n):
            assert int_text(signed) == hex(signed) and int(int_text(signed), 16) == signed
    assert int_text(-(top + 1)).startswith("-0x")


def test_point_json_round_trip_at_any_size():
    big = (1 << 99_999) + 1  # 100,000 bits, prime to 5 and 7
    assert big.bit_length() == 100_000
    for p in (ProjPoint(big, 1), ProjPoint(-big, 7), ProjPoint(-5, big),
              ProjPoint(2, 3), ProjPoint(1, 0)):
        payload = json.loads(json.dumps(_point_json(p)))
        assert ProjPoint(int(payload["x"], 0), int(payload["y"], 0)) == p
        assert str(p) == f"[{payload['x']}:{payload['y']}]"
    assert _point_json(ProjPoint(-big, 7))["x"].startswith("-0x")


def test_census_of_huge_points_serializes():
    # 3^(2^14) has 7,818 decimal digits, past the default limit.
    z2 = MapSystem([make_map([0, 0, 1], [1])])
    census = s_integral_census(z2, ProjPoint(3, 1), PlaceSet.parse(["inf"]), 14)
    hits = json.loads(json.dumps([_record_json(word, point) for word, point in census]))
    last = hits[-1]
    assert last["n"] == 14 and int(last["x"], 16) == 3 ** (1 << 14)


def test_node_cap_message_fits_any_tree():
    """A count over the cap by more than 64 bits is never built: the message
    names its bound k^exponent, whatever the depth.  Nearer the cap it names
    the exact count."""
    for depth in (10 ** 5, 10 ** 8):
        with pytest.raises(WorkLimitExceeded) as info:
            WorkLimits().check_nodes(2, depth)
        assert str(info.value) == f"tree of at least 2^{depth} nodes exceeds the node cap 1000000"
        assert info.value.nodes is None
    with pytest.raises(WorkLimitExceeded) as info:
        WorkLimits().check_scan(2, 3 * 10 ** 7, 8)
    assert str(info.value) == "hmin scan of at least 2^30000000 nodes exceeds the node cap 1000000"
    with pytest.raises(WorkLimitExceeded) as info:
        WorkLimits().check_nodes(2, 84)
    assert info.value.nodes == 2 ** 85 - 1
    assert str(info.value) == f"tree of {2 ** 85 - 1} nodes exceeds the node cap 1000000"


def test_cli_orbit_with_huge_coordinates(tmp_path, default_int_digits):
    cfg = tmp_path / "z2.json"
    cfg.write_text(json.dumps({"system": {"maps": ["z^2"]}, "point": "3",
                               "depth": 14}), encoding="utf-8")
    out = tmp_path / "reports"
    assert main(["orbit", "--config", str(cfg), "--out", str(out)]) == 0
    if default_int_digits is not None:
        assert sys.get_int_max_str_digits() == default_int_digits
    report = json.loads(next(out.glob("orbit_*.json")).read_text(encoding="utf-8"))
    assert report["meta"]["reportSchema"] == 2
    with open(out / report["csv"], newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["x"].startswith("0x") for row in rows] == [False] * 13 + [True] * 2
    assert int(rows[-1]["x"], 16) == 3 ** (1 << 14) and rows[-1]["y"] == "1"


def test_bounds_report_flags_a_bit_cap_cut(tmp_path):
    # census_hypothesis_pair's orbits pass 200 bits before hmin's depth 8.
    raw = json.loads((CONFIGS / "census_hypothesis_pair.json").read_text(encoding="utf-8"))
    raw["workLimits"] = {"bitCap": 200}
    cfg = tmp_path / "capped.json"
    cfg.write_text(json.dumps(raw), encoding="utf-8")
    out = tmp_path / "reports"
    assert main(["bounds", "--config", str(cfg), "--out", str(out)]) == 0
    report = json.loads(next(out.glob("bounds_*.json")).read_text(encoding="utf-8"))
    assert report["hmin"]["depth"] == 5 and report["hmin"]["targetMet"] is False
    assert report["heightP"]["targetMet"] is False
    assert report["heightA"]["targetMet"] is True


def test_certified_zero_height_reports_zero_lo(tmp_path):
    # 1 is fixed by z^2: its canonical height is exactly 0, and the lower
    # end is written as 0.0, never as a negative float.
    cfg = tmp_path / "fixed.json"
    cfg.write_text(json.dumps({"system": ["z^2"], "point": "1",
                               "word": {"letters": [1], "mode": "periodic"}}),
                   encoding="utf-8")
    out = tmp_path / "reports"
    assert main(["canonical", "--config", str(cfg), "--out", str(out)]) == 0
    report = json.loads(next(out.glob("canonical_*.json")).read_text(encoding="utf-8"))
    assert report["estimate"]["lo"] == 0.0 and report["estimate"]["hi"] >= 0.0


def _csv_module_bytes(path: Path, header: tuple, rows) -> bytes:
    """The reference: the same table through csv.writer."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    return path.read_bytes()


def test_orbit_csv_bytes_match_the_csv_module(tmp_path):
    # Two cubic maps from -3/2: negative coordinates, and leaves past
    # HEX_BITS written as "0x..." and "-0x...".
    system = random_system(random.Random(5), k_max=2, max_degree=3)
    records = enumerate_tree(system, normalize(Fraction(-3, 2)), 8)
    header = ("word", "n", "x", "y", "height_nats")
    rows = list(_orbit_rows(records, DEFAULT_PRECISION))
    xs = [row[2] for row in rows]
    assert any(x.startswith("-0x") for x in xs)
    assert any(x.startswith("0x") for x in xs)
    assert any(x.startswith("-") and "0x" not in x for x in xs)
    _write_csv(tmp_path / "fast.csv", header, iter(rows))
    assert ((tmp_path / "fast.csv").read_bytes()
            == _csv_module_bytes(tmp_path / "ref.csv", header, rows))


def test_ratios_csv_bytes_match_the_csv_module(tmp_path, monkeypatch):
    # The orbit of 2 starts at 2/1, whose ratio field is empty.  The handler
    # writes its table; the rows it hands the writer are kept for the
    # reference.
    tables = []

    def keep_rows(path, header, rows):
        tables.append((header, list(rows)))
        return _write_csv(path, header, tables[-1][1])

    monkeypatch.setattr(cli, "_write_csv", keep_rows)
    payload, _ = _cmd_ratios(load_config(CONFIGS / "ratios_quadratic.json"), 1,
                             tmp_path / "fast.csv")
    [(header, rows)] = tables
    assert payload["csv"] == "fast.csv"
    assert any(row[3] == "" for row in rows) and any(row[3] != "" for row in rows)
    assert ((tmp_path / "fast.csv").read_bytes()
            == _csv_module_bytes(tmp_path / "ref.csv", header, rows))


@pytest.mark.parametrize("row", [
    ("1", 1, "2,3"), ("1", 1, 'say "x"'), ("1", 1, "a\nb"), ("1", 1, "a\rb"),
    ("1", 1), ("1", 1, 2, 3), ("1", 1, None)])
def test_csv_writer_refuses_a_field_csv_would_change(tmp_path, row):
    with pytest.raises(RuntimeError):
        _write_csv(tmp_path / "bad.csv", ("a", "b", "c"), [("0", 0, "ok"), row])
