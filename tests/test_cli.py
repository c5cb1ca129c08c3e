import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from orbitint.cli import main

CENSUS_CONFIG = {
    "system": {"maps": ["1/z^2"]},
    "point": "2",
    "places": ["inf"],
    "depth": 4,
    "word": {"letters": [1], "mode": "periodic"},
    "boundParameters": {"gamma": 8.0},
    "hminPeriodBound": 1,
}

GAMMA_CONFIG = {
    "system": {"maps": ["z^2"]},
    "point": "2",
    "pointA": "inf",
    "places": ["inf"],
    "epsilon": "1/2",
    "depth": 5,
    "word": {"letters": [1], "mode": "periodic"},
}


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def read_report(out_dir, prefix):
    matches = sorted(out_dir.glob(f"{prefix}_*.json"))
    assert matches, f"no {prefix} report written"
    return json.loads(matches[-1].read_text())


def test_census_subcommand(tmp_path):
    cfg = write_config(tmp_path, CENSUS_CONFIG)
    out = tmp_path / "reports"
    assert main(["census", "--config", cfg, "--out", str(out)]) == 0
    report = read_report(out, "census")
    assert report["count"] == 2
    assert [hit["x"] for hit in report["hits"]] == ["16", "65536"]
    assert report["bound"] >= report["count"]
    assert report["meta"]["subcommand"] == "census"
    assert report["meta"]["precisionBits"] == 128


def test_gamma_subcommand(tmp_path):
    cfg = write_config(tmp_path, GAMMA_CONFIG)
    out = tmp_path / "reports"
    assert main(["gamma", "--config", cfg, "--out", str(out)]) == 0
    report = read_report(out, "gamma")
    assert [m["verdict"] for m in report["members"]] == ["in"] * 6
    assert report["preperiodic"] is False


def test_orbit_and_canonical_and_bounds(tmp_path):
    payload = {
        "system": {"maps": ["z^2", "z^3"]},
        "point": "2",
        "places": ["inf"],
        "depth": 3,
        "word": {"letters": [1, 2], "mode": "periodic"},
        "boundParameters": {"gamma": 8.0},
    }
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "reports"
    assert main(["orbit", "--config", cfg, "--out", str(out)]) == 0
    orbit = read_report(out, "orbit")
    assert orbit["recordCount"] == 10  # deduped tree of depth 3
    csv_path = out / orbit["csv"]
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "word,n,x,y,height_nats"
    assert len(lines) == 11

    assert main(["canonical", "--config", cfg, "--out", str(out)]) == 0
    canonical = read_report(out, "canonical")
    assert canonical["estimate"]["lo"] <= 0.6931471805599453 <= canonical["estimate"]["hi"]
    assert canonical["estimate"]["certified"] is True

    assert main(["system-height", "--config", cfg, "--out", str(out)]) == 0
    sh = read_report(out, "system-height")
    assert sh["estimate"]["lo"] <= 0.6931471805599453 <= sh["estimate"]["hi"]

    assert main(["bounds", "--config", cfg, "--out", str(out)]) == 0
    bounds = read_report(out, "bounds")
    assert bounds["thresholdM"]["m"] >= 1
    assert bounds["censusBounds"]["treeCount"] >= 1
    assert bounds["parameters"] == {"roth_r1": 6.0, "roth_r2": 2.0, "roth_mu": 2.5, "c5": 1.0,
                                    "c6": 1.0, "c7": 1.0, "c10": 1.0, "gamma": 8.0}


def test_ratios_subcommand(tmp_path):
    payload = {
        "system": {"maps": ["(z^2-1)/(z^2+1)"]},
        "point": "2",
        "depth": 6,
        "word": {"letters": [1], "mode": "periodic"},
        "averagedLevel": 1,
    }
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "reports"
    assert main(["ratios", "--config", cfg, "--out", str(out)]) == 0
    report = read_report(out, "ratios")
    assert report["terms"][1]["ratio"] == pytest.approx(0.6826061944859854)
    assert report["averaged"]["totalWords"] == 1
    csv_lines = (out / report["csv"]).read_text().splitlines()
    assert csv_lines[0] == "n,a_bits,b_bits,ratio,verdict"


def test_exit_code_validation_error(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "system": {"maps": ["(z^2-1)/(z-1)"]},
        "point": "2",
    })
    assert main(["census", "--config", cfg, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    payload = json.loads(err.strip().splitlines()[-1])
    assert payload["kind"] == "validation"
    assert "z-1" in payload["error"]
    # Config integers are ints, never bools, strings or floats.
    for bad in ({"workLimits": {"nodeCap": "abc"}}, {"workLimits": {"bitCap": 1.5}},
                {"depth": True}, {"seed": True}):
        cfg = write_config(tmp_path, {**CENSUS_CONFIG, **bad})
        assert main(["census", "--config", cfg, "--out", str(tmp_path)]) == 2, bad
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["kind"] == "validation"
    # --workers is checked up front, as --precision is.
    cfg = write_config(tmp_path, CENSUS_CONFIG)
    for workers in ("-5", "0"):
        out = tmp_path / f"w{workers}"
        assert main(["census", "--config", cfg, "--out", str(out),
                     "--workers", workers]) == 2, workers
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["kind"] == "validation" and "--workers" in payload["error"]
        assert not out.exists()
    # A map entry is a string or an {"f", "g"} object.
    cfg = write_config(tmp_path, {"system": ["z^2", 5], "point": "2"})
    assert main(["census", "--config", cfg, "--out", str(tmp_path)]) == 2
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload["kind"] == "validation"


# An exponent too large to index the dense coefficient list, or too long for
# int() to read under the interpreter's digit limit, is a validation error
# that names the map, raised before anything is allocated.
@pytest.mark.parametrize("exponent, shown", [
    ("9223372036854775807", "exponent 9223372036854775807"),
    ("9" * 5000, "exponent of 5000 digits"),
], ids=["past-an-index", "past-the-digit-limit"])
def test_huge_exponent_is_a_validation_error(tmp_path, capsys, exponent, shown):
    cfg = write_config(tmp_path, {"system": {"maps": ["z^2", f"z^{exponent}+1"]},
                                  "point": "2"})
    out = tmp_path / "out"
    assert main(["census", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    payload = json.loads(err[-1])
    assert payload["kind"] == "validation" and len(err) == 1
    assert payload["error"].startswith(f"invalid map 'z^{exponent}+1': {shown} is too large")
    assert "set_int_max_str_digits" not in payload["error"]
    assert not out.exists()


def test_a_degree_past_any_list_is_a_validation_error(tmp_path, capsys):
    """z^(2^62) has a coefficient list longer than any list can be: the
    allocation is refused before anything is allocated, and the run exits 2
    with a message that names the map and its degree."""
    from orbitint.ratmap import MapError, parse_map

    exponent = 2 ** 62
    with pytest.raises(MapError, match=f"degree {exponent} is too large"):
        parse_map(f"z^{exponent}")
    cfg = write_config(tmp_path, {"system": {"maps": [f"z^{exponent}"]}, "point": "2"})
    assert main(["census", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    payload = json.loads(err[-1])
    assert payload["kind"] == "validation" and len(err) == 1
    assert payload["error"].startswith(f"invalid map 'z^{exponent}': polynomial 'z^{exponent}' "
                                       f"of degree {exponent} is too large")


def test_an_internal_fault_without_text_names_its_type(tmp_path, capsys, monkeypatch):
    """A MemoryError carries no text, so the internal line names its type."""
    import orbitint.cli as cli

    def refuse(path):
        return [0] * (2 ** 62 + 1)   # refused before anything is allocated

    monkeypatch.setattr(cli, "load_config", refuse)
    cfg = write_config(tmp_path, GAMMA_CONFIG)
    assert main(["gamma", "--config", cfg, "--out", str(tmp_path / "out")]) == 4
    err = capsys.readouterr().err.strip().splitlines()
    assert json.loads(err[-1]) == {"error": "MemoryError", "kind": "internal"}
    assert err[0].startswith("Traceback")


def _digits_int(digits: str) -> int:
    """The oracle: digits read 100 at a time by Horner's rule."""
    value = 0
    for i in range(0, len(digits), 100):
        chunk = digits[i:i + 100]
        value = value * 10 ** len(chunk) + int(chunk)
    return value


def test_config_integers_of_any_length(tmp_path, capsys):
    """Map coefficients (string and object form), point and pointA of 5,000
    digits are read, with the interpreter's digit limit left alone."""
    from orbitint.config import load_config

    limit = sys.get_int_max_str_digits()
    big = "9" * 5000
    value = 10 ** 5000 - 1
    configs = {
        "string": ({"system": {"maps": [f"z^2+{big}"]}, "point": "2"}, "map"),
        "object": ({"system": {"maps": [{"f": [big, "0", "1"], "g": ["1"]}]}, "point": "2"},
                   "map"),
        "point": ({"system": {"maps": ["z^2"]}, "point": f"-{big}/7"}, "point"),
        "pointA": ({"system": {"maps": ["z^2"]}, "point": "2", "pointA": f"[{big}:7]"},
                   "pointA"),
    }
    for name, (raw, field) in configs.items():
        cfg = write_config(tmp_path, {**raw, "heightDepth": 2}, f"{name}.json")
        config = load_config(cfg)
        got = {"map": lambda: config.system.maps[0].f[0],
               "point": lambda: (config.point.x, config.point.y),
               "pointA": lambda: (config.point_a.x, config.point_a.y)}[field]()
        # Compared as a bool: a failure's repr would meet the digit limit.
        assert bool(got == {"map": value, "point": (-value, 7), "pointA": (value, 7)}[field]), name
        assert main(["canonical", "--config", cfg, "--out", str(tmp_path / "out")]) == 0, name
    assert "set_int_max_str_digits" not in capsys.readouterr().err
    assert sys.get_int_max_str_digits() == limit


def test_config_numbers_of_any_length(tmp_path, capsys):
    """A JSON number of 5,000 digits reads as its quoted text: written
    unquoted, a point gives the quoted point's canonical report, and a
    depth is a validation error that names the field and the cause."""
    big = "9" * 5000
    text = json.dumps({"system": {"maps": ["z^2"]}, "point": "BIG", "depth": "DEPTH",
                       "heightDepth": 2})
    reports = []
    for name, point in (("quoted", f'"{big}"'), ("number", big)):
        path = tmp_path / f"{name}.json"
        path.write_text(text.replace('"BIG"', point).replace('"DEPTH"', "3"), encoding="utf-8")
        assert main(["canonical", "--config", str(path), "--out", str(tmp_path / name)]) == 0
        reports.append(read_report(tmp_path / name, "canonical"))
    assert reports[0] == reports[1]
    path = tmp_path / "depth.json"
    path.write_text(text.replace('"BIG"', "2").replace('"DEPTH"', big), encoding="utf-8")
    assert main(["census", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert json.loads(capsys.readouterr().err.splitlines()[-1]) == {
        "error": "depth is an integer of 5000 digits, too long to read", "kind": "validation"}


# An unquoted number too long for int() names its length, never its digits:
# an integer field refuses it as too long to read, and a field of names or
# map strings refuses it as it refuses a short number.
@pytest.mark.parametrize("edit, error", [
    ({"depth": "LITERAL"}, "depth is {}, too long to read"),
    ({"workLimits": {"bitCap": "LITERAL"}}, "bitCap is {}, too long to read"),
    ({"workLimits": {"nodeCap": "LITERAL"}}, "nodeCap is {}, too long to read"),
    ({"precisionBits": "LITERAL"}, "precisionBits is {}, too long to read"),
    ({"hminPeriodBound": "LITERAL"}, "hminPeriodBound is {}, too long to read"),
    ({"averagedLevel": "LITERAL"}, "averagedLevel is {}, too long to read"),
    ({"heightDepth": "LITERAL"}, "heightDepth is {}, too long to read"),
    ({"word": [1, "LITERAL"]}, "a word letter is {}, too long to read"),
    ({"word": {"letters": [1], "mode": "LITERAL"}}, "invalid word: {} is not a valid WordMode"),
    ({"places": ["inf", "LITERAL"]}, "places must be a list of place names"),
    ({"system": ["z^2", "LITERAL"]}, "map entries are strings or objects, got {}"),
], ids=["depth", "bitCap", "nodeCap", "precisionBits", "hminPeriodBound", "averagedLevel",
        "heightDepth", "letter", "mode", "places", "map"])
def test_long_json_literals_name_the_cause(tmp_path, capsys, edit, error):
    text = json.dumps({"system": ["z^2", "z^3"], "point": "2", "depth": 2, **edit})
    path = tmp_path / "config.json"
    for literal in ("7" * 5000, "-" + "7" * 5000):
        path.write_text(text.replace('"LITERAL"', literal), encoding="utf-8")
        assert main(["bounds", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and json.loads(err[0]) == {
            "error": error.format("an integer of 5000 digits"), "kind": "validation"}


@pytest.mark.parametrize("edit, error", [
    ({"places": ["inf", 7]}, "places must be a list of place names"),
    ({"system": ["z^2", 7]}, "map entries are strings or objects, got 7"),
], ids=["places", "map"])
def test_short_numbers_meet_the_same_rule(tmp_path, capsys, edit, error):
    cfg = write_config(tmp_path, {"system": ["z^2", "z^3"], "point": "2", **edit})
    assert main(["bounds", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert json.loads(capsys.readouterr().err.splitlines()[-1])["error"] == error


def test_read_int_agrees_with_horner():
    import random

    from orbitint.proj1 import read_fraction, read_int

    rng = random.Random(4300)
    for length in (1, 3999, 4000, 4001, 8000, 12345, 40001):
        digits = "".join(rng.choice("0123456789") for _ in range(length))
        for sign, factor in (("", 1), ("+", 1), ("-", -1)):
            assert read_int(sign + digits) == factor * _digits_int(digits)
        assert read_fraction(f" {digits}/{digits[::-1].lstrip('0') or '1'} ") == \
            Fraction(_digits_int(digits), _digits_int(digits[::-1].lstrip("0") or "1"))
    for text in ("12", " -7 ", "1_000", "0x10"):
        try:
            expected = int(text)
        except ValueError:
            with pytest.raises(ValueError):
                read_int(text)
        else:
            assert read_int(text) == expected
    with pytest.raises(ValueError):
        read_int("9" * 5000 + "a")
    with pytest.raises(ZeroDivisionError):
        read_fraction("3/0")


def test_exit_code_internal_fault(tmp_path, capsys, monkeypatch):
    # A fault of the program, here a CSV row the writer refuses, is neither a
    # validation error (2) nor a failed verify suite (1).
    import orbitint.cli as cli

    monkeypatch.setattr(cli, "_orbit_rows",
                        lambda records, prec: iter([("1,2", 0, "1", "1", "0.0")]))
    cfg = write_config(tmp_path, GAMMA_CONFIG)
    assert main(["orbit", "--config", cfg, "--out", str(tmp_path)]) == 4
    err = capsys.readouterr().err.strip().splitlines()
    payload = json.loads(err[-1])
    assert payload["kind"] == "internal" and "csv" in payload["error"].lower()
    assert err[0].startswith("Traceback") and "RuntimeError" in err[-2]
    # Neither the CSV nor its partial file is left behind.
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


def test_exit_code_unknown_key(tmp_path, capsys):
    # seed comes from --seed; a config key would only change the file hash.
    for bad in ({"bogus": 1}, {"workLimits": {"bitcap": 5}}, {"seed": 0}):
        cfg = write_config(tmp_path, {"system": {"maps": ["z^2"]},
                                      "point": "2", **bad})
        assert main(["census", "--config", cfg, "--out", str(tmp_path)]) == 2, bad
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["kind"] == "validation"


SUBCOMMANDS = ("orbit", "canonical", "system-height", "gamma", "census",
               "ratios", "bounds")
SHIPPED = Path(__file__).resolve().parents[1] / "configs"


def _cubic(f, g=(1,)):
    return {"system": {"maps": ["(z^2-1)/(z^2+1)", {"f": list(f), "g": list(g)}]}}


# json.dumps writes inf and nan as Infinity and NaN, which json.load reads
# back; 1e309 in a config reads as inf too.
@pytest.mark.parametrize("change", [
    {"word": "12"}, {"word": 5}, {"word": [1.5]}, {"word": [True]},
    {"word": {"letters": "12"}}, {"places": [2]}, {"places": None},
    {"system": {"maps": ["(z^2-1)/(z^2+1)", {"f": ["-2", "0", "0", "1"]}]}},
    {"system": {"maps": ["(z^2-1)/(z^2+1)", {"f": ["-2", "0", "0", "1"], "g": None}]}},
    _cubic([None, 0, 0, 1]), _cubic([[-2], 0, 0, 1]), _cubic([{}, 0, 0, 1]),
    _cubic([math.inf, 0, 0, 1]), _cubic([-2, 0, 0, 1], [True]),
    {"boundParameters": {"gamma": math.inf}}, {"boundParameters": {"gamma": math.nan}},
    {"boundParameters": {"roth_mu": math.inf}}, {"boundParameters": {"roth_r1": math.inf}},
    {"boundParameters": {"c10": math.nan}}, {"boundParameters": {"gamma": True}},
    {"system": {"maps": ["(z^2-1)/(z^2+1)", {"f": ["1/0"], "g": ["1"]}]}},
], ids=["word-string", "word-int", "letter-float", "letter-bool",
        "letters-string", "place-int", "places-null", "map-without-g", "map-g-null",
        "coeff-null", "coeff-list", "coeff-object", "coeff-infinite", "coeff-bool",
        "gamma-infinite", "gamma-nan", "mu-infinite", "r1-infinite", "c10-nan",
        "gamma-bool", "coeff-zero-denominator"])
def test_malformed_config_values_are_validation_errors(tmp_path, capsys, change):
    raw = json.loads((SHIPPED / "bounds_mixed.json").read_text(encoding="utf-8"))
    cfg = write_config(tmp_path, {**raw, **change})
    out = tmp_path / "out"
    for sub in SUBCOMMANDS:
        assert main([sub, "--config", cfg, "--out", str(out)]) == 2, sub
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["kind"] == "validation", sub
    assert not out.exists()


# Inputs whose float report values leave the float range: JSON has no inf,
# so each is a validation error that names its cause, and no file is
# written.  A value that reaches the report names its field.  A finite
# gamma on a two-map system once built k^M for M near gamma (2^2001 here;
# near 2^(10^308) at gamma = 1e308).
@pytest.mark.parametrize("sub, name, change, error", [
    ("bounds", "bounds_mixed", {"boundParameters": {"c10": 1e308}},
     "report field gammaBound.maxN is inf"),
    ("census", "census_reciprocal_square", {"boundParameters": {"gamma": 1e308}},
     "report field boundDetail.singleOrbit is inf"),
    ("census", "bounds_mixed", {"boundParameters": {"gamma": 1e308}}, "gamma is too large"),
    ("census", "bounds_mixed", {"boundParameters": {"gamma": 2000.0}}, "gamma is too large"),
    ("bounds", "bounds_mixed", {"epsilon": "1e-310"}, "epsilon is too small"),
    ("bounds", "bounds_mixed", {"epsilon": "1e-400"}, "epsilon is too small"),
], ids=["c10-max-n", "gamma-single-orbit", "gamma-tree-count-huge", "gamma-tree-count",
        "epsilon-subnormal", "epsilon-underflow"])
def test_reports_out_of_float_range_are_validation_errors(tmp_path, capsys, sub, name, change,
                                                          error):
    raw = json.loads((SHIPPED / f"{name}.json").read_text(encoding="utf-8"))
    cfg = write_config(tmp_path, {**raw, **change})
    out = tmp_path / "out"
    assert main([sub, "--config", cfg, "--out", str(out)]) == 2
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload["kind"] == "validation"
    assert payload["error"].startswith(error)
    assert not out.exists()


def test_nonfinite_field_follows_report_key_order():
    from orbitint.cli import _nonfinite_field

    inf = float("inf")
    assert _nonfinite_field({"b": inf, "a": [1.0, {"d": inf, "c": -inf}]}) == ("a.1.c", -inf)
    path, value = _nonfinite_field({"a": [0.5, "inf"], "b": {"c": 1, "d": float("nan")}})
    assert path == "b.d" and value != value


def test_ratios_stop_at_infinity_before_the_cap(tmp_path):
    """1/(z^2 - 4) sends 2 to infinity, where the series stops: no point
    past it is built, so the later points, which pass a 64-bit cap within
    12 steps, never stop the run."""
    cfg = write_config(tmp_path, {"system": {"maps": ["1/(z^2-4)"]}, "point": "2",
                                  "depth": 12, "workLimits": {"bitCap": 64}})
    out = tmp_path / "reports"
    assert main(["ratios", "--config", cfg, "--out", str(out)]) == 0
    report = read_report(out, "ratios")
    assert report["terms"] == [{"n": 0, "ratio": None, "verdict": "small-denominator"},
                               {"n": 1, "ratio": None, "verdict": "infinity"}]
    assert (out / report["csv"]).read_text().splitlines() == [
        "n,a_bits,b_bits,ratio,verdict", "0,2,1,,small-denominator", "1,0,0,,infinity"]


def test_exit_code_work_limit(tmp_path):
    payload = dict(GAMMA_CONFIG)
    payload["system"] = {"maps": ["z^2", "z^3"]}
    payload["word"] = {"letters": [1, 2], "mode": "periodic"}
    payload["depth"] = 10
    payload["workLimits"] = {"nodeCap": 50, "bitCap": 1000000}
    cfg = write_config(tmp_path, payload)
    assert main(["orbit", "--config", cfg, "--out", str(tmp_path)]) == 3


def test_hmin_scan_work_limit(tmp_path, capsys):
    """The hmin scan counts against nodeCap before it starts: 126 words of
    period <= 6 times heightDepth 8 is over 100, though the trees fit."""
    cfg = write_config(tmp_path, {
        "system": ["z^2", "z^3"], "point": "2", "depth": 2, "places": ["inf"],
        "hminPeriodBound": 6, "heightDepth": 8, "boundParameters": {},
        "workLimits": {"nodeCap": 100},
    })
    for sub in ("census", "bounds"):
        assert main([sub, "--config", cfg, "--out", str(tmp_path)]) == 3, sub
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["kind"] == "work-limit" and "hmin scan" in payload["error"]


def test_census_checks_both_caps_before_the_tree(tmp_path, capsys, monkeypatch):
    """census rejects an hmin scan over nodeCap without walking the tree, and a
    config over both caps still reports the tree cap first."""
    from pathlib import Path

    from orbitint import cli

    def no_walk(*args, **kwargs):
        raise AssertionError("the census tree was walked")

    monkeypatch.setattr(cli, "s_integral_census", no_walk)
    raw = json.loads((Path(__file__).resolve().parents[1] / "configs"
                      / "bounds_mixed.json").read_text(encoding="utf-8"))
    cfg = write_config(tmp_path, dict(raw, hminPeriodBound=20))
    for depth, error in (
            (11, "hmin scan of 16777200 nodes exceeds the node cap 1000000"),
            (20, "tree of 2097151 nodes exceeds the node cap 1000000")):
        assert main(["census", "--config", cfg, "--depth", str(depth),
                     "--out", str(tmp_path)]) == 3
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload == {"error": error, "kind": "work-limit"}


def test_map_objects_match_map_strings(tmp_path):
    """The README's map object for z^3 gives the census of the string form."""
    base = {"point": "2", "places": ["inf", "p2"], "depth": 4}
    reports = []
    for maps in (["z^2", {"f": ["0", "0", "0", "1"], "g": ["1"]}], ["z^2", "z^3"]):
        out = tmp_path / str(len(reports))
        cfg = write_config(tmp_path, {"system": {"maps": maps}, **base})
        assert main(["census", "--config", cfg, "--out", str(out)]) == 0
        report = read_report(out, "census")
        del report["meta"]
        reports.append(report)
    assert reports[0] == reports[1] and reports[0]["count"] > 0


def test_deep_one_map_tree(tmp_path):
    """A one-map tree is as deep as its depth; the walk keeps its nodes on
    an explicit stack, so depth is not bounded by the recursion limit."""
    depth = 3000
    assert depth > sys.getrecursionlimit()
    cfg = write_config(tmp_path, {"system": {"maps": ["z^2"]}, "point": "1",
                                  "depth": depth})
    out = tmp_path / "reports"
    for sub in ("census", "system-height", "orbit"):
        assert main([sub, "--config", cfg, "--out", str(out)]) == 0, sub
    assert read_report(out, "census")["count"] == 0
    assert read_report(out, "system-height")["estimate"]["depth"] == depth
    assert read_report(out, "orbit")["hypotheses"]["depthChecked"] == depth


def test_depth_and_precision_overrides(tmp_path):
    cfg = write_config(tmp_path, GAMMA_CONFIG)
    out = tmp_path / "reports"
    assert main(["gamma", "--config", cfg, "--out", str(out),
                 "--depth", "2", "--precision", "96"]) == 0
    report = read_report(out, "gamma")
    assert len(report["members"]) == 3
    assert report["meta"]["precisionBits"] == 96


def test_worker_determinism(tmp_path):
    payload = {
        "system": {"maps": ["z^2", "z^3"]},
        "point": "2",
        "places": ["inf"],
        "depth": 4,
        "word": {"letters": [1], "mode": "periodic"},
    }
    cfg = write_config(tmp_path, payload)
    blobs = {}
    for workers in (1, 2, 8):
        out = tmp_path / f"w{workers}"
        assert main(["orbit", "--config", cfg, "--out", str(out),
                     "--workers", str(workers)]) == 0
        files = sorted(out.iterdir())
        blobs[workers] = [(f.name, f.read_bytes()) for f in files]
    assert blobs[1] == blobs[2] == blobs[8]


def test_workers_clamped_to_generator_count(tmp_path, monkeypatch):
    import concurrent.futures
    import os

    payload = dict(CENSUS_CONFIG, system={"maps": ["z^2", "z^3"]})
    cfg = write_config(tmp_path, payload)
    pool_sizes = []

    class InlinePool:
        def __init__(self, max_workers):
            pool_sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    blobs = {}
    for workers in (1, 3):
        out = tmp_path / f"w{workers}"
        for sub in ("orbit", "system-height", "census"):
            assert main([sub, "--config", cfg, "--out", str(out),
                         "--workers", str(workers)]) == 0
        blobs[workers] = [(f.name, f.read_bytes()) for f in sorted(out.iterdir())]
    assert blobs[1] == blobs[3]
    assert pool_sizes and max(pool_sizes) <= 2


def test_verify_subcommand(tmp_path, capsys):
    assert main(["verify", "--out", str(tmp_path), "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[-1] == (f"verify: 17/17 suites passed -> "
                                    f"{tmp_path / 'verify_seed1.json'}")
    report = json.loads((tmp_path / "verify_seed1.json").read_text())
    assert all(r["passed"] for r in report["results"])
    assert report["meta"]["precisionBits"] == 128


def test_verify_failed_suite_exits_1(tmp_path, capsys, monkeypatch):
    """A failed suite still writes its report; the run exits 1."""
    import orbitint.cli

    monkeypatch.setattr(orbitint.cli, "run_all", lambda seed, prec: [
        ("good", True, "fine"), ("bad", False, "broken")])
    assert main(["verify", "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "good  pass  fine", "bad   FAIL  broken",
        f"verify: 1/2 suites passed -> {tmp_path / 'verify_seed0.json'}"]
    report = json.loads((tmp_path / "verify_seed0.json").read_text())
    assert [r["passed"] for r in report["results"]] == [True, False]


def test_verify_rejects_low_precision(tmp_path, capsys):
    """verify applies the config rule: precision below 16 bits exits 2."""
    for prec in ("-3", "0", "8"):
        assert main(["verify", "--out", str(tmp_path), "--precision", prec]) == 2
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["kind"] == "validation"
    assert not (tmp_path / "verify_seed0.json").exists()


def test_verify_has_no_config_options(tmp_path):
    for flag in ("--depth", "--workers"):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--out", str(tmp_path), flag, "2"])
        assert exc.value.code == 2


@pytest.mark.parametrize("argv, message", [
    (["verify", "--depth", "2"], "unrecognized arguments: --depth 2"),
    (["census", "--config", "c.json", "--workers", "abc"],
     "argument --workers: invalid int value: 'abc'"),
    ([], "the following arguments are required: subcommand"),
])
def test_usage_errors_end_with_the_json_line(capsys, argv, message):
    """argparse's usage errors exit 2 and end stderr with the JSON line of
    a validation error."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: orbitint")
    assert json.loads(err.splitlines()[-1]) == {"error": message, "kind": "validation"}


@pytest.mark.parametrize("argv", [["census", "--config", "c.json", "--depth"],
                                  ["census", "--config", "c.json", "--workers"],
                                  ["verify", "--seed"], ["verify", "--precision"]])
@pytest.mark.parametrize("sign", ["", "-"])
def test_a_long_integer_option_names_its_length(capsys, argv, sign):
    """An integer option too long for int() exits 2 with a short message
    that names its length, as a config field does, and never its digits."""
    with pytest.raises(SystemExit) as exc:
        main(argv + [sign + "7" * 5000])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert len(err) < 600 and "7777" not in err
    assert json.loads(err.splitlines()[-1]) == {
        "error": f"argument {argv[-1]}: an integer of 5000 digits, too long to read",
        "kind": "validation"}


def test_a_long_text_for_an_integer_option_is_not_echoed(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--seed", "x" * 5000])
    assert exc.value.code == 2
    assert json.loads(capsys.readouterr().err.splitlines()[-1]) == {
        "error": "argument --seed: invalid int value: a text of 5000 characters",
        "kind": "validation"}


def test_help_exits_0_without_a_json_line(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: orbitint") and captured.err == ""


def test_canonical_has_no_depth_option(tmp_path):
    """canonical walks heightDepth steps, so it takes no --depth."""
    cfg = write_config(tmp_path, GAMMA_CONFIG)
    with pytest.raises(SystemExit) as exc:
        main(["canonical", "--config", cfg, "--out", str(tmp_path), "--depth", "2"])
    assert exc.value.code == 2


def test_no_census_bound_without_the_archimedean_place(tmp_path, capsys):
    """census refuses an S without inf, so bounds reports no census bound
    for it; its hmin block is that of S with inf."""
    config = json.loads((Path(__file__).resolve().parents[1] / "configs"
                         / "bounds_mixed.json").read_text(encoding="utf-8"))
    out = {places: tmp_path / places for places in ("p2", "inf-p2")}
    cfg = write_config(tmp_path, {**config, "places": ["p2"]}, "p2.json")
    assert main(["census", "--config", cfg, "--out", str(out["p2"])]) == 2
    assert "S must contain the archimedean place" in capsys.readouterr().err
    assert main(["bounds", "--config", cfg, "--out", str(out["p2"])]) == 0
    cfg = write_config(tmp_path, config, "inf-p2.json")
    assert main(["bounds", "--config", cfg, "--out", str(out["inf-p2"])]) == 0
    without, with_inf = read_report(out["p2"], "bounds"), read_report(out["inf-p2"], "bounds")
    assert "censusBounds" not in without and "censusBounds" in with_inf
    assert without["hmin"] == with_inf["hmin"]
    assert "gammaBound" in without


def test_census_bound_follows_cmode(tmp_path):
    """census and bounds derive the census bound from one hmin scan, under
    the run's cMode constants."""
    cfg = write_config(tmp_path, {
        "system": ["z^2-5"], "point": "3", "places": ["inf", "p2"],
        "hminPeriodBound": 1, "heightDepth": 8,
        "boundParameters": {"gamma": 8}, "cMode": "empirical",
    })
    out = tmp_path / "reports"
    assert main(["census", "--config", cfg, "--out", str(out)]) == 0
    assert main(["bounds", "--config", cfg, "--out", str(out)]) == 0
    census, bounds = read_report(out, "census"), read_report(out, "bounds")
    assert census["boundDetail"] == bounds["censusBounds"]
    assert census["bound"] == bounds["censusBounds"]["treeCount"]


def test_shipped_configs_run_everywhere(tmp_path):
    """Every shipped config under every subcommand, and `verify --seed 0`,
    write the reports pinned in report_digests.json (sha256 by file name);
    the tree walkers write the same reports under --workers 2.  A change that
    alters reports on purpose re-records that file and lists the changed
    fields in CHANGES.md."""
    import hashlib
    from pathlib import Path

    def digests(out):
        return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                for path in sorted(out.iterdir())}

    here = Path(__file__).resolve().parent
    configs = sorted((here.parent / "configs").glob("*.json"))
    assert len(configs) >= 5
    out, out2 = tmp_path / "reports", tmp_path / "reports2"
    for cfg in configs:
        for sub in ("orbit", "canonical", "system-height", "gamma", "census",
                    "ratios", "bounds"):
            code = main([sub, "--config", str(cfg), "--out", str(out)])
            assert code == 0, f"{sub} failed on {cfg.name}"
        for sub in ("orbit", "system-height", "census"):
            code = main([sub, "--config", str(cfg), "--out", str(out2), "--workers", "2"])
            assert code == 0, f"{sub} --workers 2 failed on {cfg.name}"
    assert main(["verify", "--out", str(out), "--seed", "0"]) == 0
    expected = json.loads((here / "report_digests.json").read_text())
    assert digests(out) == expected
    parallel = digests(out2)
    assert len(parallel) == 4 * len(configs)
    assert parallel == {name: expected[name] for name in parallel}


# sha256 of the system-height report on bounds_mixed at --depth 11, by
# --precision, as written when every leaf was built exactly.
DEPTH_11_DIGESTS = {
    53: "3d187ad627dc8336ed3b5d9a135d55794885d8eb15884551fe3871bce3a7737e",
    128: "2678fd91f370085bb9664ee9e44673c4bfaf8b74bc59b31baa31676de7f4aa52",
    256: "b795381d3d9e0b5b925c3c470463dd09acb1ca09d4a41a0e8b0c1757f0fd9528",
}


@pytest.mark.parametrize("prec", sorted(DEPTH_11_DIGESTS))
def test_system_height_depth_11_bytes_at_each_precision(tmp_path, prec):
    """--precision is the precision of the leaf boxes and of the endpoints;
    at each one the report keeps its bytes, under one worker and two."""
    import hashlib
    from pathlib import Path

    cfg = Path(__file__).resolve().parents[1] / "configs" / "bounds_mixed.json"
    for workers in (1, 2):
        out = tmp_path / f"reports{workers}"
        assert main(["system-height", "--config", str(cfg), "--depth", "11", "--precision",
                     str(prec), "--workers", str(workers), "--out", str(out)]) == 0
        (report,) = out.glob("system-height_*.json")
        assert hashlib.sha256(report.read_bytes()).hexdigest() == DEPTH_11_DIGESTS[prec]


def test_system_height_depth_12_bytes(tmp_path):
    """bounds_mixed at --depth 12 keeps the bytes it had when every node
    above the leaves was built."""
    import hashlib

    out = tmp_path / "reports"
    assert main(["system-height", "--config", str(SHIPPED / "bounds_mixed.json"),
                 "--depth", "12", "--out", str(out)]) == 0
    (report,) = out.glob("system-height_*.json")
    assert hashlib.sha256(report.read_bytes()).hexdigest() == (
        "3eae20d55af5bed12f1bbd0ffc45ba6e01b4eddc321ee833ee1174555898bab8")


@pytest.mark.parametrize("point, lo, hi", [
    ("3", 0.9888479494173272, 0.9889117636302506),
    ("3/2", 0.9985697803315452, 0.9986335945444685),
])
def test_system_height_depth_11_on_bounds_mixed(tmp_path, point, lo, hi):
    from pathlib import Path

    path = Path(__file__).resolve().parents[1] / "configs" / "bounds_mixed.json"
    raw = {**json.loads(path.read_text(encoding="utf-8")), "point": point}
    out = tmp_path / "reports"
    assert main(["system-height", "--config", write_config(tmp_path, raw),
                 "--depth", "11", "--out", str(out)]) == 0
    estimate = read_report(out, "system-height")["estimate"]
    assert (estimate["lo"], estimate["hi"]) == (lo, hi)


# sha256 of the census report at --depth 11, by config, as written when every
# node was built; at this depth the leaf screen and the twig test both run.
CENSUS_DEPTH_11_DIGESTS = {
    "bounds_mixed": "2af5c22292f0e45af242e5ee08ff8061e91671a59b3d6f21837c69834b52835a",
    "census_hypothesis_pair": "813ab3afcbe4fed37528ab1409139b8f8aea8315d2a1e0eaf8a1d8962af78d40",
}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("name", sorted(CENSUS_DEPTH_11_DIGESTS))
def test_census_depth_11_bytes(tmp_path, name, workers):
    import hashlib
    from pathlib import Path

    cfg = Path(__file__).resolve().parents[1] / "configs" / f"{name}.json"
    out = tmp_path / "reports"
    assert main(["census", "--config", str(cfg), "--depth", "11",
                 "--workers", str(workers), "--out", str(out)]) == 0
    (report,) = out.glob("census_*.json")
    assert hashlib.sha256(report.read_bytes()).hexdigest() == CENSUS_DEPTH_11_DIGESTS[name]


# sha256 of the census report at --depth 13, by config, as written by a census
# that built every node more than two levels above the leaves.
CENSUS_DEPTH_13_DIGESTS = {
    "bounds_mixed": "f5423a40ddded49f87e6c05ea1a4d685d96658ca47e4f7c4b135f591e46f6d5f",
    "census_hypothesis_pair": "446f9291608854a98bf21ae07f5598c93a7bd72eac04c7a3d1e48a097fabe2e9",
}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("name", sorted(CENSUS_DEPTH_13_DIGESTS))
def test_census_depth_13_bytes(tmp_path, name, workers):
    import hashlib

    out = tmp_path / "reports"
    assert main(["census", "--config", str(SHIPPED / f"{name}.json"), "--depth", "13",
                 "--workers", str(workers), "--out", str(out)]) == 0
    (report,) = out.glob("census_*.json")
    assert hashlib.sha256(report.read_bytes()).hexdigest() == CENSUS_DEPTH_13_DIGESTS[name]


# sha256 of the orbit report and CSV on bounds_mixed from pointA 3 at
# --depth 10, as written when each ramification index came from synthetic
# division of the fiber form over the image point.
WANDERING_DIGESTS = {
    "json": "ab92fe5606043f4a86685f18b1213c0efbc533880185ac716aa3dd08fe600390",
    "csv": "9c3d9d01ceec850f651a698eaab773f63adc09e0fe666062717b30cbf8251e4e",
}


def test_orbit_scans_a_wandering_tree(tmp_path):
    """From pointA 3 no node repeats and none is totally ramified, so the
    hypothesis scan asks every map about all 2,047 nodes."""
    import hashlib

    raw = json.loads((SHIPPED / "bounds_mixed.json").read_text(encoding="utf-8"))
    cfg = write_config(tmp_path, {**raw, "pointA": "3"})
    out = tmp_path / "reports"
    assert main(["orbit", "--config", cfg, "--depth", "10", "--out", str(out)]) == 0
    assert read_report(out, "orbit")["hypotheses"] == {
        "depthChecked": 10, "repeatedPointFree": True, "totallyRamifiedFree": True}
    for suffix, digest in WANDERING_DIGESTS.items():
        (path,) = out.glob(f"orbit_*.{suffix}")
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest, suffix


def test_verify_deterministic_per_seed(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["verify", "--out", str(out1), "--seed", "7"]) == 0
    assert main(["verify", "--out", str(out2), "--seed", "7"]) == 0
    blob1 = (out1 / "verify_seed7.json").read_bytes()
    assert blob1 == (out2 / "verify_seed7.json").read_bytes()
