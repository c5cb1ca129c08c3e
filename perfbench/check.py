"""Value-level check of one workload's reports against recorded references.

Values are compared, not bytes: coordinates are parsed as integers whether
written in decimal or as `0x...` hex, then hashed in a fixed binary form, so
a report-format change passes while a changed hit, verdict or height fails.
The checker sets its own int-string limit while parsing and does not depend
on interpreter settings made by the program under test.
"""

from __future__ import annotations

import csv
import hashlib
import json
import sys
from contextlib import contextmanager
from pathlib import Path

REFERENCES = Path(__file__).with_name("references.json")
VERDICT_LETTERS = {"in": "I", "out": "O", "ambiguous": "?"}


@contextmanager
def unlimited_int_digits():
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def parse_int(value) -> int:
    """An integer written as a JSON number, a decimal string or a 0x... string."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    text = str(value).strip()
    if "0x" in text[:3].lower():
        return int(text, 16)
    return int(text, 10)


class RecordHash:
    """SHA-256 over (word, n, x, y) records with integer coordinates."""

    def __init__(self):
        self._h = hashlib.sha256()
        self.count = 0

    def add(self, word, n, x, y) -> None:
        self._h.update(f"{','.join(str(c) for c in word)}|{int(n)}|".encode())
        for v in (parse_int(x), parse_int(y)):
            raw = v.to_bytes(v.bit_length() // 8 + 1, "big", signed=True)
            self._h.update(len(raw).to_bytes(8, "big") + raw)
        self.count += 1

    def hexdigest(self) -> str:
        return self._h.hexdigest()


def _one(out_dir: Path, pattern: str) -> Path:
    found = sorted(out_dir.glob(pattern))
    if len(found) != 1:
        raise ValueError(f"expected one {pattern} in the report directory, found {len(found)}")
    return found[0]


def _load(out_dir: Path, pattern: str) -> dict:
    return json.loads(_one(out_dir, pattern).read_text(encoding="utf-8"))


def _census(out_dir: Path) -> dict:
    report = _load(out_dir, "census_*.json")
    hits = RecordHash()
    for hit in report["hits"]:
        hits.add(hit["word"], hit["n"], hit["x"], hit["y"])
    return {"count": int(report["count"]), "hitCount": hits.count,
            "hitsSha256": hits.hexdigest()}


def _orbit(out_dir: Path) -> dict:
    report = _load(out_dir, "orbit_*.json")
    rows = RecordHash()
    with open(out_dir / report["csv"], newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            rows.add([int(c) for c in row["word"]], row["n"], row["x"], row["y"])
    return {"recordCount": int(report["recordCount"]), "csvRows": rows.count,
            "rowsSha256": rows.hexdigest()}


def _gamma(out_dir: Path) -> dict:
    report = _load(out_dir, "gamma_*.json")
    verdicts = "".join(VERDICT_LETTERS[m["verdict"]] for m in report["members"])
    return {"verdicts": verdicts, "preperiodic": bool(report["preperiodic"])}


def _system_height(out_dir: Path) -> dict:
    est = _load(out_dir, "system-height_*.json")["estimate"]
    return {"lo": float(est["lo"]), "hi": float(est["hi"])}


EXTRACTORS = {"census": _census, "orbit": _orbit, "gamma": _gamma,
              "system-height": _system_height}


def report_values(subcommand: str, out_dir: Path) -> dict:
    """The checked values of one run's reports; ValueError if they are unreadable."""
    try:
        with unlimited_int_digits():
            return EXTRACTORS[subcommand](Path(out_dir))
    except (OSError, KeyError, TypeError, csv.Error) as exc:
        raise ValueError(f"unreadable report: {exc!r}") from exc


def mismatches(expected: dict, actual: dict) -> list[str]:
    """Human-readable differences; empty when every recorded value matches."""
    return [f"{key}: expected {expected[key]!r}, got {actual.get(key)!r}"
            for key in sorted(expected) if actual.get(key) != expected[key]]


def load_references() -> dict:
    return json.loads(REFERENCES.read_text(encoding="utf-8"))
