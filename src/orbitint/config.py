"""Experiment configuration: JSON in, validated record out.

Configs are hashed canonically so report filenames identify their inputs.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import Optional

# hashlib loads OpenSSL's libcrypto, several MB of resident memory that a
# 240-byte digest does not need: take the interpreter's own SHA-256 first.
try:
    from _sha2 import sha256    # CPython 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256    # CPython 3.10 and 3.11
    except ImportError:    # a build without built-in hashes
        from hashlib import sha256

from .bounds import BoundParameters
from .errors import ConfigError, Record
from .logvals import DEFAULT_PRECISION
from .orbits import DEFAULT_LIMITS, WorkLimits
from .places import PlaceSet
from .proj1 import ProjPoint, parse_point, read_fraction
from .ratmap import MapError, MapSystem, map_from_json, parse_map
from .words import Word

DEFAULTS = {
    "pointA": "inf",
    "epsilon": "1/2",
    "depth": 6,
    "precisionBits": DEFAULT_PRECISION,
    "nodeCap": DEFAULT_LIMITS.node_cap,
    "bitCap": DEFAULT_LIMITS.bit_cap,
    "dedupe": True,
    "hminPeriodBound": 2,
    "heightDepth": 12,
}

_KNOWN_KEYS = {
    "system", "point", "pointA", "places", "epsilon", "word", "depth",
    "workLimits", "boundParameters", "precisionBits", "dedupe",
    "hminPeriodBound", "averagedLevel", "heightDepth", "cMode",
}
_WORK_LIMIT_KEYS = {"nodeCap", "bitCap"}
MIN_PRECISION = 16


class ExperimentConfig(Record):
    """A validated config; averaged_level and bound_parameters may be None,
    and raw is the JSON object it was parsed from."""

    __slots__ = _fields = ("system", "point", "point_a", "places", "epsilon", "word",
                           "depth", "limits", "bound_parameters", "precision_bits",
                           "dedupe", "hmin_period_bound", "averaged_level",
                           "height_depth", "c_mode", "raw")

    def _key(self) -> tuple:
        """Every field but raw: configs that parse alike are equal."""
        return self._values()[:-1]

    def canonical_hash(self) -> str:
        """The first 12 hex digits of the SHA-256 of raw as sorted, compact
        JSON: the report filename's hash and meta.configHash."""
        blob = json.dumps(self.raw, sort_keys=True, separators=(",", ":"))
        return sha256(blob.encode("utf-8")).hexdigest()[:12]


def _require(cond: bool, message: str):
    if not cond:
        raise ConfigError(message)


def _integer(obj: dict, key: str, default, minimum: Optional[int] = None) -> int:
    """obj[key], or the default, checked to be an int (not a bool) >= minimum."""
    value = obj.get(key, default)
    _require(not isinstance(value, _LongInt), f"{key} is {value!r}, too long to read")
    rule = {None: "an integer", 0: "a nonnegative integer",
            1: "a positive integer"}.get(minimum, f"an integer >= {minimum}")
    _require(type(value) is int and (minimum is None or value >= minimum),
             f"{key} must be {rule}")
    return value


def parse_config(obj: dict) -> ExperimentConfig:
    """Validate and normalize a config dict; raises ConfigError on problems."""
    _require(isinstance(obj, dict), "config must be a JSON object")
    unknown = set(obj) - _KNOWN_KEYS
    _require(not unknown, f"unknown config keys: {sorted(unknown)}")
    _require("system" in obj, "config needs a 'system' entry")

    system_obj = obj["system"]
    if isinstance(system_obj, dict):
        entries = system_obj.get("maps")
    else:
        entries = system_obj
    _require(isinstance(entries, list) and entries,
             "'system' must list at least one map")
    maps = []
    for entry in entries:
        try:
            if type(entry) is str:
                maps.append(parse_map(entry))
            elif isinstance(entry, dict):
                # Fraction() would fail on null or infinity and read true as 1.
                _require(all(isinstance(entry.get(k), list)
                             and all(isinstance(c, str) or type(c) is int
                                     or type(c) is float and math.isfinite(c)
                                     for c in entry[k])
                             for k in ("f", "g")),
                         f"map object {entry!r} needs 'f' and 'g' lists of numbers or strings")
                maps.append(map_from_json(entry))
            else:
                raise ConfigError(f"map entries are strings or objects, got {entry!r}")
        except (MapError, ZeroDivisionError) as exc:   # "1/0" as a coefficient
            raise ConfigError(f"invalid map {entry!r}: {exc}") from exc
    try:
        system = MapSystem(maps)
    except MapError as exc:
        raise ConfigError(str(exc)) from exc

    _require("point" in obj, "config needs a 'point' entry")
    try:
        point = parse_point(str(obj["point"]))
        point_a = parse_point(str(obj.get("pointA", DEFAULTS["pointA"])))
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"invalid point: {exc}") from exc

    place_names = obj.get("places", ["inf"])
    _require(isinstance(place_names, list)
             and all(type(name) is str for name in place_names),
             "places must be a list of place names")
    try:
        places = PlaceSet.parse(place_names)
    except ValueError as exc:
        raise ConfigError(f"invalid places: {exc}") from exc

    try:
        epsilon = read_fraction(str(obj.get("epsilon", DEFAULTS["epsilon"])))
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"invalid epsilon: {exc}") from exc
    _require(0 < epsilon <= 1, "epsilon must lie in (0, 1]")

    word_obj = obj.get("word", {"letters": [1], "mode": "periodic"})
    if isinstance(word_obj, list):
        word_obj = {"letters": word_obj, "mode": "finite"}
    _require(isinstance(word_obj, dict) and isinstance(word_obj.get("letters"), list),
             "word must be a list of letters or an object with a 'letters' list")
    for c in word_obj["letters"]:
        _require(not isinstance(c, _LongInt), f"a word letter is {c!r}, too long to read")
    try:
        word = Word.from_json(word_obj)
    except ValueError as exc:
        raise ConfigError(f"invalid word: {exc}") from exc
    _require(word.max_letter() <= system.k,
             f"word letters exceed the system size {system.k}")

    depth = _integer(obj, "depth", DEFAULTS["depth"], 0)

    wl = obj.get("workLimits", {})
    _require(isinstance(wl, dict), "workLimits must be an object")
    unknown = set(wl) - _WORK_LIMIT_KEYS
    _require(not unknown, f"unknown workLimits keys: {sorted(unknown)}")
    limits = WorkLimits(node_cap=_integer(wl, "nodeCap", DEFAULTS["nodeCap"], 1),
                        bit_cap=_integer(wl, "bitCap", DEFAULTS["bitCap"], 1))

    params = None
    if "boundParameters" in obj:
        _require(isinstance(obj["boundParameters"], dict),
                 "boundParameters must be an object")
        try:
            params = BoundParameters(**obj["boundParameters"])
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"invalid boundParameters: {exc}") from exc

    precision = _integer(obj, "precisionBits", DEFAULTS["precisionBits"],
                         MIN_PRECISION)

    dedupe = obj.get("dedupe", DEFAULTS["dedupe"])
    _require(isinstance(dedupe, bool), "dedupe must be a boolean")

    hmin_bound = _integer(obj, "hminPeriodBound", DEFAULTS["hminPeriodBound"], 1)

    averaged = None
    if obj.get("averagedLevel") is not None:
        averaged = _integer(obj, "averagedLevel", None, 0)

    height_depth = _integer(obj, "heightDepth", DEFAULTS["heightDepth"], 1)

    c_mode = obj.get("cMode", "certified")
    _require(c_mode in ("certified", "empirical"),
             "cMode must be 'certified' or 'empirical'")

    return ExperimentConfig(
        system=system, point=point, point_a=point_a, places=places,
        epsilon=epsilon, word=word, depth=depth, limits=limits,
        bound_parameters=params, precision_bits=precision, dedupe=dedupe,
        hmin_period_bound=hmin_bound, averaged_level=averaged,
        height_depth=height_depth, c_mode=c_mode, raw=obj)


class _LongInt(str):
    """A JSON integer literal too long for int(), as its text: read as a
    quoted number where one is read (proj1.read_int), refused elsewhere, and
    echoed by its repr, its length."""

    def __repr__(self) -> str:
        return f"an integer of {len(self.lstrip('-'))} digits"


def _json_int(text: str) -> int | str:
    """A JSON integer literal as an int, or as a _LongInt when it is too
    long for int()."""
    try:
        return int(text)
    except ValueError:   # over the interpreter's digit limit, left as set
        return _LongInt(text)


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh, parse_int=_json_int)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return parse_config(obj)
