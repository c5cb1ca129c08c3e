"""Experiment configuration: JSON in, validated dataclass out.

Configs are hashed canonically so report filenames identify their inputs.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .bounds import BoundParameters
from .errors import ConfigError
from .logvals import DEFAULT_PRECISION
from .orbits import WorkLimits
from .places import PlaceSet
from .proj1 import ProjPoint, parse_point
from .ratmap import MapError, MapSystem, map_from_json, parse_map
from .words import Word

DEFAULTS = {
    "pointA": "inf",
    "epsilon": "1/2",
    "depth": 6,
    "precisionBits": DEFAULT_PRECISION,
    "nodeCap": WorkLimits.node_cap,
    "bitCap": WorkLimits.bit_cap,
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


@dataclass(frozen=True)
class ExperimentConfig:
    system: MapSystem
    point: ProjPoint
    point_a: ProjPoint
    places: PlaceSet
    epsilon: Fraction
    word: Word
    depth: int
    limits: WorkLimits
    bound_parameters: Optional[BoundParameters]
    precision_bits: int
    dedupe: bool
    hmin_period_bound: int
    averaged_level: Optional[int]
    height_depth: int
    c_mode: str
    raw: dict = field(compare=False, repr=False)

    def canonical_hash(self) -> str:
        blob = json.dumps(self.raw, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:12]


def _require(cond: bool, message: str):
    if not cond:
        raise ConfigError(message)


def _integer(obj: dict, key: str, default, minimum: Optional[int] = None) -> int:
    """obj[key], or the default, checked to be an int (not a bool) >= minimum."""
    value = obj.get(key, default)
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
            if isinstance(entry, str):
                maps.append(parse_map(entry))
            elif isinstance(entry, dict):
                _require(all(isinstance(entry.get(k), list) for k in ("f", "g")),
                         f"map object {entry!r} needs 'f' and 'g' coefficient lists")
                maps.append(map_from_json(entry))
            else:
                raise ConfigError(f"map entries are strings or objects, got {entry!r}")
        except MapError as exc:
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
             and all(isinstance(name, str) for name in place_names),
             "places must be a list of place names")
    try:
        places = PlaceSet.parse(place_names)
    except ValueError as exc:
        raise ConfigError(f"invalid places: {exc}") from exc

    try:
        epsilon = Fraction(str(obj.get("epsilon", DEFAULTS["epsilon"])))
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"invalid epsilon: {exc}") from exc
    _require(0 < epsilon <= 1, "epsilon must lie in (0, 1]")

    word_obj = obj.get("word", {"letters": [1], "mode": "periodic"})
    if isinstance(word_obj, list):
        word_obj = {"letters": word_obj, "mode": "finite"}
    _require(isinstance(word_obj, dict), "word must be a list of letters or an object")
    letters = word_obj.get("letters")
    # Word() would read 1.5, true or the string "12" as integer letters.
    _require(isinstance(letters, list) and all(type(c) is int for c in letters),
             "word letters must be a list of integers")
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


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return parse_config(obj)
