"""orbitint: exact heights, semigroup orbits of rational maps over Q, and
quasi-integral point censuses, with every bound evaluated alongside the
empirical counts it dominates."""

__version__ = "0.1.0"

from .logvals import LogExpr, DEFAULT_PRECISION
from .places import (Place, PlaceSet, INFINITE_PLACE, abs_log, padic_valuation,
                     is_s_integer)
from .proj1 import ProjPoint, normalize, parse_point, log_chordal, INFINITY, ZERO
from .ratmap import (RatMap, MapSystem, MapError, make_map, parse_map, compose,
                     eval_point, map_height, system_height, ramification_index,
                     is_totally_ramified)
from .words import Word, WordMode
from .heights import (HeightEstimate, HeightDifferenceBound, c_bound,
                      canonical_height_word, canonical_height_system,
                      hmin_estimate)
from .orbits import Orbit, WorkLimits, iterate_word, enumerate_tree, hypothesis_check
from .integrality import (quasi_integral_test, gamma_set, s_integral_census,
                          ratio_series, averaged_ratio, GammaVerdict)
from .bounds import (BoundParameters, RamificationMode, kappa_constants,
                     choose_m, prop_composition_height_bound,
                     gamma_count_bound, census_count_bounds)
from .errors import WorkLimitExceeded, ConfigError

__all__ = [
    "LogExpr", "DEFAULT_PRECISION",
    "Place", "PlaceSet", "INFINITE_PLACE", "abs_log", "padic_valuation",
    "is_s_integer",
    "ProjPoint", "normalize", "parse_point", "log_chordal", "INFINITY", "ZERO",
    "RatMap", "MapSystem", "MapError", "make_map", "parse_map", "compose",
    "eval_point", "map_height", "system_height", "ramification_index",
    "is_totally_ramified",
    "Word", "WordMode",
    "HeightEstimate", "HeightDifferenceBound", "c_bound",
    "canonical_height_word", "canonical_height_system", "hmin_estimate",
    "Orbit", "WorkLimits", "iterate_word", "enumerate_tree", "hypothesis_check",
    "quasi_integral_test", "gamma_set", "s_integral_census", "ratio_series",
    "averaged_ratio", "GammaVerdict",
    "BoundParameters", "RamificationMode", "kappa_constants", "choose_m",
    "prop_composition_height_bound", "gamma_count_bound", "census_count_bounds",
    "WorkLimitExceeded", "ConfigError",
]
