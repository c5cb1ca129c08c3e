"""Explicit constants and count bounds for quasi-integral orbit points.

The diophantine-approximation constants (the Roth-type r1, r2, mu and the
c-chain) are not pinned by theory to explicit values here; they are
pluggable parameters with documented defaults (BoundParameters names the
bound that reads each), and every report echoes the set used.
The ramification constants and the threshold step m are exact.
"""

from __future__ import annotations

import enum
import math
import sys
from fractions import Fraction
from typing import NamedTuple

from .errors import Record
from .logvals import LogExpr
from .ratmap import MapSystem


class RamificationMode(enum.Enum):
    DISTINCT_ORBIT = "distinct-orbit"
    NOT_TOTALLY_RAMIFIED = "not-totally-ramified"


class RamificationConstants(NamedTuple):
    """Constants (kappa1, kappa2) controlling ramification growth along words.

    distinct-orbit mode: kappa1 = exp(sum(2*d_i - 2)) with kappa2*d1 = 1, so
    kappa1*(kappa2*d1)^m is constant in m.  not-totally-ramified mode:
    kappa1 = 1 and kappa2 = 1 - 1/max(d_i) < 1.
    """

    mode: RamificationMode
    kappa1_exponent: int       # kappa1 = e^exponent (0 means kappa1 = 1)
    kappa2: Fraction

    @property
    def kappa1(self) -> float:
        return math.exp(self.kappa1_exponent)


def kappa_constants(system: MapSystem, mode: RamificationMode) -> RamificationConstants:
    degrees = system.degrees
    if mode is RamificationMode.DISTINCT_ORBIT:
        return RamificationConstants(
            mode, sum(2 * d - 2 for d in degrees), Fraction(1, degrees[0]))
    return RamificationConstants(
        mode, 0, 1 - Fraction(1, max(degrees)))


class ChosenThreshold(NamedTuple):
    """Minimal m with kappa2^m <= epsilon/5 under not-totally-ramified
    constants (kappa1 = 1), plus the closed form bound used when every member
    of the scan set is below m."""

    m: int
    small_case_bound: float


def choose_m(epsilon: Fraction, kappa: RamificationConstants) -> ChosenThreshold:
    epsilon = Fraction(epsilon)
    if not 0 < epsilon <= 1:
        raise ValueError("epsilon must lie in (0, 1]")
    if kappa.kappa1_exponent != 0 or kappa.kappa2 >= 1:
        raise ValueError("need kappa1 = 1 and kappa2 < 1 "
                         "(not-totally-ramified constants)")
    if float(epsilon) * sys.float_info.max < 1:
        raise ValueError("epsilon is too small: 1/epsilon exceeds the float range")
    target = epsilon / 5
    m = 1
    power = kappa.kappa2
    while power > target:
        m += 1
        power *= kappa.kappa2
    small_case = ((math.log(5.0) + math.log(1 / float(epsilon)))
                  / math.log(1 / float(kappa.kappa2)) + 1)
    return ChosenThreshold(m, small_case)


def prop_composition_height_bound(n: int, d: int, system_h: LogExpr) -> LogExpr:
    """Exact bound ((d^n-1)/(d-1)) * h(F) + d^2 ((d^(n-1)-1)/(d-1)) * log 8
    on the height of any length-n composition."""
    if n < 1 or d < 2:
        raise ValueError("need n >= 1 and d >= 2")
    lead = Fraction(d ** n - 1, d - 1)
    tail = Fraction(d * d * (d ** (n - 1) - 1), d - 1)
    return system_h * lead + LogExpr.log_int(8, tail)


class BoundParameters(Record):
    """Pluggable constants for the count bounds.

    The defaults are one valid instantiation, generous enough for desk-scale
    experiments; they are not canonical values.  Each bound reads only some:
    gamma_count_bound's tail reads roth_r1, and its head the c-chain (c10
    the proximity window, c5, c6, c7 the small-height window);
    census_count_bounds reads gamma.  roth_mu is only checked to exceed 2,
    and roth_r2 enters no bound.  Reports echo every parameter.
    """

    __slots__ = _fields = ("roth_r1", "roth_r2", "roth_mu", "c5", "c6", "c7", "c10", "gamma")

    def __init__(self, roth_r1: float = 6.0, roth_r2: float = 2.0, roth_mu: float = 2.5,
                 c5: float = 1.0, c6: float = 1.0, c7: float = 1.0, c10: float = 1.0,
                 gamma: float = 8.0):
        super().__init__(roth_r1, roth_r2, roth_mu, c5, c6, c7, c10, gamma)
        for name, value in self._asdict().items():
            # NaN fails; an int compares exactly, so one too large for a float fails.
            if type(value) not in (int, float) or not 0 < value <= sys.float_info.max:
                raise ValueError(f"{name} must be a positive finite number")
        if self.roth_mu <= 2:
            raise ValueError("the approximation exponent must exceed 2")


def log_plus_base(value: float, base: int) -> float:
    """max(0, log_base(value)); zero for value <= 1 (and for value <= 0)."""
    if value <= 1:
        return 0.0
    return math.log(value) / math.log(base)


class GammaCountBound(NamedTuple):
    """Bound pieces for the size of a proximity set.

    max_n bounds every member outside an exceptional set of size tail_count;
    total bounds the whole set: (max_n + 1) head members plus the tail.
    """

    tail_count: float
    max_n: float
    total: float
    m: int


def gamma_count_bound(system: MapSystem, s_size: int, epsilon: Fraction,
                      hhat_a_hi: float, system_h: float, hhat_p_lo: float,
                      params: BoundParameters) -> GammaCountBound:
    """Count bound for the proximity set from the three-way decomposition.

    Needs a certified positive lower bound on the canonical height of the
    moving point (wandering); the target-point height enters through its
    upper interval end, conservatively.
    """
    if hhat_p_lo <= 0:
        raise ValueError("the moving point needs a positive certified height "
                         "lower bound (wandering)")
    d1 = system.min_degree
    kappa = kappa_constants(system, RamificationMode.NOT_TOTALLY_RAMIFIED)
    chosen = choose_m(epsilon, kappa)
    a_part = hhat_a_hi + system_h
    # Non-exceptional members either fall below m, or are stopped by the
    # proximity-versus-height contradiction, or by the small-height window.
    n_t2 = (log_plus_base(2 * params.c10 / float(epsilon), d1)
            + log_plus_base((a_part + 1) / hhat_p_lo, d1))
    n_t3 = chosen.m + log_plus_base(
        (params.c5 * hhat_a_hi + params.c6 * system_h + params.c7) / hhat_p_lo, d1)
    max_n = max(float(chosen.m), n_t2, n_t3)
    tail = (4.0 ** s_size) * params.roth_r1
    return GammaCountBound(tail, max_n, max_n + 1 + tail, chosen.m)


class CensusBounds(NamedTuple):
    """S-integer count bounds for a single word orbit and for the whole tree."""

    single_orbit: float        # bound on #{n >= 1 : orbit point is S-integral}
    tree_depth_cutoff: int     # word-length cutoff M for the tree count
    tree_count: float          # (k^M - 1)/(k - 1), or M when k = 1


def census_count_bounds(system: MapSystem, s_size: int, system_h: float,
                        hhat_min_lo: float,
                        params: BoundParameters) -> CensusBounds:
    """Census bounds driven by the minimal positive canonical height.

    The single-orbit bound is 4^|S| gamma + log+ base d1 of
    h(F)/hhat_min; the tree bound counts words of length up to
    M = ceil(gamma + log+(...)) + 1, i.e. (k^M - 1)/(k - 1).
    """
    if hhat_min_lo <= 0:
        raise ValueError("need a positive lower bound for the minimal "
                         "canonical height")
    d1 = system.min_degree
    log_term = log_plus_base(system_h / hhat_min_lo, d1)
    single = (4.0 ** s_size) * params.gamma + log_term
    m_cut = math.ceil(params.gamma + log_term) + 1
    k = system.k
    try:
        # k^(M-1) <= (k^M - 1)/(k - 1): no power past the float range is built.
        if k > 1 and (m_cut - 1) * math.log2(k) > sys.float_info.max_exp:
            raise OverflowError
        count = float(m_cut) if k == 1 else (k ** m_cut - 1) / (k - 1)
    except OverflowError:
        raise ValueError("gamma is too large: the tree count bound exceeds "
                         "the float range") from None
    return CensusBounds(single, m_cut, count)
