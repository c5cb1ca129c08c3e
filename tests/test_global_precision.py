"""No result depends on mpmath's process-wide precisions, and no call
changes them: the ratio series and averaged ratio of the shipped ratios
config, and the float bounds and signs of seeded expressions, come out the
same with mpmath.iv.prec and mpmath.mp.prec at their defaults and at 200
bits, and both precisions read the same after every call."""

import random
from fractions import Fraction
from pathlib import Path

import mpmath

from orbitint.config import load_config
from orbitint.integrality import averaged_ratio, ratio_series
from orbitint.logvals import LogExpr

CONFIG = load_config(Path(__file__).resolve().parents[1] / "configs" / "ratios_quadratic.json")


def _expressions():
    rng = random.Random(36)
    exprs = [LogExpr([(rng.randrange(2, 10 ** rng.randint(1, 40)),
                       Fraction(rng.randrange(-9, 10), rng.randrange(1, 7)))
                      for _ in range(rng.randint(1, 4))],
                     Fraction(rng.randrange(-5, 6), rng.randrange(1, 4)))
             for _ in range(40)]
    # Near ties that escalate, and an exact zero that reaches the exact stage.
    exprs += [LogExpr.log_int(2 ** k + 1) - LogExpr.log_int(2, k) for k in (60, 130, 300)]
    return exprs + [LogExpr.log_int(8) - LogExpr.log_int(2, 3)]


EXPRS = _expressions()


def _precisions():
    return mpmath.iv.prec, mpmath.mp.prec


def _results():
    """Every result, each call checked to leave both precisions as it
    found them."""
    calls = [lambda: ratio_series(CONFIG.system, CONFIG.word, CONFIG.point, CONFIG.depth,
                                  CONFIG.precision_bits, CONFIG.limits),
             lambda: averaged_ratio(CONFIG.system, CONFIG.point, CONFIG.averaged_level,
                                    CONFIG.precision_bits, CONFIG.limits)]
    calls += [expr.float_bounds for expr in EXPRS] + [expr.sign for expr in EXPRS]
    before, results = _precisions(), []
    for call in calls:
        results.append(call())
        assert _precisions() == before
    return results


def test_results_ignore_the_global_precisions():
    defaults = _precisions()
    assert defaults == (53, 53)
    expected = _results()
    try:
        mpmath.iv.prec = mpmath.mp.prec = 200
        raised = _results()
    finally:
        mpmath.iv.prec, mpmath.mp.prec = defaults
    assert raised == expected
