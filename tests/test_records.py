"""The record contract: every record of orbitint, and PlaceSet, equals and
hashes as the tuple of its compared fields (what the frozen dataclasses
gave), shows them in its repr, refuses assignment and survives a pickle
round trip; Place orders by sort_key; WorkLimits.cycle_scan lowers the bit
cap; and BoundParameters rejects bad input with its messages."""

import pickle
from fractions import Fraction
from pathlib import Path

import pytest

from orbitint.bounds import (BoundParameters, CensusBounds, ChosenThreshold, GammaCountBound,
                             RamificationConstants, RamificationMode)
from orbitint.config import load_config, parse_config
from orbitint.heights import HeightDifferenceBound, HeightEstimate, HminResult
from orbitint.integrality import AveragedRatio, GammaRecord, GammaVerdict, RatioTerm
from orbitint.logvals import LogExpr
from orbitint.orbits import CYCLE_BITS, HypothesisReport, WorkLimits
from orbitint.places import INFINITE_PLACE, Place, PlaceSet
from orbitint.proj1 import INFINITY, ProjPoint
from orbitint.ratmap import MapSystem, parse_map
from orbitint.words import Word, WordMode

CONFIG = Path(__file__).resolve().parents[1] / "configs" / "bounds_mixed.json"
WORD = Word.periodic((1, 2))
PHI = parse_map("(z^2-1)/(z^2+1)")
SYSTEM = MapSystem([parse_map("z^3-2"), PHI])
PLACES = PlaceSet([INFINITE_PLACE, Place(2)])
EST = HeightEstimate(LogExpr.log_int(2), LogExpr.log_int(3, Fraction(1, 2)), 4, 16, True)

# Each record with the fields its frozen dataclass compared, in their order.
RECORDS = [
    (ProjPoint(3, 1), ("x", "y")),
    (Place(5), ("sort_key", "prime")),
    (INFINITE_PLACE, ("sort_key", "prime")),
    (WORD, ("letters", "mode")),
    (PHI, ("f", "g", "degree")),
    (SYSTEM, ("maps",)),
    (WorkLimits(node_cap=7), ("node_cap", "bit_cap")),
    (HypothesisReport(True, None, False, (1, INFINITY, (1, 2)), 3),
     ("repeated_point_free", "repeat_witness", "totally_ramified_free",
      "ramified_witness", "depth_checked")),
    (HeightDifferenceBound(LogExpr.log_int(5), LogExpr.log_int(7), LogExpr.zero()),
     ("c", "upper", "lower", "mode", "sample_size")),
    (EST, ("lo_expr", "hi_expr", "depth", "degree_product", "certified", "target_met", "word")),
    (HminResult(EST, WORD, None, 6),
     ("estimate", "witness_word", "preperiodic_witness", "words_scanned")),
    (GammaRecord(WORD, INFINITY, ProjPoint(3, 1), PLACES, Fraction(1, 2), 1,
                 ((0, GammaVerdict.IN), (1, GammaVerdict.OUT)), EST),
     ("word", "base", "point", "places", "epsilon", "depth", "members", "height",
      "preperiodic")),
    (RatioTerm(2, 10, 4, 2.5, "defined"), ("n", "num_bits", "den_bits", "ratio", "verdict")),
    (AveragedRatio(2, None, 4, 4), ("level", "mean", "total_words", "excluded")),
    (RamificationConstants(RamificationMode.DISTINCT_ORBIT, 6, Fraction(1, 2)),
     ("mode", "kappa1_exponent", "kappa2")),
    (ChosenThreshold(4, 3.5), ("m", "small_case_bound")),
    (BoundParameters(gamma=3), ("roth_r1", "roth_r2", "roth_mu", "c5", "c6", "c7", "c10",
                                "gamma")),
    (GammaCountBound(96.0, 5.0, 102.0, 4), ("tail_count", "max_n", "total", "m")),
    (CensusBounds(130.0, 11, 4095.0), ("single_orbit", "tree_depth_cutoff", "tree_count")),
    (load_config(str(CONFIG)),
     ("system", "point", "point_a", "places", "epsilon", "word", "depth", "limits",
      "bound_parameters", "precision_bits", "dedupe", "hmin_period_bound",
      "averaged_level", "height_depth", "c_mode")),
]
IDS = [type(record).__name__ for record, _ in RECORDS]


@pytest.mark.parametrize("record, fields", RECORDS, ids=IDS)
def test_equality_hash_and_repr_are_those_of_the_fields(record, fields):
    values = tuple(getattr(record, name) for name in fields)
    assert hash(record) == hash(values)
    assert record == record and not record != record
    shown = ", ".join(f"{name}={value!r}" for name, value in zip(fields, values))
    assert repr(record) == f"{type(record).__name__}({shown})"


@pytest.mark.parametrize("record, fields", RECORDS, ids=IDS)
def test_assignment_raises(record, fields):
    for name in (fields[0], "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    with pytest.raises(AttributeError):
        delattr(record, fields[0])


@pytest.mark.parametrize("record, fields", RECORDS, ids=IDS)
def test_pickle_round_trip(record, fields):
    copy = pickle.loads(pickle.dumps(record))
    assert type(copy) is type(record) and copy == record and hash(copy) == hash(record)
    assert [getattr(copy, name) for name in fields] == [getattr(record, name) for name in fields]


def test_records_of_other_fields_differ():
    assert ProjPoint(3, 1) != ProjPoint(1, 3) and ProjPoint(3, 1) != (3, 1)
    assert Place(2) != Place(3) and Word.finite((1, 2)) != WORD
    assert BoundParameters() != BoundParameters(gamma=3)
    assert PHI != parse_map("z^2+1") and SYSTEM != MapSystem([PHI])


def test_projpoint_hashes_as_its_pair_and_refuses_zero():
    for x, y in ((3, 1), (1, 0), (-(2 ** 300), 3 ** 200)):
        assert hash(ProjPoint(x, y)) == hash((x, y))
    with pytest.raises(ValueError, match=r"\[0 : 0\] is not a projective point"):
        ProjPoint(0, 0)


def test_config_equality_ignores_raw_and_pickle_keeps_it():
    config = load_config(str(CONFIG))
    other = parse_config({**config.raw, "point": "6/2"})
    assert other.raw != config.raw and other == config and hash(other) == hash(config)
    assert pickle.loads(pickle.dumps(config)).raw == config.raw
    assert config.bound_parameters._asdict() == {
        "roth_r1": 6.0, "roth_r2": 2.0, "roth_mu": 2.5, "c5": 1.0, "c6": 1.0, "c7": 1.0,
        "c10": 1.0, "gamma": 8.0}


def test_placeset_is_a_value():
    same = PlaceSet([Place(2), INFINITE_PLACE])
    assert same == PLACES and hash(same) == hash(PLACES) and list(same) == list(PLACES)
    assert pickle.loads(pickle.dumps(PLACES)) == PLACES
    with pytest.raises(AttributeError):
        PLACES.places = frozenset()


def test_places_order_by_sort_key():
    assert sorted([Place(7), Place(2), INFINITE_PLACE, Place(3)]) == [
        INFINITE_PLACE, Place(2), Place(3), Place(7)]
    assert INFINITE_PLACE < Place(2) <= Place(2) < Place(3)
    assert Place(5) > Place(3) >= Place(3) >= INFINITE_PLACE
    assert max(Place(3), Place(11), INFINITE_PLACE) == Place(11)
    with pytest.raises(TypeError):
        Place(2) < 3


def test_cycle_scan_lowers_the_bit_cap_only():
    assert WorkLimits(node_cap=9).cycle_scan() == WorkLimits(node_cap=9, bit_cap=CYCLE_BITS)
    low = WorkLimits(node_cap=9, bit_cap=100)
    assert low.cycle_scan() == low and type(low.cycle_scan()) is WorkLimits


@pytest.mark.parametrize("named, message", [
    ({"roth_mu": 2.0}, "the approximation exponent must exceed 2"),
    ({"roth_mu": 2}, "the approximation exponent must exceed 2"),
    ({"gamma": -1.0}, "gamma must be a positive finite number"),
    ({"c5": float("nan")}, "c5 must be a positive finite number"),
    ({"c6": float("inf")}, "c6 must be a positive finite number"),
    ({"c10": 10 ** 400}, "c10 must be a positive finite number"),
    ({"roth_r1": True}, "roth_r1 must be a positive finite number"),
    ({"roth_r2": "1.0"}, "roth_r2 must be a positive finite number"),
    ({"c7": None}, "c7 must be a positive finite number"),
])
def test_bound_parameters_reject_bad_input(named, message):
    with pytest.raises(ValueError) as info:
        BoundParameters(**named)
    assert str(info.value) == message


def test_constructors_bind_and_default_as_before():
    assert BoundParameters(7, 3).roth_r2 == 3 and BoundParameters(7, 3).gamma == 8.0
    with pytest.raises(TypeError, match="unexpected keyword argument 'foo'"):
        BoundParameters(foo=1)
    assert Word((2, 1)).mode is WordMode.FINITE and Place().is_archimedean
    assert WorkLimits() == WorkLimits(1_000_000, 1_000_000)
    assert EST.target_met is True and EST.word is None
