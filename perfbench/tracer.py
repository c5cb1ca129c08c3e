"""Per-layer spans for one benchmark process, recorded from outside the program.

`install` wraps the public functions and methods of each orbitint module,
replacing every binding of a wrapped function in every orbitint namespace
(`from .ratmap import eval_point` makes a separate binding in `orbits` and in
`heights`).  Nothing under `src/` is edited.  Each call becomes a span with a
name, start, end, parent span and run id, plus the bit length of the
coordinates in its positional arguments.
Spans stay in memory until `write` saves them after the run; `layer_metrics`
turns a saved span file into the per-layer metrics named in BENCHMARK.json.

Generator functions are left unwrapped: a wrapper would time only the
creation of the generator.  Their work shows in the caller's self time.
"""

from __future__ import annotations

import enum
import functools
import inspect
import json
import sys
import time
from fractions import Fraction

LAYERS = ("polys", "proj1", "ratmap", "orbits", "heights", "integrality",
          "places", "logvals", "cli", "config")

# Private functions that still get a span: the exact-sign fallback (sign
# stage counts) and the two report writers (report_write_s).
PRIVATE_SPANS = {"logvals.LogExpr._sign_exact", "cli._write_csv", "cli._write_json"}

# Spans whose self time is also split by input size, in bits.
BUCKETED = ("polys.eval_homogeneous", "proj1.normalize")
BUCKETS = (("lt1e4", 10_000), ("1e4-1e5", 100_000), ("gt1e5", None))

# (span name, quantities) reported per function; every layer also gets
# <layer>.calls and <layer>.self_s over all of its spans.
FUNCTION_METRICS = (
    ("proj1.normalize", ("calls", "self_s", "in_bits")),
    ("proj1.ProjPoint.affine", ("calls", "self_s", "in_bits")),
    ("proj1.log_chordal", ("calls", "self_s", "in_bits")),
    ("polys.eval_homogeneous", ("calls", "self_s", "in_bits")),
    ("ratmap.eval_point", ("calls", "self_s", "in_bits", "out_bits_max")),
    ("orbits.orbit_csv_rows", ("calls", "self_s", "in_bits")),
    ("orbits.enumerate_tree", ("calls", "self_s")),
    ("orbits.hypothesis_check", ("calls", "self_s")),
    ("heights.canonical_height_system", ("calls", "self_s")),
    ("heights.canonical_height_word", ("calls", "self_s")),
    ("heights.hmin_estimate", ("calls", "self_s")),
    ("logvals.LogExpr.sign", ("calls", "self_s")),
    ("logvals.LogExpr.interval", ("calls", "self_s", "in_bits")),
    ("places.is_s_integer", ("calls", "self_s")),
    ("integrality.s_integral_census", ("calls", "self_s")),
    ("integrality.gamma_set", ("calls", "self_s")),
    ("config.load_config", ("self_s",)),
)

SIGN_STAGES = ("1x", "2x", "4x", "exact", "undecided")


def coordinate_bits(value) -> int:
    """Bit length of the big integers an argument carries (one list level deep)."""
    if isinstance(value, (list, tuple)):
        return sum(_scalar_bits(item) for item in value)
    return _scalar_bits(value)


def _scalar_bits(value) -> int:
    if isinstance(value, bool):
        return 0
    if isinstance(value, int):
        return value.bit_length()
    if isinstance(value, Fraction):
        return value.numerator.bit_length() + value.denominator.bit_length()
    point = getattr(value, "point", value)  # OrbitRecord carries a ProjPoint
    x, y = getattr(point, "x", None), getattr(point, "y", None)
    if isinstance(x, int) and isinstance(y, int):
        return x.bit_length() + y.bit_length()
    terms = getattr(value, "terms", None)  # LogExpr: (atom, coeff) pairs
    if isinstance(terms, tuple):
        return sum(atom.bit_length() for atom, _ in terms)
    return 0


def _note_eval_point(fn, args, kwargs, result):
    return max(abs(result.x), abs(result.y)).bit_length()


def _note_sign(fn, args, kwargs, result):
    return result


def _note_enumerate_tree(fn, args, kwargs, result):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return [len(result), bool(bound.arguments["dedupe"])]


# Extra facts kept on a span, computed from its arguments and result.
NOTES = {
    "ratmap.eval_point": _note_eval_point,
    "logvals.LogExpr.sign": _note_sign,
    "logvals.LogExpr._sign_exact": _note_sign,
    "orbits.enumerate_tree": _note_enumerate_tree,
}

# The tree walkers.  Each visits its root plus one node per eval_point call
# made inside its span (work.nodes); a call inside nested walkers counts for
# the innermost one.
WALKERS = ("orbits.enumerate_tree", "heights.canonical_height_system")


class Tracer:
    """Span recorder for one process; spans are lists
    [name, start, end, parent index, input bits, note]."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn):
        spans, open_spans, clock = self.spans, self._open, time.perf_counter
        note = NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            bits = sum(coordinate_bits(a) for a in args)
            span = [name, 0.0, 0.0, open_spans[-1] if open_spans else -1, bits, None]
            open_spans.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                open_spans.pop()
            if note is not None:
                span[5] = note(fn, args, kwargs, result)
            return result

        return traced

    def write(self, path) -> None:
        """One JSON array per line: run id, name, start, end, parent, bits, note."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, bits, note in self.spans:
                fh.write(json.dumps([self.run_id, name, start, end, parent, bits, note]))
                fh.write("\n")


def _wrappable_classes(module):
    for obj in vars(module).values():
        if (inspect.isclass(obj) and obj.__module__ == module.__name__
                and not issubclass(obj, (BaseException, enum.Enum))):
            yield obj


def _wants(name: str, qualified: str, fn) -> bool:
    return ((not name.startswith("_") or qualified in PRIVATE_SPANS)
            and inspect.isfunction(fn) and not inspect.isgeneratorfunction(fn))


def install(tracer: Tracer) -> None:
    """Wrap every public function and method of the layer modules.

    Call after importing orbitint.cli, so that every binding exists."""
    replaced = {}
    for layer in LAYERS:
        module = sys.modules[f"orbitint.{layer}"]
        for name, obj in list(vars(module).items()):
            qualified = f"{layer}.{name}"
            if _wants(name, qualified, obj) and obj.__module__ == module.__name__:
                replaced[obj] = tracer.wrap(qualified, obj)
        for cls in _wrappable_classes(module):
            for name, member in list(vars(cls).items()):
                qualified = f"{layer}.{cls.__name__}.{name}"
                if name.startswith("__"):
                    continue
                if isinstance(member, (staticmethod, classmethod)):
                    if _wants(name, qualified, member.__func__):
                        wrapped = tracer.wrap(qualified, member.__func__)
                        setattr(cls, name, type(member)(wrapped))
                elif _wants(name, qualified, member):
                    setattr(cls, name, tracer.wrap(qualified, member))
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "orbitint" and not mod_name.startswith("orbitint."):
            continue
        for name, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in replaced:
                setattr(module, name, replaced[obj])


def read_spans(path) -> list[list]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def _bucket(bits: int) -> str:
    for label, limit in BUCKETS:
        if limit is None or bits < limit:
            return label
    raise AssertionError("unreachable")


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics from saved spans (rows as written by Tracer.write)."""
    child_time = [0.0] * len(spans)
    for _, _, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    per_name: dict[str, dict] = {}
    per_layer = {layer: {"calls": 0, "self_s": 0.0} for layer in LAYERS}
    sign_children: dict[int, list] = {}
    for idx, (_, name, start, end, parent, bits, note) in enumerate(spans):
        self_s = (end - start) - child_time[idx]
        agg = per_name.setdefault(name, {"calls": 0, "self_s": 0.0, "in_bits": 0,
                                         "out_bits_max": 0, "buckets": {}})
        agg["calls"] += 1
        agg["self_s"] += self_s
        agg["in_bits"] += bits
        if name in BUCKETED:
            label = _bucket(bits)
            agg["buckets"][label] = agg["buckets"].get(label, 0.0) + self_s
        if name == "ratmap.eval_point":
            agg["out_bits_max"] = max(agg["out_bits_max"], note)
        layer = per_layer[name.split(".", 1)[0]]
        layer["calls"] += 1
        layer["self_s"] += self_s
        if parent >= 0 and spans[parent][1] == "logvals.LogExpr.sign":
            sign_children.setdefault(parent, []).append((name, note))

    metrics: dict[str, float] = {}
    for layer, agg in per_layer.items():
        metrics[f"{layer}.calls"] = agg["calls"]
        metrics[f"{layer}.self_s"] = agg["self_s"]
    metrics["trace.self_sum_s"] = sum(agg["self_s"] for agg in per_layer.values())
    empty = {"calls": 0, "self_s": 0.0, "in_bits": 0, "out_bits_max": 0, "buckets": {}}
    for name, quantities in FUNCTION_METRICS:
        agg = per_name.get(name, empty)
        for q in quantities:
            metrics[f"{name}.{q}"] = agg[q]
    for name in BUCKETED:
        buckets = per_name.get(name, empty)["buckets"]
        for label, _ in BUCKETS:
            metrics[f"{name}.self_s.{label}"] = buckets.get(label, 0.0)

    stages = dict.fromkeys(SIGN_STAGES, 0)
    for idx, (_, name, _, _, _, _, note) in enumerate(spans):
        if name == "logvals.LogExpr.sign":
            stages[_sign_stage(note, sign_children.get(idx, []))] += 1
    for stage, count in stages.items():
        metrics[f"logvals.sign_stage.{stage}"] = count

    walker_of = [-1] * len(spans)   # innermost walker span enclosing each span
    nodes_of: dict[int, int] = {}   # walker span -> nodes it visited
    for idx, (_, name, _, _, parent, _, _) in enumerate(spans):
        if name in WALKERS:
            walker_of[idx] = idx
            nodes_of[idx] = 1
        elif parent >= 0:
            walker_of[idx] = walker_of[parent]
            if name == "ratmap.eval_point" and walker_of[idx] >= 0:
                nodes_of[walker_of[idx]] += 1
    visited = kept = 0
    for idx, nodes in nodes_of.items():
        note = spans[idx][6]
        if spans[idx][1] == "orbits.enumerate_tree" and note[1]:
            visited += nodes
            kept += note[0]
    metrics["orbits.dedupe_kept_ratio"] = kept / visited if visited else 0.0
    metrics["work.nodes"] = sum(nodes_of.values())
    writers = ("cli._write_csv", "cli._write_json")
    metrics["cli.report_write_s"] = sum(per_name.get(w, empty)["self_s"] for w in writers)
    return metrics


def _sign_stage(result, children) -> str:
    """Stage that decided one LogExpr.sign call, from its child spans.

    The k-th interval enclosure runs at precision 1x, 2x, 4x; a sign decided
    with no enclosure (a structural zero) or by the integer power product
    counts as exact.
    """
    if result is None:
        return "undecided"
    if any(name == "logvals.LogExpr._sign_exact" for name, _ in children):
        return "exact"
    intervals = sum(1 for name, _ in children if name == "logvals.LogExpr.interval")
    return SIGN_STAGES[intervals - 1] if intervals else "exact"
