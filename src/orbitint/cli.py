"""Batch front door: experiment configs in, deterministic reports out.

Reports are JSON (CSV for series), written under the output directory with
the subcommand name and a hash of the config in the filename.  Identical
(config, seed, version) triples produce byte-identical reports regardless of
the worker count.  Exit codes: 0 success, 1 a failed verify suite,
2 validation error, 3 work-limit abort, 4 internal fault (any other
exception, such as a CSV row the writer refuses).  Every error ends stderr
with one JSON line {"error", "kind"}, kind "validation", "work-limit" or
"internal"; an internal fault prints its traceback above that line.

This is the one module that knows the report schema (meta.reportSchema 2):
camelCase keys, integers as proj1.int_text writes them, floats as repr; the
engine modules return plain data.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from functools import partial
from pathlib import Path

from . import __version__
from .bounds import (BoundParameters, RamificationMode, census_count_bounds,
                     choose_m, gamma_count_bound, kappa_constants,
                     prop_composition_height_bound)
from .config import MIN_PRECISION, ExperimentConfig, load_config, parse_config
from .errors import ConfigError, WorkLimitExceeded
from .heights import (canonical_height_system, canonical_height_word,
                      hmin_estimate, system_bounds)
from .integrality import (averaged_ratio, gamma_set, ratio_series,
                          s_integral_census)
from .logvals import DEFAULT_PRECISION
from .orbits import Orbit, enumerate_tree, hypothesis_check
from .proj1 import ProjPoint, int_text
from .ratmap import system_height
from .verify import run_all


def _report_meta(sub: str, config_hash: str | None, seed: int, prec: int) -> dict:
    # Schema 2: integers above proj1.HEX_BITS bits are written as "0x..." hex.
    meta = {"version": __version__, "subcommand": sub, "seed": seed,
            "precisionBits": prec, "reportSchema": 2}
    if config_hash is not None:
        meta["configHash"] = config_hash
    return meta


def _nonfinite_field(payload: dict) -> tuple:
    """(dotted path, value) of the first inf or nan in the payload, in the
    order the report writes its keys (list items by index)."""
    stack = [("", payload)]
    while stack:
        path, value = stack.pop()
        if isinstance(value, float) and not math.isfinite(value):
            return path, value
        items = (sorted(value.items()) if isinstance(value, dict)
                 else enumerate(value) if isinstance(value, list) else ())
        stack.extend(reversed([(f"{path}.{key}".lstrip("."), item) for key, item in items]))
    raise AssertionError("no float out of range in the report")


def _write_json(path: Path, payload: dict) -> None:
    # RFC 8259 JSON has no inf or nan: a float report value out of range (an
    # input too large or too small for it) is a ValueError naming the field,
    # a validation exit, before anything is written.
    try:
        blob = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:
        raise ValueError("report field {} is {}, out of the range of JSON numbers"
                         .format(*_nonfinite_field(payload))) from exc
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(blob, encoding="utf-8")


def _csv_line(row, width: int) -> str:
    """One CSV line of fields that never need quoting, so it is the line
    csv.writer(lineterminator="\n") would write.  Fields are str, int or
    float (str of a float is its repr); a field that csv would quote or
    write differently is refused, never written."""
    if len(row) != width:
        raise RuntimeError(f"CSV row of {len(row)} fields under a {width}-column header")
    line = ",".join(map(str, row))
    if (line.count(",") != width - 1 or not line or '"' in line or "\n" in line
            or "\r" in line or None in row):
        raise RuntimeError("CSV field that csv.writer would quote or write as empty")
    return line + "\n"


def _write_csv(path: Path, header: tuple, rows) -> int:
    """Write the table to path; the number of rows written."""
    path.parent.mkdir(parents=True, exist_ok=True)
    width, count = len(header), 0
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(_csv_line(header, width))
        for count, row in enumerate(rows, start=1):
            fh.write(_csv_line(row, width))
    return count


def _point_json(p: ProjPoint) -> dict:
    return {"x": int_text(p.x), "y": int_text(p.y)}


def _word_json(word) -> dict:
    return {"letters": list(word.letters), "mode": word.mode.value}


def _record_json(word: tuple, point: ProjPoint) -> dict:
    return {"word": list(word), "n": len(word), **_point_json(point)}


def _interval_json(est, prec: int) -> dict:
    return {"lo": est.lo(prec), "hi": est.hi(prec), "depth": est.depth,
            "targetMet": est.target_met}


def _estimate_json(est, prec: int) -> dict:
    return {**_interval_json(est, prec), "certified": est.certified}


def _hypotheses_json(report) -> dict:
    out = {"repeatedPointFree": report.repeated_point_free,
           "totallyRamifiedFree": report.totally_ramified_free,
           "depthChecked": report.depth_checked}
    if report.repeat_witness:
        w1, w2, pt = report.repeat_witness
        out["repeatWitness"] = {"word1": list(w1), "word2": list(w2), **_point_json(pt)}
    if report.ramified_witness:
        idx, pt, w = report.ramified_witness
        out["ramifiedWitness"] = {"mapIndex": idx, "word": list(w), **_point_json(pt)}
    return out


def _orbit_rows(nodes, prec: int):
    """Rows (word, n, x, y, height_nats) of the (word, point) pairs, one at a
    time, so the writer never holds the formatted dump."""
    for word, point in nodes:
        yield ("".join(str(c) for c in word), len(word), *_point_json(point).values(),
               repr(point.height().to_float(prec)))


def _orbit_csv(path: Path, prec: int, nodes) -> range:
    """The orbit dump's fold (see orbits.enumerate_tree): each (word, point)
    pair is written to the CSV at path as it streams from the walk.  The
    range over the rows written stands for the pairs, which are not held."""
    return range(_write_csv(path, ("word", "n", "x", "y", "height_nats"),
                            _orbit_rows(nodes, prec)))


def _kappa_json(kappa) -> dict:
    return {"mode": kappa.mode.value, "kappa1": kappa.kappa1,
            "kappa2": float(kappa.kappa2)}


def _census_bounds_json(cors, parameters: dict) -> dict:
    return {"singleOrbit": cors.single_orbit,
            "treeDepthCutoff": cors.tree_depth_cutoff,
            "treeCount": cors.tree_count, "parameters": parameters}


# Each handler takes (config, workers, csv) and returns (report payload,
# summary line).  csv is the path of the report's CSV, which a handler with a
# table writes itself; main adds the metadata, writes the JSON report and
# prints the summary.


def _cmd_orbit(config: ExperimentConfig, workers: int, csv: Path):
    """The orbit report, whose CSV it writes itself: the rows stream from the
    walk into a partial file beside csv, which replaces csv only once the
    hypothesis scan is done, so an abort in the walk or in the scan leaves
    no CSV.  The partial file is removed on any error."""
    part = csv.with_name(f"{csv.name}.{os.getpid()}.part")
    try:
        records = enumerate_tree(config.system, config.point, config.depth,
                                 dedupe=config.dedupe, limits=config.limits,
                                 workers=workers,
                                 fold=partial(_orbit_csv, part, config.precision_bits))
        hypotheses = hypothesis_check(config.system, config.point_a, config.depth,
                                      limits=config.limits)
        os.replace(part, csv)
    finally:
        part.unlink(missing_ok=True)
    payload = {
        "recordCount": len(records),
        "dedupe": config.dedupe,
        "depth": config.depth,
        "hypotheses": _hypotheses_json(hypotheses),
        "csv": csv.name,
    }
    return payload, (f"orbit: {len(records)} records to depth {config.depth} "
                     f"(hypotheses verified to depth {hypotheses.depth_checked}, "
                     f"not a proof)")


def _height_report(sub: str, config: ExperimentConfig, est, **extra):
    estimate = _estimate_json(est, config.precision_bits)
    payload = {"point": _point_json(config.point), "cMode": config.c_mode,
               "estimate": estimate, **extra}
    return payload, (f"{sub}: [{estimate['lo']:.12g}, {estimate['hi']:.12g}] "
                     f"at depth {est.depth}")


def _cmd_canonical(config: ExperimentConfig, workers: int, csv: Path):
    est = canonical_height_word(Orbit(config.system, config.word, config.point),
                                depth=config.height_depth,
                                bounds=system_bounds(config.system, config.c_mode),
                                limits=config.limits)
    return _height_report("canonical", config, est, word=_word_json(config.word),
                          degreeProduct=int_text(est.degree_product))


def _cmd_system_height(config: ExperimentConfig, workers: int, csv: Path):
    est = canonical_height_system(config.system, config.point, config.depth,
                                  bounds=system_bounds(config.system, config.c_mode),
                                  limits=config.limits,
                                  prec=config.precision_bits, workers=workers)
    return _height_report("system-height", config, est)


def _cmd_gamma(config: ExperimentConfig, workers: int, csv: Path):
    prec = config.precision_bits
    bounds = system_bounds(config.system, config.c_mode)
    record = gamma_set(config.system, config.word, config.places,
                       config.point_a, config.point, config.epsilon,
                       config.depth, bounds=bounds, prec=prec,
                       limits=config.limits)
    payload = {
        "word": _word_json(record.word),
        "A": _point_json(record.base),
        "P": _point_json(record.point),
        "S": [str(v) for v in record.places],
        "epsilon": str(record.epsilon),
        "depth": record.depth,
        "preperiodic": record.preperiodic,
        "height": _estimate_json(record.height, prec),
        "members": [{"n": n, "verdict": v.value} for n, v in record.members],
    }
    verdicts = "".join({"in": "I", "out": "O", "ambiguous": "?"}[v.value]
                       for _, v in record.members)
    return payload, f"gamma: verdicts {verdicts} (n=0..{record.depth})"


def _census_bound(config: ExperimentConfig, params: BoundParameters, bounds):
    """(hmin scan, census count bounds) under the run's cMode constants
    `bounds`; the count bounds are None when S lacks the archimedean place
    (a census the program refuses to run), or when the scan finds a
    preperiodic word or a lower endpoint that is not positive."""
    prec = config.precision_bits
    hmin = hmin_estimate(config.system, config.point, config.hmin_period_bound,
                         config.height_depth, bounds=bounds, prec=prec,
                         limits=config.limits)
    lo = hmin.estimate.lo(prec)
    if not config.places.contains_infinite or hmin.preperiodic or lo <= 0:
        return hmin, None
    h_f = system_height(config.system).to_float(prec)
    return hmin, census_count_bounds(config.system, len(config.places), h_f, lo,
                                     params)


def _cmd_census(config: ExperimentConfig, workers: int, csv: Path):
    params = config.bound_parameters
    if params is not None:
        # The tree cap and then the hmin scan's cap, both before the walk, so
        # a bound over the cap costs no tree work.
        config.limits.check_nodes(config.system.k, config.depth)
        config.limits.check_scan(config.system.k, config.hmin_period_bound,
                                 config.height_depth)
    hits = s_integral_census(config.system, config.point, config.places,
                             config.depth, limits=config.limits, workers=workers)
    payload = {
        "S": [str(v) for v in config.places],
        "depth": config.depth,
        "count": len(hits),
        "hits": [_record_json(word, point) for word, point in hits],
    }
    if params is not None:
        _, cors = _census_bound(config, params,
                                system_bounds(config.system, config.c_mode))
        if cors is not None:
            payload.update(bound=cors.tree_count,
                           boundDetail=_census_bounds_json(cors, params._asdict()))
    return payload, f"census: {len(hits)} S-integral points to depth {config.depth}"


def _cmd_ratios(config: ExperimentConfig, workers: int, csv: Path):
    prec = config.precision_bits
    terms = ratio_series(config.system, config.word, config.point,
                         config.depth, prec=prec, limits=config.limits)
    payload = {
        "terms": [{"n": t.n, "ratio": t.ratio, "verdict": t.verdict} for t in terms],
    }
    if config.averaged_level is not None:
        avg = averaged_ratio(config.system, config.point, config.averaged_level,
                             prec=prec, limits=config.limits)
        payload["averaged"] = {"level": avg.level, "mean": avg.mean,
                               "totalWords": avg.total_words, "excluded": avg.excluded}
    _write_csv(csv, ("n", "a_bits", "b_bits", "ratio", "verdict"),
               ((t.n, t.num_bits, t.den_bits, "" if t.ratio is None else repr(t.ratio),
                 t.verdict) for t in terms))
    payload["csv"] = csv.name
    defined = [t.ratio for t in terms if t.ratio is not None]
    last = f"{defined[-1]:.6g}" if defined else "none"
    return payload, f"ratios: {len(terms)} terms, last defined ratio {last}"


def _cmd_bounds(config: ExperimentConfig, workers: int, csv: Path):
    prec = config.precision_bits
    params = config.bound_parameters or BoundParameters()
    parameters = params._asdict()
    system = config.system
    bounds_list = system_bounds(system, config.c_mode)
    h_f = system_height(system).to_float(prec)

    est_p = canonical_height_word(Orbit(system, config.word, config.point),
                                  depth=config.height_depth, bounds=bounds_list,
                                  limits=config.limits)
    est_a = canonical_height_system(system, config.point_a,
                                    depth=min(config.depth, 6),
                                    bounds=bounds_list, limits=config.limits,
                                    prec=prec)
    hmin, cors = _census_bound(config, params, bounds_list)

    kappa_nt = kappa_constants(system, RamificationMode.NOT_TOTALLY_RAMIFIED)
    kappa_do = kappa_constants(system, RamificationMode.DISTINCT_ORBIT)
    chosen = choose_m(config.epsilon, kappa_nt)
    payload = {
        "systemHeight": h_f,
        "kappa": {"notTotallyRamified": _kappa_json(kappa_nt),
                  "distinctOrbit": _kappa_json(kappa_do)},
        "thresholdM": {"m": chosen.m, "smallCaseBound": chosen.small_case_bound},
        "compositionHeightBound": {
            str(n): prop_composition_height_bound(n, system.max_degree,
                                                  system_height(system)).to_float(prec)
            for n in range(1, 5)
        },
        "heightP": _estimate_json(est_p, prec),
        "heightA": _estimate_json(est_a, prec),
        "hmin": {**_interval_json(hmin.estimate, prec),
                 "witnessWord": _word_json(hmin.witness_word),
                 "preperiodic": hmin.preperiodic,
                 "wordsScanned": hmin.words_scanned},
        "parameters": parameters,
    }
    if est_p.lo(prec) > 0:
        gb = gamma_count_bound(system, len(config.places), config.epsilon,
                               est_a.hi(prec), h_f, est_p.lo(prec), params)
        payload["gammaBound"] = {"tailCount": gb.tail_count, "maxN": gb.max_n,
                                 "total": gb.total, "m": gb.m,
                                 "parameters": parameters}
    if cors is not None:
        payload["censusBounds"] = _census_bounds_json(cors, parameters)
    return payload, f"bounds: m={chosen.m}, hmin lo={payload['hmin']['lo']:.6g}"


def _cmd_verify(seed: int, prec: int):
    results = run_all(seed=seed, prec=prec)
    width = max(len(name) for name, _, _ in results)
    lines = [f"{name:<{width}}  {'pass' if ok else 'FAIL'}  {detail}"
             for name, ok, detail in results]
    passed = sum(ok for _, ok, _ in results)
    payload = {"results": [{"suite": name, "passed": ok, "detail": detail}
                           for name, ok, detail in results]}
    lines.append(f"verify: {passed}/{len(results)} suites passed")
    return payload, "\n".join(lines)


_SUBCOMMANDS = {
    "orbit": _cmd_orbit,
    "canonical": _cmd_canonical,
    "system-height": _cmd_system_height,
    "gamma": _cmd_gamma,
    "census": _cmd_census,
    "ratios": _cmd_ratios,
    "bounds": _cmd_bounds,
}


class _Parser(argparse.ArgumentParser):
    """argparse's parser, whose usage errors also end stderr with the JSON
    line of a validation error; they still exit 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(2, f"{self.prog}: error: {message}\n"
                     f"{_error_json('validation', message)}\n")


_DIGITS = re.compile(r"\s*[+-]?([0-9]+)\s*")


def _int_option(text: str) -> int:
    """An integer option's value, read as argparse's type=int reads it.  A
    number too long for int() is named by its length, as a config field
    names one, and so is any other text over 100 characters: neither is
    echoed."""
    try:
        return int(text)
    except ValueError:
        digits = _DIGITS.fullmatch(text)
        if digits:   # over the interpreter's digit limit, left as set
            raise argparse.ArgumentTypeError(
                f"an integer of {len(digits.group(1))} digits, too long to read") from None
        shown = repr(text) if len(text) <= 100 else f"a text of {len(text)} characters"
        raise argparse.ArgumentTypeError(f"invalid int value: {shown}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="orbitint",
        description="Exact heights, semigroup orbits, and integral-point censuses over Q")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in list(_SUBCOMMANDS) + ["verify"]:
        p = sub.add_parser(name)
        if name != "verify":
            p.add_argument("--config", required=True, help="JSON experiment config")
            if name != "canonical":   # it walks heightDepth steps
                p.add_argument("--depth", type=_int_option, default=None,
                               help="override config depth")
            p.add_argument("--workers", type=_int_option, default=1)
        p.add_argument("--seed", type=_int_option, default=0)
        p.add_argument("--precision", type=_int_option, default=None,
                       help="override precision bits")
        p.add_argument("--out", default="reports", help="report directory")
    return parser


def _check_out(out: Path) -> None:
    """--out must name a directory, or a path whose nearest existing part is
    one: a ConfigError before any work."""
    existing = next(path for path in (out, *out.parents) if path.exists())
    if not existing.is_dir():
        raise ConfigError(f"--out {out}: {existing} is not a directory")


def _error_json(kind: str, exc: Exception | str) -> str:
    return json.dumps({"error": str(exc), "kind": kind}, sort_keys=True)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out = Path(args.out)
    try:
        _check_out(out)
        if args.seed < 0:   # random.Random(-s) is random.Random(s)
            raise ConfigError("--seed must be a nonnegative integer")
        if args.subcommand == "verify":
            config_hash = None
            prec = DEFAULT_PRECISION if args.precision is None else args.precision
            if prec < MIN_PRECISION:
                raise ConfigError(f"--precision must be an integer >= {MIN_PRECISION}")
            payload, summary = _cmd_verify(args.seed, prec)
            stem = f"verify_seed{args.seed}"
        else:
            if args.workers < 1:
                raise ConfigError("--workers must be an integer >= 1")
            config = load_config(args.config)
            overrides = {key: value for key, value in
                         (("depth", getattr(args, "depth", None)),
                          ("precisionBits", args.precision))
                         if value is not None}
            if overrides:
                config = parse_config({**config.raw, **overrides})
            # The tree fans out by first letter, so more than k workers sit idle.
            workers = min(args.workers, config.system.k, os.cpu_count() or 1)
            config_hash = config.canonical_hash()
            stem = f"{args.subcommand}_{config_hash}"
            payload, summary = _SUBCOMMANDS[args.subcommand](config, workers,
                                                             out / f"{stem}.csv")
            prec = config.precision_bits
        payload["meta"] = _report_meta(args.subcommand, config_hash, args.seed, prec)
        _write_json(out / f"{stem}.json", payload)
        print(f"{summary} -> {out / (stem + '.json')}")
        # Only verify reports carry suite results; a failed suite exits 1.
        return 0 if all(r["passed"] for r in payload.get("results", ())) else 1
    except ValueError as exc:
        print(_error_json("validation", exc), file=sys.stderr)
        return 2
    except WorkLimitExceeded as exc:
        print(_error_json("work-limit", exc), file=sys.stderr)
        return 3
    except Exception as exc:  # a fault of the program, not of the input
        import traceback  # only here: the import would add to every start-up

        traceback.print_exc(file=sys.stderr)
        # An exception with no text (a MemoryError, say) is named by its type.
        print(_error_json("internal", exc if str(exc) else type(exc).__name__), file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
