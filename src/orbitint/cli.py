"""Batch front door: experiment configs in, deterministic reports out.

Reports are JSON (CSV for series), written under the output directory with
the subcommand name and a hash of the config in the filename.  Identical
(config, seed, version) triples produce byte-identical reports regardless of
the worker count.  Exit codes: 0 success, 1 a failed verify suite,
2 validation error, 3 work-limit abort.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
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
from .orbits import enumerate_tree, hypothesis_check, orbit_csv_rows
from .proj1 import int_text
from .ratmap import system_height
from .verify import run_all


def _report_meta(sub: str, config: ExperimentConfig | None, seed: int, prec: int) -> dict:
    # Schema 2: integers above proj1.HEX_BITS bits are written as "0x..." hex.
    meta = {"version": __version__, "subcommand": sub, "seed": seed,
            "precisionBits": prec, "reportSchema": 2}
    if config is not None:
        meta["configHash"] = config.canonical_hash()
    return meta


def _write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    blob = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    path.write_text(blob, encoding="utf-8")


def _write_csv(path: Path, header: tuple, rows) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


# Each handler returns (report payload, CSV as (header, rows) or None, summary
# line); main adds the metadata, writes the files and prints the summary.


def _cmd_orbit(config: ExperimentConfig, workers: int):
    records = enumerate_tree(config.system, config.point, config.depth,
                             dedupe=config.dedupe, limits=config.limits,
                             workers=workers)
    table = (("word", "n", "x", "y", "height_nats"),
             orbit_csv_rows(records, config.precision_bits))
    hypotheses = hypothesis_check(config.system, config.point_a, config.depth,
                                  limits=config.limits)
    payload = {
        "recordCount": len(records),
        "dedupe": config.dedupe,
        "depth": config.depth,
        "hypotheses": hypotheses.to_json(),
    }
    return payload, table, (f"orbit: {len(records)} records to depth {config.depth} "
                            f"(hypotheses verified to depth {hypotheses.depth_checked}, "
                            f"not a proof)")


def _height_report(sub: str, config: ExperimentConfig, est, **extra):
    estimate = est.to_json(config.precision_bits)
    payload = {"point": config.point.to_json(), "cMode": config.c_mode,
               "estimate": estimate, **extra}
    return payload, None, (f"{sub}: [{estimate['lo']:.12g}, {estimate['hi']:.12g}] "
                           f"at depth {est.depth}")


def _cmd_canonical(config: ExperimentConfig, workers: int):
    est = canonical_height_word(config.system, config.word, config.point,
                                depth=config.height_depth,
                                bounds=system_bounds(config.system, config.c_mode),
                                prec=config.precision_bits,
                                limits=config.limits)
    return _height_report("canonical", config, est, word=config.word.to_json(),
                          degreeProduct=int_text(est.degree_product))


def _cmd_system_height(config: ExperimentConfig, workers: int):
    est = canonical_height_system(config.system, config.point, config.depth,
                                  bounds=system_bounds(config.system, config.c_mode),
                                  limits=config.limits,
                                  prec=config.precision_bits, workers=workers)
    return _height_report("system-height", config, est)


def _cmd_gamma(config: ExperimentConfig, workers: int):
    prec = config.precision_bits
    bounds = system_bounds(config.system, config.c_mode)
    record = gamma_set(config.system, config.word, config.places,
                       config.point_a, config.point, config.epsilon,
                       config.depth, bounds=bounds, prec=prec,
                       limits=config.limits)
    verdicts = "".join({"in": "I", "out": "O", "ambiguous": "?"}[v.value]
                       for _, v in record.members)
    return (record.to_json(prec), None,
            f"gamma: verdicts {verdicts} (n=0..{record.depth})")


def _census_bound(config: ExperimentConfig, params: BoundParameters, bounds):
    """(hmin scan, census count bounds) under the run's cMode constants
    `bounds`; the count bounds are None when the scan finds a preperiodic word
    or a lower endpoint that is not positive."""
    prec = config.precision_bits
    hmin = hmin_estimate(config.system, config.point, config.hmin_period_bound,
                         config.height_depth, bounds=bounds, prec=prec,
                         limits=config.limits)
    lo = hmin.estimate.lo(prec)
    if hmin.preperiodic or lo <= 0:
        return hmin, None
    h_f = system_height(config.system).to_float(prec)
    return hmin, census_count_bounds(config.system, len(config.places), h_f, lo,
                                     params)


def _cmd_census(config: ExperimentConfig, workers: int):
    census = s_integral_census(config.system, config.point, config.places,
                               config.depth, limits=config.limits,
                               workers=workers)
    payload = census.to_json()
    if config.bound_parameters is not None:
        _, cors = _census_bound(config, config.bound_parameters,
                                system_bounds(config.system, config.c_mode))
        if cors is not None:
            payload.update(bound=cors.tree_count, boundDetail=cors.to_json())
    return (payload, None,
            f"census: {census.count} S-integral points to depth {config.depth}")


def _cmd_ratios(config: ExperimentConfig, workers: int):
    prec = config.precision_bits
    terms = ratio_series(config.system, config.word, config.point,
                         config.depth, prec=prec, limits=config.limits)
    table = (("n", "a_bits", "b_bits", "ratio", "verdict"),
             [t.to_csv_row() for t in terms])
    payload = {
        "terms": [{"n": t.n, "ratio": t.ratio, "verdict": t.verdict} for t in terms],
    }
    if config.averaged_level is not None:
        avg = averaged_ratio(config.system, config.point, config.averaged_level,
                             prec=prec, limits=config.limits)
        payload["averaged"] = avg.to_json()
    defined = [t.ratio for t in terms if t.ratio is not None]
    last = f"{defined[-1]:.6g}" if defined else "none"
    return payload, table, f"ratios: {len(terms)} terms, last defined ratio {last}"


def _cmd_bounds(config: ExperimentConfig, workers: int):
    prec = config.precision_bits
    params = config.bound_parameters or BoundParameters()
    system = config.system
    bounds_list = system_bounds(system, config.c_mode)
    h_f = system_height(system).to_float(prec)

    est_p = canonical_height_word(system, config.word, config.point,
                                  depth=config.height_depth, bounds=bounds_list,
                                  prec=prec, limits=config.limits)
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
        "kappa": {"notTotallyRamified": kappa_nt.to_json(),
                  "distinctOrbit": kappa_do.to_json()},
        "thresholdM": {"m": chosen.m, "smallCaseBound": chosen.small_case_bound},
        "compositionHeightBound": {
            str(n): prop_composition_height_bound(n, system.max_degree,
                                                  system_height(system)).to_float(prec)
            for n in range(1, 5)
        },
        "heightP": est_p.to_json(prec),
        "heightA": est_a.to_json(prec),
        "hmin": {"lo": hmin.estimate.lo(prec), "hi": hmin.estimate.hi(prec),
                 "witnessWord": hmin.witness_word.to_json(),
                 "preperiodic": hmin.preperiodic,
                 "wordsScanned": hmin.words_scanned,
                 "depth": hmin.estimate.depth,
                 "targetMet": hmin.estimate.target_met},
        "parameters": params.to_json(),
    }
    if est_p.lo(prec) > 0:
        gamma_bound = gamma_count_bound(system, len(config.places),
                                        config.epsilon, est_a.hi(prec), h_f,
                                        est_p.lo(prec), params)
        payload["gammaBound"] = gamma_bound.to_json()
    if cors is not None:
        payload["censusBounds"] = cors.to_json()
    return payload, None, f"bounds: m={chosen.m}, hmin lo={payload['hmin']['lo']:.6g}"


def _cmd_verify(out: Path, seed: int, prec: int) -> int:
    results = run_all(seed=seed, prec=prec)
    width = max(len(name) for name, _, _ in results)
    for name, ok, detail in results:
        print(f"{name:<{width}}  {'pass' if ok else 'FAIL'}  {detail}")
    failures = sum(not ok for _, ok, _ in results)
    payload = {
        "meta": _report_meta("verify", None, seed, prec),
        "results": [{"suite": name, "passed": ok, "detail": detail}
                    for name, ok, detail in results],
    }
    _write_json(out / f"verify_seed{seed}.json", payload)
    print(f"verify: {len(results) - failures}/{len(results)} suites passed")
    return 0 if failures == 0 else 1


_SUBCOMMANDS = {
    "orbit": _cmd_orbit,
    "canonical": _cmd_canonical,
    "system-height": _cmd_system_height,
    "gamma": _cmd_gamma,
    "census": _cmd_census,
    "ratios": _cmd_ratios,
    "bounds": _cmd_bounds,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orbitint",
        description="Exact heights, semigroup orbits, and integral-point censuses over Q")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in list(_SUBCOMMANDS) + ["verify"]:
        p = sub.add_parser(name)
        if name != "verify":
            p.add_argument("--config", required=True, help="JSON experiment config")
            p.add_argument("--depth", type=int, default=None, help="override config depth")
            p.add_argument("--workers", type=int, default=1)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--precision", type=int, default=None,
                       help="override precision bits")
        p.add_argument("--out", default="reports", help="report directory")
    return parser


def _error_json(kind: str, exc: Exception) -> str:
    return json.dumps({"error": str(exc), "kind": kind}, sort_keys=True)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out = Path(args.out)
    try:
        if args.subcommand == "verify":
            prec = DEFAULT_PRECISION if args.precision is None else args.precision
            if prec < MIN_PRECISION:
                raise ConfigError(f"--precision must be an integer >= {MIN_PRECISION}")
            return _cmd_verify(out, args.seed, prec)
        if args.workers < 1:
            raise ConfigError("--workers must be an integer >= 1")
        config = load_config(args.config)
        overrides = {key: value for key, value in
                     (("depth", args.depth), ("precisionBits", args.precision))
                     if value is not None}
        if overrides:
            config = parse_config({**config.raw, **overrides})
        # The tree fans out by first letter, so more than k workers sit idle.
        workers = min(args.workers, config.system.k, os.cpu_count() or 1)
        payload, table, summary = _SUBCOMMANDS[args.subcommand](config, workers)
        stem = f"{args.subcommand}_{config.canonical_hash()}"
        if table is not None:
            _write_csv(out / f"{stem}.csv", *table)
            payload["csv"] = f"{stem}.csv"
        payload["meta"] = _report_meta(args.subcommand, config, args.seed,
                                       config.precision_bits)
        _write_json(out / f"{stem}.json", payload)
        print(f"{summary} -> {out / (stem + '.json')}")
        return 0
    except ValueError as exc:
        print(_error_json("validation", exc), file=sys.stderr)
        return 2
    except WorkLimitExceeded as exc:
        print(_error_json("work-limit", exc), file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
