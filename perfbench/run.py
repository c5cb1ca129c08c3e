"""orbitint benchmark: one pinned CLI workload, timed end to end or traced.

    python3 perfbench/run.py --workload census-tree --seed 0 --seconds 25 --trace 0

Run from the repository root.  Each sample is a fresh single interpreter
(perfbench/child.py) that times set-up and then `orbitint.cli.main(argv)`
with `--workers 1`; this process measures its peak resident set, checks its
reports against perfbench/references.json outside the timed region, and
deletes them.  The last line of standard output is one JSON object:
end-to-end metrics with `--trace 0`, per-layer metrics with `--trace 1`.
Lines above it give every metric with its sample count and quartiles, the
environment, the work counts and the check result.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = HERE.parent
TMP = ROOT / ".perfbench_tmp"
# Set-up-only processes before the first sample and again after each sample.
# Host speed changes in bursts of a few seconds, so the probes are spread
# over the whole run rather than taken in one burst.
SETUP_PROBES = 4
HARD_LIMIT_S = 170.0    # a run ends well inside the 180 s it is allowed
POLL_S = 0.02

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    names = [f"{layer}.{q}" for layer in tracer.LAYERS for q in ("calls", "self_s")]
    for name, quantities in tracer.FUNCTION_METRICS:
        names += [f"{name}.{q}" for q in quantities]
    for name in tracer.BUCKETED:
        names += [f"{name}.self_s.{label}" for label, _ in tracer.BUCKETS]
    names += [f"logvals.sign_stage.{s}" for s in tracer.SIGN_STAGES]
    names += ["orbits.dedupe_kept_ratio", "work.nodes", "cli.report_write_s",
              "cli.report_bytes", "trace.wall_s", "trace.overhead_s", "trace.self_sum_s"]
    return {name: _unit(name) for name in names}


def _unit(name: str) -> str:
    last = name.rsplit(".", 1)[-1]
    if name.endswith("_s") or ".self_s." in name:
        return "s"
    if last in ("in_bits", "out_bits_max"):
        return "bit"
    if last == "report_bytes":
        return "byte"
    if last.endswith("ratio"):
        return "1"
    return "count"


class Sampler:
    """Starts fresh child processes for one run and collects their results."""

    def __init__(self, workdir: Path, config: Path, started: float):
        self.workdir = workdir
        self.config = config
        self.started = started
        self.count = 0
        # Byte-code caching stays on, so set-up is an import from cached byte
        # code as after an install; the warm-up sample writes the cache.
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)

    def run(self, argv=None, out_dir=None, spans=None, run_id="") -> dict | None:
        """One child; returns its result plus peak_rss_mb, or None if it died."""
        self.count += 1
        spec_path = self.workdir / f"spec{self.count}.json"
        result_path = self.workdir / f"result{self.count}.json"
        spec = {"config": str(self.config), "result": str(result_path), "run_id": run_id}
        if argv is not None:
            spec["argv"] = argv + ["--out", str(out_dir)]
            spec["spans"] = str(spans) if spans else None
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        timeout = max(1.0, HARD_LIMIT_S - (time.perf_counter() - self.started))
        with open(self.workdir / "stderr.txt", "w", encoding="utf-8") as err:
            proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), str(spec_path)],
                                    cwd=ROOT, env=self.env, stdout=subprocess.DEVNULL,
                                    stderr=err)
            usage = _wait(proc, timeout)
        if usage is None or proc.returncode != 0 or not result_path.exists():
            tail = (self.workdir / "stderr.txt").read_text(encoding="utf-8")[-2000:]
            print(f"sample {self.count} died (exit {proc.returncode}): {tail.strip()}")
            return None
        result = json.loads(result_path.read_text(encoding="utf-8"))
        result["peak_rss_mb"] = usage.ru_maxrss / 1024.0  # Linux reports KiB
        return result


def _wait(proc: subprocess.Popen, timeout: float):
    """Reap the child with its resource usage; kill it after the timeout."""
    deadline = time.monotonic() + timeout
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return usage
        if time.monotonic() > deadline:
            proc.kill()
            _, status, _ = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            return None
        time.sleep(POLL_S)


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _environment(seed: int) -> dict:
    import mpmath
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {"python": platform.python_version(), "mpmath": mpmath.__version__,
            "mpmathBackend": mpmath.libmp.BACKEND, "nproc": os.cpu_count(),
            "gitCommit": commit, "seed": seed}


def _report_bytes(out_dir: Path) -> int:
    return sum(p.stat().st_size for p in out_dir.iterdir() if p.is_file())


def measure(workload_name: str, seed: int, seconds: float, trace: bool,
            smoke: bool = False) -> dict:
    """Run one benchmark run and return its summary (see main for the output)."""
    started = time.perf_counter()
    workload = WORKLOADS[workload_name]
    point = workload.point_for_seed(ROOT, seed)
    depth = workload.shipped_depth(ROOT) if smoke else workload.depth
    expected = check.load_references()[workload.name][str(depth)][point]

    TMP.mkdir(exist_ok=True)
    workdir = TMP / f"{workload.name}-s{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    try:
        raw = json.loads((ROOT / workload.config).read_text(encoding="utf-8"))
        raw["point"] = point
        config = workdir / "config.json"
        config.write_text(json.dumps(raw), encoding="utf-8")
        argv = [workload.subcommand, "--config", str(config), "--depth", str(depth),
                "--seed", str(seed), "--workers", "1"]
        sampler = Sampler(workdir, config, started)
        sampler.run()  # warm-up: byte-compiles sources, untimed

        setups: list[float] = []

        def probe_setups() -> None:
            for _ in range(SETUP_PROBES):
                probe = sampler.run()
                if probe is not None:
                    setups.append(probe["setup_s"])

        samples: list[dict] = []    # every sample that exited 0, checked or not
        failures: list[str] = []
        attempts = 0

        def sample(spans=None) -> dict | None:
            nonlocal attempts
            attempts += 1
            out_dir = workdir / f"out{sampler.count + 1}"
            result = sampler.run(argv, out_dir, spans, f"{workload.name}-s{seed}")
            if result is None or result["rc"] != 0:
                failures.append(f"exit {None if result is None else result['rc']}")
                return None
            try:
                bad = check.mismatches(expected,
                                       check.report_values(workload.subcommand, out_dir))
            except ValueError as exc:
                bad = [str(exc)]
            result["report_bytes"] = _report_bytes(out_dir)
            result["ok"] = not bad
            shutil.rmtree(out_dir)
            if bad:
                failures.append("; ".join(bad))
            return result

        # The untraced samples fill the budget also with --trace 1, so that
        # trace.overhead_s compares the traced sample with a full median.
        loop_start = time.perf_counter()
        probe_setups()
        while True:
            t = time.perf_counter()
            result = sample()
            if result is not None:
                samples.append(result)
                setups.append(result["setup_s"])
            probe_setups()
            now = time.perf_counter()
            if now + (now - t) > loop_start + seconds or now - started > HARD_LIMIT_S / 2:
                break

        traced = None
        if trace:
            spans_path = workdir / "spans.jsonl"
            traced = sample(spans_path)
            if traced is not None:
                traced["layers"] = tracer.layer_metrics(tracer.read_spans(spans_path))

        return {"workload": workload.name, "seed": seed, "point": point, "depth": depth,
                "environment": _environment(seed), "setups": setups,
                "samples": samples, "traced": traced, "failures": failures,
                "attempted": attempts}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            TMP.rmdir()
        except OSError:
            pass


def summarize(run: dict, trace: bool) -> tuple[list[str], dict]:
    """Readable lines and the final result object for one run."""
    lines = [f"workload {run['workload']} seed {run['seed']} point {run['point']} "
             f"depth {run['depth']}",
             "environment " + json.dumps(run["environment"], sort_keys=True)]
    # Timings come from checked samples; if none passed, from all that ran,
    # so that a failing run still reports every metric.
    timed = [s for s in run["samples"] if s["ok"]] or run["samples"]
    columns = {
        "wall_s": [s["wall_s"] for s in timed],
        "setup_s": run["setups"],
        "peak_rss_mb": [s["peak_rss_mb"] for s in timed],
    }
    medians = {}
    for name, unit in END_TO_END:
        values = columns[name]
        if not values:
            lines.append(f"{name:<12} {unit:<3} n=0")
            continue
        q1, med, q3 = _quartiles(values)
        medians[name] = med
        lines.append(f"{name:<12} {unit:<3} n={len(values)} median={med:.6g} "
                     f"q1={q1:.6g} q3={q3:.6g}")
    failed, attempted = len(run["failures"]), run["attempted"]
    lines.append(f"{'fail_ratio':<12} {'1':<3} {failed}/{attempted} = "
                 f"{failed / attempted if attempted else 1.0:.6g}")
    for reason in run["failures"]:
        lines.append(f"failure: {reason}")
    work = {"reportBytes": sorted({s["report_bytes"] for s in run["samples"]})}

    if trace:
        traced = run["traced"]
        metrics = {}
        if traced is not None:
            wall = traced["wall_s"]
            layers = dict(traced["layers"])
            layers["cli.report_bytes"] = traced["report_bytes"]
            layers["trace.wall_s"] = wall
            layers["trace.overhead_s"] = wall - medians.get("wall_s", wall)
            work.update({"reportBytes": [traced["report_bytes"]],
                         "nodes": layers["work.nodes"],
                         "evalPointCalls": layers["ratmap.eval_point.calls"],
                         "peakBits": layers["ratmap.eval_point.out_bits_max"]})
            metrics = {name: {"value": layers[name], "unit": unit}
                       for name, unit in per_layer_units().items()}
            spans = [layer for layer in tracer.LAYERS]
            spans += [name for name, q in tracer.FUNCTION_METRICS if "calls" in q]
            for name in spans:
                self_s = layers[f"{name}.self_s"]
                lines.append(f"span {name:<34} calls={layers[name + '.calls']:<8} "
                             f"self_s={self_s:<10.4f} share={self_s / wall if wall else 0:.1%}")
            lines.append(f"trace wall_s={wall:.4f} overhead_s="
                         f"{layers['trace.overhead_s']:.4f}")
    else:
        metrics = {name: {"value": medians[name], "unit": unit}
                   for name, unit in END_TO_END if name in medians}
    lines.append("work " + json.dumps(work, sort_keys=True))
    result = {"correct": failed == 0 and attempted > 0, "attempted": max(attempted, 1),
              "failed": failed if attempted else 1, "metrics": metrics}
    return lines, result


def _checkout_ok() -> str | None:
    for need in ("src/orbitint/cli.py", "configs"):
        if not (ROOT / need).exists():
            return f"{ROOT / need} is missing; run from a full orbitint checkout"
    if not check.REFERENCES.exists():
        return f"{check.REFERENCES} is missing"
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="measuring time; 0 runs a single sample")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run at the config's shipped depth (a quick self-check)")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be nonnegative")
    problem = _checkout_ok()
    if problem:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 2
    run = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    lines, result = summarize(run, bool(args.trace))
    for line in lines:
        print(line)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
