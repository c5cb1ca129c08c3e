"""Steadiness check: spread of each end-to-end metric over several seeds.

    python3 perfbench/steady.py

Runs `run.py` once per seed (seeds 1..10) on each workload for the
`run_seconds` of BENCHMARK.json, as separate processes, and prints for every end-to-end metric the median and the
interquartile range as a share of the median, next to the bound in
BENCHMARK.json.  It then makes two traced runs of seed 1 per workload and
fails if their work counts (nodes, eval_point calls, peak coordinate bits,
report bytes) differ: a count that varies is a bug, not noise.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10
WORK_KEYS = ("work.nodes", "ratmap.eval_point.calls", "ratmap.eval_point.out_bits_max",
             "cli.report_bytes")


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=200, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> tuple[float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        results = [bench(workload, seed, seconds, 0) for seed in range(1, RUNS + 1)]
        if not all(r["correct"] for r in results):
            print(f"{workload}: a run failed its check")
            ok = False
        for name, bound in bounds.items():
            med, share = spread([r["metrics"][name]["value"] for r in results])
            flag = "" if share < bound / 3 else "  <-- above a third of the bound"
            print(f"{workload:<20} {name:<12} median={med:.6g} iqr/median={share:.4f} "
                  f"bound={bound}{flag}")
        traced = [bench(workload, 1, seconds, 1) for _ in range(2)]
        counts = [{k: r["metrics"][k]["value"] for k in WORK_KEYS} for r in traced]
        same = counts[0] == counts[1]
        ok = ok and same and all(r["correct"] for r in traced)
        print(f"{workload:<20} work counts {'identical' if same else 'DIFFER'}: {counts[0]}"
              + ("" if same else f" vs {counts[1]}"))
        print(f"{workload:<20} trace overhead_s="
              f"{[round(r['metrics']['trace.overhead_s']['value'], 4) for r in traced]}",
              flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
