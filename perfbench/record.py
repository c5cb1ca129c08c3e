"""Record perfbench/references.json from the current code.

    python3 perfbench/record.py

Runs every workload once per starting point (the config's own point and
every seed point), at its pinned depth and at the config's shipped depth,
and stores the checked report values.  Only re-record when a change is meant
to alter reported values, and say so in the change.
"""

from __future__ import annotations

import json
import shutil
import time

import check
from run import ROOT, TMP, Sampler
from workloads import WORKLOADS


def record() -> None:
    refs = {}
    TMP.mkdir(exist_ok=True)
    workdir = TMP / "record"
    for name in sorted(WORKLOADS):
        workload = WORKLOADS[name]
        base = json.loads((ROOT / workload.config).read_text(encoding="utf-8"))
        points = list(dict.fromkeys([str(base["point"]), *workload.points]))
        by_depth = {}
        for depth in (workload.depth, workload.shipped_depth(ROOT)):
            by_depth[str(depth)] = {}
            for point in points:
                shutil.rmtree(workdir, ignore_errors=True)
                workdir.mkdir()
                config = workdir / "config.json"
                config.write_text(json.dumps(dict(base, point=point)), encoding="utf-8")
                out_dir = workdir / "out"
                argv = [workload.subcommand, "--config", str(config), "--depth",
                        str(depth), "--workers", "1"]
                result = Sampler(workdir, config, time.perf_counter()).run(argv, out_dir)
                if result is None or result["rc"] != 0:
                    raise SystemExit(f"{name} depth {depth} point {point} failed: {result}")
                values = check.report_values(workload.subcommand, out_dir)
                by_depth[str(depth)][point] = values
                print(f"{name} depth {depth} point {point}: {result['wall_s']:.3f} s {values}")
        refs[name] = by_depth
    shutil.rmtree(TMP, ignore_errors=True)
    check.REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n",
                                encoding="utf-8")


if __name__ == "__main__":
    record()
