"""Self-tests of the benchmark, at each config's shipped depth (quick).

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import check  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def _smoke(workload, trace):
    proc = _bench("--workload", workload, "--seed", "1", "--seconds", "0",
                  "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_prints_every_end_to_end_metric(workload):
    lines, result = _smoke(workload, 0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    assert all(v["value"] > 0 for v in result["metrics"].values())
    text = "\n".join(lines)
    for name in [*wanted, "fail_ratio"]:
        assert f"\n{name} " in "\n" + text
    env = json.loads(next(l for l in lines if l.startswith("environment "))[12:])
    assert set(env) == {"python", "mpmath", "mpmathBackend", "nproc", "gitCommit", "seed"}


# Tree nodes at the shipped depth 4 with two maps: 1 + 2 + ... + 2^4 = 31 per
# walk.  orbit-dump walks its tree twice; gamma-scan walks no tree.
SMOKE_NODES = {"census-tree": 31, "orbit-dump": 62, "gamma-scan": 0,
               "system-height-tree": 31}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_trace_prints_every_layer_metric(workload):
    _, result = _smoke(workload, 1)
    assert result["correct"]
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == wanted
    value = {k: v["value"] for k, v in metrics.items()}
    assert value["trace.self_sum_s"] <= value["trace.wall_s"]
    assert value["ratmap.eval_point.calls"] > 0
    assert value["work.nodes"] == SMOKE_NODES[workload]
    assert value["cli.calls"] >= 1 and value["config.load_config.self_s"] > 0


def test_benchmark_json_matches_the_code():
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == \
        [(w.name, w.why) for w in WORKLOADS.values()]
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.per_layer_units()
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))


def test_seed_selects_a_fixed_point():
    for w in WORKLOADS.values():
        base = json.loads((ROOT / w.config).read_text(encoding="utf-8"))["point"]
        assert w.point_for_seed(ROOT, 0) == str(base)
        assert all(w.point_for_seed(ROOT, s) in w.points for s in range(1, 9))
        assert w.point_for_seed(ROOT, 1) == w.point_for_seed(ROOT, 1 + len(w.points))
        refs = check.load_references()[w.name]
        for depth in (w.depth, w.shipped_depth(ROOT)):
            assert set(refs[str(depth)]) == {str(base), *w.points}


def _reports(tmp_path, workload):
    w = WORKLOADS[workload]
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "orbitint.cli", w.subcommand, "--config", w.config,
         "--out", str(out)], cwd=ROOT, capture_output=True, text=True, timeout=60,
        env={"PYTHONPATH": str(ROOT / "src"), "PATH": ""})
    assert proc.returncode == 0, proc.stderr
    base = json.loads((ROOT / w.config).read_text(encoding="utf-8"))["point"]
    expected = check.load_references()[workload][str(w.shipped_depth(ROOT))][str(base)]
    assert check.mismatches(expected, check.report_values(w.subcommand, out)) == []
    return out, expected


def _rewrite_json(path, edit):
    report = json.loads(path.read_text(encoding="utf-8"))
    edit(report)
    path.write_text(json.dumps(report), encoding="utf-8")


def test_checker_accepts_hex_and_rejects_a_flipped_hit(tmp_path):
    out, expected = _reports(tmp_path, "census-tree")
    path = next(out.glob("census_*.json"))

    def to_hex(report):
        for hit in report["hits"]:
            hit["x"], hit["y"] = hex(int(hit["x"])), hex(int(hit["y"]))
    _rewrite_json(path, to_hex)
    assert check.mismatches(expected, check.report_values("census", out)) == []

    def flip(report):
        report["hits"][-1]["x"] = hex(int(report["hits"][-1]["x"], 16) + 1)
    _rewrite_json(path, flip)
    assert check.mismatches(expected, check.report_values("census", out)) != []


def test_checker_rejects_a_flipped_verdict(tmp_path):
    out, expected = _reports(tmp_path, "gamma-scan")
    path = next(out.glob("gamma_*.json"))

    def flip(report):
        member = report["members"][1]
        member["verdict"] = "in" if member["verdict"] != "in" else "out"
    _rewrite_json(path, flip)
    assert any("verdicts" in m for m in check.mismatches(expected, check.report_values("gamma", out)))


def test_checker_reads_orbit_csv_values_not_bytes(tmp_path):
    out, expected = _reports(tmp_path, "orbit-dump")
    path = next(out.glob("orbit_*.csv"))
    header, *rows = path.read_text(encoding="utf-8").splitlines()
    hexed = []
    for row in rows:
        word, n, x, y, h = row.split(",")
        hexed.append(",".join([word, n, hex(int(x)), hex(int(y)), h]))
    path.write_text("\n".join([header, *hexed]) + "\n", encoding="utf-8")
    assert check.mismatches(expected, check.report_values("orbit", out)) == []
    word, n, x, y, h = hexed[-1].split(",")
    hexed[-1] = ",".join([word, n, hex(int(x, 16) - 1), y, h])
    path.write_text("\n".join([header, *hexed]) + "\n", encoding="utf-8")
    assert check.mismatches(expected, check.report_values("orbit", out)) != []


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "census-tree", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_checker_reports_a_missing_report_as_a_mismatch(tmp_path):
    with pytest.raises(ValueError):
        check.report_values("census", tmp_path)
