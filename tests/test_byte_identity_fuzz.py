"""A seeded differential fuzzer of byte identity: enclosures and workers
change which points get built, never what a run reports.

Each case is a shipped config mutated by the exit-contract fuzzer's
`_mutate` (see test_config_fuzz.py), with deeper trees and a larger bit cap
so that nodes past the enclosure threshold occur.  It runs through
`cli.main` with polys.ENCLOSE_BITS at 2^62 (nothing enclosed), at its
shipped value and at 0 (every node enclosed), and the tree subcommands also
with --workers 2.  Every run of a case must end with the same exit code,
the same last stderr line and the same report bytes.
"""

import hashlib
import json
import random

from orbitint import polys
from orbitint.cli import main
from test_config_fuzz import CONFIGS, SUBCOMMANDS, _mutate

CASES = 40
GATES = (1 << 62, polys.ENCLOSE_BITS, 0)
TREE_SUBCOMMANDS = {"orbit", "system-height", "census"}


def outcome(argv, out, capsys):
    """(exit code, last stderr line, sha256 of each report) of one run."""
    code = main(argv + ["--out", str(out)])
    err = capsys.readouterr().err.strip().splitlines()
    reports = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in sorted(out.iterdir())} if out.exists() else {}
    return code, err[-1] if err else "", reports


def test_reports_do_not_depend_on_the_enclosure_gate_or_the_workers(tmp_path, capsys,
                                                                    monkeypatch):
    rng = random.Random(20231)
    shipped = [json.loads(path.read_text(encoding="utf-8")) for path in CONFIGS]
    codes = set()
    for case in range(CASES):
        cfg = _mutate(rng, rng.choice(shipped))
        cfg["depth"] = rng.randrange(3, 8)
        cfg["heightDepth"] = rng.randrange(4, 12)
        cfg["workLimits"] = {"bitCap": 5 * 10 ** 4, "nodeCap": 5000}
        path = tmp_path / f"case{case}.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        sub = SUBCOMMANDS[case % len(SUBCOMMANDS)]
        runs = []
        for gate in GATES:
            monkeypatch.setattr(polys, "ENCLOSE_BITS", gate)
            for workers in (1, 2) if sub in TREE_SUBCOMMANDS else (1,):
                argv = [sub, "--config", str(path), "--workers", str(workers)]
                runs.append(outcome(argv, tmp_path / f"out{case}_{gate}_{workers}", capsys))
        assert all(run == runs[0] for run in runs), (sub, cfg, runs)
        codes.add(runs[0][0])
    assert {0, 3} <= codes
