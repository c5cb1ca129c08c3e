"""Two fixed costs stay out of every run.  Records generate no code at
import: no module of orbitint imports `dataclasses` (or `inspect`, which it
pulls in).  And the config hash comes from the interpreter's own SHA-256:
`hashlib` would load OpenSSL's libcrypto (through `_hashlib`), several MB of
resident memory in every run.  A fresh interpreter that imports
`orbitint.cli`, loads a shipped config, runs every config subcommand at the
config's depth and a census and a system height on two workers has
imported none of `dataclasses`, `inspect`, `hashlib`, `_hashlib` or
`ssl`."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "orbitint"
BANNED = ("dataclasses", "inspect")
NEVER_LOADED = BANNED + ("hashlib", "_hashlib", "ssl")
RUNS = (["orbit"], ["system-height"], ["gamma"], ["canonical"], ["ratios"], ["bounds"],
        ["census", "--depth", "4", "--workers", "2"], ["system-height", "--workers", "2"])


def _imported(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield node.module.split(".")[0]


def test_no_module_imports_dataclasses():
    found = sorted(f"{path.name}: {name}" for path in PACKAGE.glob("*.py")
                   for name in _imported(ast.parse(path.read_text(encoding="utf-8")))
                   if name in BANNED)
    assert found == []


def test_every_subcommand_runs_without_dataclasses_or_hashlib(tmp_path):
    config = ROOT / "configs" / "bounds_mixed.json"
    script = (
        "import json, sys\n"
        "import orbitint.cli\n"
        "from orbitint.config import load_config\n"
        f"load_config({str(config)!r})\n"
        f"banned = {NEVER_LOADED!r}\n"
        "loaded = [name for name in banned if name in sys.modules]\n"
        "codes = [orbitint.cli.main([argv[0], '--config', sys.argv[1], *argv[1:],\n"
        "                            '--out', sys.argv[2]])\n"
        f"         for argv in {RUNS!r}]\n"
        "print(json.dumps([loaded, codes, [name for name in banned if name in sys.modules]]))\n")
    path = os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))
    run = subprocess.run([sys.executable, "-c", script, str(config), str(tmp_path)],
                         env={**os.environ, "PYTHONPATH": path}, capture_output=True,
                         text=True, timeout=120, check=True)
    assert json.loads(run.stdout.splitlines()[-1]) == [[], [0] * len(RUNS), []]
