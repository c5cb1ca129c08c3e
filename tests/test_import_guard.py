"""Records generate no code at import: no module of orbitint imports
`dataclasses` (or `inspect`, which it pulls in), and a fresh interpreter
that imports `orbitint.cli`, loads a shipped config and runs a census on
two workers has imported neither."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "orbitint"
BANNED = ("dataclasses", "inspect")


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


def test_the_cli_runs_without_dataclasses_or_inspect(tmp_path):
    config = ROOT / "configs" / "bounds_mixed.json"
    script = (
        "import json, sys\n"
        "import orbitint.cli\n"
        "from orbitint.config import load_config\n"
        f"load_config({str(config)!r})\n"
        f"banned = {BANNED!r}\n"
        "loaded = [name for name in banned if name in sys.modules]\n"
        "code = orbitint.cli.main(['census', '--config', sys.argv[1], '--depth', '4',\n"
        "                          '--workers', '2', '--out', sys.argv[2]])\n"
        "print(json.dumps([loaded, code, [name for name in banned if name in sys.modules]]))\n")
    path = os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))
    run = subprocess.run([sys.executable, "-c", script, str(config), str(tmp_path)],
                         env={**os.environ, "PYTHONPATH": path}, capture_output=True,
                         text=True, timeout=120, check=True)
    assert json.loads(run.stdout.splitlines()[-1]) == [[], 0, []]
