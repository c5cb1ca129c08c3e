"""The config hash in report filenames and meta.configHash is the first 12
hex digits of the SHA-256 of the raw config as sorted, compact JSON.
`orbitint.config` takes it from the interpreter's built-in SHA-256 module;
`hashlib.sha256` is the reference here, for every shipped config, for
seeded mutations of them, and for the `hashlib` fallback of a build
without built-in hashes."""

import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

from orbitint.config import load_config, parse_config
from orbitint.errors import ConfigError
from test_config_fuzz import CONFIGS, _mutate

ROOT = Path(__file__).resolve().parents[1]
MUTATIONS = 200


def _reference(raw) -> str:
    blob = json.dumps(raw, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:12]


def test_shipped_configs_hash_as_hashlib():
    for path in CONFIGS:
        config = load_config(str(path))
        assert config.canonical_hash() == _reference(config.raw), path.name


def test_mutated_configs_hash_as_hashlib():
    rng = random.Random(35)
    shipped = [json.loads(path.read_text(encoding="utf-8")) for path in CONFIGS]
    hashed = set()
    for _ in range(MUTATIONS):
        try:
            config = parse_config(_mutate(rng, rng.choice(shipped)))
        except ConfigError:
            continue
        digest = config.canonical_hash()
        assert digest == _reference(config.raw), config.raw
        hashed.add(digest)
    assert len(hashed) > MUTATIONS // 4   # most mutations parse, and differ


def test_the_hashlib_fallback_gives_the_same_digest():
    config = ROOT / "configs" / "bounds_mixed.json"
    script = (
        "import json, sys\n"
        "sys.modules['_sha2'] = sys.modules['_sha256'] = None   # no built-in hashes\n"
        "from orbitint.config import load_config\n"
        "print(json.dumps([load_config(sys.argv[1]).canonical_hash(),\n"
        "                  'hashlib' in sys.modules]))\n")
    path = os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))
    run = subprocess.run([sys.executable, "-c", script, str(config)],
                         env={**os.environ, "PYTHONPATH": path}, capture_output=True,
                         text=True, timeout=60, check=True)
    digest, fell_back = json.loads(run.stdout.splitlines()[-1])
    assert fell_back
    assert digest == _reference(json.loads(config.read_text(encoding="utf-8")))
