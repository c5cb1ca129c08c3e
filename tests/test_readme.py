"""README's library tour runs, and its public API list is `orbitint.__all__`."""

import re
from pathlib import Path

import orbitint
from orbitint.logvals import LogExpr
from orbitint.proj1 import ProjPoint
from oracles import contains

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _section(title: str) -> str:
    return README.split(f"## {title}\n", 1)[1].split("\n## ", 1)[0]


def test_library_tour_runs():
    tour = re.search(r"```python\n(.*?)```", _section("Library tour"), re.S).group(1)
    namespace: dict = {}
    exec(compile(tour, "README.md", "exec"), namespace)
    assert contains(namespace["est"], LogExpr.log_int(2))
    assert [point for _, point in namespace["census"]] == [ProjPoint(16, 1),
                                                           ProjPoint(65536, 1)]


def test_public_api_list_is_all():
    bullets = _section("Public API").split("\n\n")[1]
    names = re.findall(r"`(\w+)`", re.sub(r"^- `\w+`:", "", bullets, flags=re.M))
    assert sorted(names) == sorted(orbitint.__all__)
