"""An enclosure is certified to round to an integer's box in one place,
logvals.rounded_box: no other function in src/orbitint calls from_man_exp
with both round_floor and round_ceiling, so system-height leaf boxes and
deferred atoms cannot fork."""

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "orbitint").glob("*.py"))


def _rounding_modes(func):
    """The rounding-mode names passed to from_man_exp calls inside func."""
    modes = set()
    for node in ast.walk(func):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "from_man_exp"):
            modes |= {arg.id for arg in node.args + [k.value for k in node.keywords]
                      if isinstance(arg, ast.Name) and arg.id.startswith("round_")}
    return modes


def test_only_rounded_box_certifies_a_rounding():
    owners = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for func in ast.walk(tree):
            if (isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and {"round_floor", "round_ceiling"} <= _rounding_modes(func)):
                owners.append(f"{path.stem}.{func.name}")
    assert owners == ["logvals.rounded_box"]
