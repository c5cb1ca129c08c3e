"""cli is the one module that knows the report schema: no other module in
src/orbitint defines a serializer (to_json, to_csv_row or a *_rows
generator) or names the reportSchema field."""

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "orbitint").glob("*.py"))
TREES = {path: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}


def _is_serializer(name):
    return name in ("to_json", "to_csv_row") or name.endswith("_rows")


def test_serializers_only_in_cli():
    outside = [f"{path.stem}.{node.name}" for path, tree in TREES.items()
               if path.stem != "cli" for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
               and _is_serializer(node.name)]
    assert outside == []


def test_report_schema_named_only_in_cli():
    naming = sorted({path.stem for path, tree in TREES.items() for node in ast.walk(tree)
                     if isinstance(node, ast.Constant) and node.value == "reportSchema"})
    assert naming == ["cli"]
