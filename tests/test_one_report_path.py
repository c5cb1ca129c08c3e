"""cli is the one module that knows the report schema: no other module in
src/orbitint defines a serializer (to_json, to_csv_row or a *_rows
generator) or names the reportSchema field, no module imports csv, and
cli._write_csv is the one function that opens a CSV file."""

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


def test_no_module_imports_csv():
    importing = sorted({path.stem for path, tree in TREES.items() for node in ast.walk(tree)
                        if (isinstance(node, ast.Import)
                            and any(alias.name.split(".")[0] == "csv" for alias in node.names))
                        or (isinstance(node, ast.ImportFrom)
                            and (node.module or "").split(".")[0] == "csv")})
    assert importing == []


def _call_name(call):
    return getattr(call.func, "id", None) or getattr(call.func, "attr", None)


def test_only_write_csv_opens_a_csv_file():
    # load_config opens the config to read it; the JSON reports go through
    # Path.write_text in _write_json.
    opening = sorted({f"{path.stem}.{func.name}" for path, tree in TREES.items()
                      for func in ast.walk(tree) if isinstance(func, ast.FunctionDef)
                      for node in ast.walk(func) if isinstance(node, ast.Call)
                      and _call_name(node) in ("open", "write_text", "write_bytes")})
    assert opening == ["cli._write_csv", "cli._write_json", "config.load_config"]
