"""Every top-level function and class in src/orbitint, and every non-dunder
method of those classes, has a caller in the program: no helper that nothing
calls.

A definition counts as called only when `__all__` names it or when code in
src/orbitint refers to it outside the definition's own body.  Tests, the
benchmark and import statements are not callers.  A top-level definition is
referred to by its name, as an attribute (`polys.strip`) or as a string; a
method only as an attribute (`self.lo()`) or a string (a name that
`getattr` reads), never by a bare local name that happens to match.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "orbitint"


def _definitions(tree):
    """(qualified name, definition node, is a method) for each definition."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node, False
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, ast.FunctionDef) and not member.name.startswith("__"):
                    yield f"{node.name}.{member.name}", member, True


def _public_names(init_tree):
    for node in init_tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
            return {elt.value for elt in node.value.elts}
    return set()


def _uncalled(trees: dict) -> list:
    """Definitions of the module trees {stem: ast.Module} that nothing calls;
    the "__init__" tree's __all__ names the public ones."""
    public = _public_names(trees["__init__"])
    refs: dict[str, list] = {}   # name -> [(node, by a bare name)]
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs.setdefault(node.id, []).append((node, True))
            elif isinstance(node, ast.Attribute):
                refs.setdefault(node.attr, []).append((node, False))
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                refs.setdefault(node.value, []).append((node, False))
    unused = []
    for stem, tree in trees.items():
        for qualified, definition, is_method in _definitions(tree):
            name = qualified.rsplit(".", 1)[-1]
            if not is_method and name in public:
                continue
            inside = {id(node) for node in ast.walk(definition)}
            if not any(id(node) not in inside and not (is_method and bare)
                       for node, bare in refs.get(name, ())):
                unused.append(f"{stem}.{qualified}")
    return unused


def test_every_definition_has_a_caller():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    assert _uncalled(trees) == []


def test_guard_ignores_recursion_imports_and_bare_local_names():
    toy = ("def lonely(n):\n    return lonely(n - 1)\n\n"
           "class Box:\n    def width(self):\n        return 1\n\n"
           "    def lo(self):\n        return 0\n\n"
           "def user():\n    width = 2\n    return Box().lo() + width\n")
    trees = {"__init__": ast.parse("from .toy import lonely, user\n__all__ = ['user']"),
             "toy": ast.parse(toy)}
    assert _uncalled(trees) == ["toy.lonely", "toy.Box.width"]
