"""Every tree node expands through orbits.children, which only the walks
call: no function in src/orbitint recurses by name (so tree depth is never
bounded by the interpreter's recursion limit), inside orbits only the word
walk (orbits.Orbit), children and the one build of a point read unbuilt
(orbits.Lineage) evaluate a map, and a consumer settles
nodes only through its one test, which the engine's walks pass to
children: no consumer expands a last level on its own.  A settled leaf
that is built later is built by its stand-in, never by re-expanding its
node."""

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "orbitint").glob("*.py"))
TREES = {path: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}


def _calls_to(node, name):
    return [call for call in ast.walk(node)
            if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
            and call.func.id == name]


def _called_name(call):
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def _functions():
    """(qualified name, definition) of each top-level function and method."""
    for path, tree in TREES.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                yield f"{path.stem}.{node.name}", node
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, ast.FunctionDef):
                        yield f"{path.stem}.{node.name}.{member.name}", member


def _callers(name):
    return sorted(qualified for qualified, node in _functions()
                  for call in ast.walk(node)
                  if isinstance(call, ast.Call) and _called_name(call) == name)


def test_no_function_calls_itself():
    recursive = [f"{path.stem}.{node.name}" for path, tree in TREES.items()
                 for node in tree.body
                 if isinstance(node, ast.FunctionDef) and _calls_to(node, node.name)]
    assert recursive == []


def test_eval_point_only_in_word_walk_and_children():
    tree = next(tree for path, tree in TREES.items() if path.stem == "orbits")
    allowed = {id(call) for qualified, node in _functions()
               if qualified in ("orbits.Orbit.__getitem__", "orbits.children",
                                "orbits.Lineage.build")
               for call in _calls_to(node, "eval_point")}
    others = [call.lineno for call in _calls_to(tree, "eval_point")
              if id(call) not in allowed]
    assert len(allowed) == 3 and others == []


def test_one_word_walk():
    """orbits.Orbit is the one walk along a word and the one source of D_n:
    the retired word walk, the degree-product list and the running D_n are
    gone, and no function takes a memo list of orbit points in place of an
    Orbit."""
    names = {node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else node.id
             for tree in TREES.values() for node in ast.walk(tree)
             if isinstance(node, (ast.FunctionDef, ast.ClassDef, ast.Name))}
    memo = [node.name for tree in TREES.values() for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef)
            and "memo" in [a.arg for a in node.args.args + node.args.kwonlyargs]]
    assert (names & {"walk_word", "degree_products", "d_n"}, memo) == (set(), [])


def test_children_only_in_the_walks():
    assert _callers("children") == ["orbits.fold_tree", "orbits.walk_tree"]


def test_one_test_protocol():
    """The engine finds no second test on a consumer's test by name."""
    tree = next(tree for path, tree in TREES.items() if path.stem == "orbits")
    assert [call.lineno for call in ast.walk(tree) if isinstance(call, ast.Call)
            and _called_name(call) in ("getattr", "hasattr")] == []


def test_no_consumer_expands_a_last_level():
    """Only the engine checks a node's bits, and every tree walk in src goes
    to the depth its caller was given, never a level short of it."""
    assert _callers("check_bits") == ["orbits.children", "orbits.iterate_word"]
    walks = [(qualified, call) for qualified, node in _functions()
             for call in ast.walk(node) if isinstance(call, ast.Call)
             and _called_name(call) in ("walk_tree", "fold_tree", "enumerate_tree")]
    assert len(walks) >= 6
    for qualified, call in walks:
        depth = next((kw.value for kw in call.keywords if kw.arg == "depth"),
                     call.args[2] if len(call.args) > 2 else None)
        assert isinstance(depth, (ast.Name, ast.Attribute, ast.Constant)), \
            (qualified, ast.unparse(call))
