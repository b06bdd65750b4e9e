"""The package's import graph: the counting routes stay independent."""

import ast
from pathlib import Path

import kinks

#: modules that hold a counting route: the oracles, the recurrences, and
#: the series and closed forms
ROUTE_MODULES = {"oracle", "treedp", "genfunc"}

#: the package modules each of these may import.  genfunc's edge to
#: algebra is the one left: `bivariate_series` builds a `TSeries`, and the
#: benchmark's tracer binds `bivariate_series`, so it stays until a change
#: to the benchmark lets ROADMAP item 5 delete it.
ALLOWED = {
    "core": set(),
    "algebra": {"core"},
    "oracle": {"core"},
    "treedp": {"core"},
    "genfunc": {"core", "algebra"},
}

#: the modules that may import several routes: the cross-checks, the front
#: end, and the package's own re-exports
SEVERAL_ROUTES = {"verify", "cli", "__init__"}


def _package_imports(path: Path) -> set[str]:
    # the kinks modules a file imports, relatively or by absolute name
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                found.add(node.module.split(".")[0])
            else:  # from . import genfunc
                found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("kinks."):
            found.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            found.update(
                alias.name.split(".")[1] for alias in node.names if alias.name.startswith("kinks.")
            )
    return found


def _int_type_checks(path: Path) -> list[int]:
    # the lines that compare a type(...) call with int, as in
    # `type(n) is not int`
    lines = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Compare):
            sides = [node.left, *node.comparators]
            typed = any(
                isinstance(side, ast.Call) and isinstance(side.func, ast.Name)
                and side.func.id == "type"
                for side in sides
            )
            if typed and any(isinstance(side, ast.Name) and side.id == "int" for side in sides):
                lines.append(node.lineno)
    return lines


SOURCES = sorted(Path(kinks.__file__).parent.glob("*.py"))
GRAPH = {path.stem: _package_imports(path) for path in SOURCES}


def test_every_module_is_parsed():
    assert set(ALLOWED) | SEVERAL_ROUTES <= set(GRAPH)


def test_routes_import_only_what_they_are_allowed():
    assert {name: GRAPH[name] - allowed for name, allowed in ALLOWED.items()} == {
        name: set() for name in ALLOWED
    }


def test_only_the_front_ends_import_several_routes():
    several = {name for name, imports in GRAPH.items() if len(imports & ROUTE_MODULES) > 1}
    assert several <= SEVERAL_ROUTES


def test_only_core_checks_for_exact_ints():
    # every other module goes through core.check_int, so the rule for an
    # integer argument lives in one place
    found = {path.stem: _int_type_checks(path) for path in SOURCES}
    assert found.pop("core")  # the gate itself
    assert found == {path.stem: [] for path in SOURCES if path.stem != "core"}


#: oracle.py holds two routes, which the import graph cannot tell apart:
#: each function's body may name none of the other route's functions
SCAN = {"_brute_row", "brute_force_table"}
WALK = {"_moves", "backtrack_count", "_emit_words", "enumerate_histories"}


def _names_in_functions(path: Path) -> dict[str, set[str]]:
    # every name read or bound in each top-level function, nested
    # functions included
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {
        node.name: {name.id for name in ast.walk(node) if isinstance(name, ast.Name)}
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
    }


def test_the_oracles_two_routes_share_no_function():
    names = _names_in_functions(Path(kinks.__file__).parent / "oracle.py")
    assert SCAN | WALK <= set(names)
    assert {f: names[f] & (WALK | {"_check_kinks"}) for f in SCAN} == {f: set() for f in SCAN}
    assert {f: names[f] & SCAN for f in WALK} == {f: set() for f in WALK}


def _names(node: ast.AST) -> set[str]:
    # every name a node reads, binds, imports or looks up as an attribute
    found = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            found.add(child.id)
        elif isinstance(child, ast.Attribute):
            found.add(child.attr)
        elif isinstance(child, ast.alias):
            found.add(child.name)
    return found


def test_every_private_helper_has_a_user_in_the_package():
    # no model code that no route uses: each private top-level def or class
    # is named somewhere in the package outside its own body
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES]
    statements = [node for tree in trees for node in tree.body]
    named = [_names(node) for node in statements]
    private = [
        (i, node.name)
        for i, node in enumerate(statements)
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_") and not node.name.endswith("__")
    ]
    assert {"_level_codes", "_label_step"} <= {name for _, name in private}
    unused = {
        name
        for i, name in private
        if not any(name in names for j, names in enumerate(named) if j != i)
    }
    assert unused == set()


def _star_imports(path: Path) -> list[str]:
    # the modules a file star-imports, in order
    return [
        node.module
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(node, ast.ImportFrom) and node.level
        and [alias.name for alias in node.names] == ["*"]
    ]


def test_the_package_surface_is_its_modules_all():
    # each public name is declared once, in its module's __all__: the package
    # star-imports every library module and re-exports exactly those names,
    # each the module's own object
    star = _star_imports(Path(kinks.__file__))
    assert set(star) == set(GRAPH) - {"__init__", "__main__", "cli"}  # all but the front ends
    modules = [getattr(kinks, name) for name in star]
    assert all(isinstance(module.__all__, list) for module in modules)
    names = [name for module in modules for name in module.__all__]
    assert kinks.__all__ == [*names, "__version__"]
    assert len(set(kinks.__all__)) == len(kinks.__all__)
    others = [
        (module.__name__, name)
        for module in modules
        for name in module.__all__
        if getattr(kinks, name) is not getattr(module, name)
    ]
    assert others == []
    namespace = {}
    exec("from kinks import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(kinks.__all__)
