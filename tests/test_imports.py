"""The package's import graph: the counting routes stay independent."""

import ast
import os
import subprocess
import sys
from importlib import import_module
from itertools import combinations
from pathlib import Path

import pytest

import kinks

#: modules that hold a counting route: the oracles, the recurrences, and
#: the series and closed forms
ROUTE_MODULES = {"oracle", "treedp", "genfunc"}

#: the package modules each of these may import.  genfunc's edge to
#: algebra is the one left: `bivariate_series` builds a `TSeries`, and the
#: benchmark's tracer binds `bivariate_series`, so it stays until a change
#: to the benchmark lets ROADMAP item 4 delete it.
ALLOWED = {
    "core": set(),
    "algebra": {"core"},
    "oracle": {"core"},
    "treedp": {"core"},
    "genfunc": {"core", "algebra"},
    "routes": {"core"},
}

#: the modules that may import several routes: the table of routes, the
#: cross-checks, the front end, and the package's own surface
SEVERAL_ROUTES = {"routes", "verify", "cli", "__init__"}


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


def _named_modules(path: Path) -> set[str]:
    # the kinks modules a file names as strings, to be imported when first
    # used: each `_module("kinks.<stem>")` of the routes, and each stem of
    # the package's library
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_module":
            found.add(node.args[0].value.split(".")[1])
        elif isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "_LIBRARY":
            found.update(ast.literal_eval(node.value))
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
#: the kinks modules each module imports, by an import statement anywhere
#: in it, or by name, on first use
EAGER = {path.stem: _package_imports(path) for path in SOURCES}
NAMED = {path.stem: _named_modules(path) for path in SOURCES}
GRAPH = {stem: EAGER[stem] | NAMED[stem] for stem in EAGER}


def test_every_module_is_parsed():
    assert set(ALLOWED) | SEVERAL_ROUTES <= set(GRAPH)


def test_routes_import_only_what_they_are_allowed():
    assert {name: EAGER[name] - allowed for name, allowed in ALLOWED.items()} == {
        name: set() for name in ALLOWED
    }


def test_only_the_routes_and_the_surface_name_modules_as_strings():
    # the table of routes names each route's module, and the package each
    # library module; every other edge is an import statement
    library = set(GRAPH) - {"__init__", "__main__", "cli", "routes"}
    assert {name: named for name, named in NAMED.items() if named} == {
        "routes": ROUTE_MODULES, "__init__": library,
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


#: each route's entry points: the functions whose reach is the route
ROUTE_ENTRIES = {
    "scan": {"_brute_rows"},
    "walk": {"backtrack_count", "_backtrack_rows", "_emit_groups", "_emit_words"},
    "recurrence": {"_kink_rows"},
    "label tree": {"_label_levels"},
    "series": {"_series_rows"},
    "closed": {"_closed_rows"},
}

#: the package functions outside core that two routes both reach.  The
#: series entry is 4^d times the closed power sum, through the same
#: binomial products, so their agreement checks code, not mathematics: of
#: the five routes, four are independent.  Every other pair shares nothing
#: but core.
SHARED = {
    frozenset({"series", "closed"}): {"_powers", "_binomial_product", "_exact_count"},
}


def _route_functions() -> dict[str, tuple[str, set[str]]]:
    # every top-level function of the modules a route may import: its
    # module and each name its body reads, binds or looks up
    found = {}
    for module in ALLOWED:
        tree = ast.parse(Path(kinks.__file__).with_name(f"{module}.py").read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                assert node.name not in found, node.name  # a name resolves to one function
                found[node.name] = module, _names(node)
    return found


def _reach(entries: set[str], functions: dict[str, tuple[str, set[str]]]) -> set[str]:
    # the package functions that the entries reach by name, themselves included
    reached, pending = set(), list(entries)
    while pending:
        name = pending.pop()
        if name not in reached:
            reached.add(name)
            pending.extend(functions[name][1] & functions.keys())
    return reached


def test_the_routes_share_only_the_declared_functions():
    functions = _route_functions()
    reach = {
        route: {f for f in _reach(entries, functions) if functions[f][0] != "core"}
        for route, entries in ROUTE_ENTRIES.items()
    }
    assert reach["walk"] >= {"_moves", "_check_kinks"} and "_label_step" in reach["label tree"]
    shared = {frozenset(pair): reach[pair[0]] & reach[pair[1]] for pair in combinations(reach, 2)}
    assert {pair: names for pair, names in shared.items() if names} == SHARED


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


def test_the_package_surface_is_its_modules_all():
    # each public name is declared once, in its module's __all__: the first
    # touch of the package loads every library module and binds exactly
    # those names, each the module's own object
    modules = [import_module(f"kinks.{stem}") for stem in kinks._LIBRARY]
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


def _child(program: str, *argv: str) -> subprocess.CompletedProcess:
    # a fresh `python -S`, with this one's -O level, that finds the package
    # and no KINKS_BRUTE_CEILING
    env = {k: v for k, v in os.environ.items() if k != "KINKS_BRUTE_CEILING"}
    env["PYTHONPATH"] = str(Path(kinks.__file__).parent.parent)
    flags = ["-O"] * sys.flags.optimize
    return subprocess.run(
        [sys.executable, "-S", *flags, "-c", program, *argv],
        capture_output=True, text=True, env=env, check=True, timeout=120,
    )


#: the exit code of main(argv), then every module loaded, as stderr's last line
_LOADED = """
import sys
from kinks.cli import main
code = main(sys.argv[1:])
sys.stdout.flush()
print(code, *sorted(sys.modules), file=sys.stderr)
"""

#: what no counting route needs: the series ring, and the rationals of the
#: growth estimate and its deviations
NO_ROUTE = {"kinks.algebra", "fractions", "decimal"}
EVERY_MODULE = {f"kinks.{stem}" for stem in GRAPH if stem not in ("__init__", "__main__")}

#: each request, the modules it must load and those it must not
REQUESTS = {
    "count dp": (
        ("count", "--n", "10", "--d", "3", "--method", "dp"),
        {"kinks.cli", "kinks.routes", "kinks.treedp"},
        {"kinks.verify", "kinks.genfunc", "kinks.oracle", *NO_ROUTE},
    ),
    "table dp": (
        ("table", "--max-n", "30", "--method", "dp", "--format", "json"),
        {"kinks.treedp"},
        {"kinks.verify", "kinks.genfunc", "kinks.oracle", *NO_ROUTE},
    ),
    "count gf": (
        ("count", "--n", "10", "--d", "3", "--method", "gf"),
        {"kinks.genfunc"},
        {"kinks.verify", "kinks.oracle", *NO_ROUTE},
    ),
    "count closed": (
        ("count", "--n", "60", "--d", "7", "--method", "closed"),
        {"kinks.genfunc"},
        {"kinks.verify", "kinks.oracle", *NO_ROUTE},
    ),
    "enumerate": (
        ("enumerate", "--n", "7", "--d", "2", "--limit", "5"),
        {"kinks.oracle"},
        {"kinks.genfunc", "kinks.verify", *NO_ROUTE},
    ),
    "verify": (("verify", "--max-n-dp", "20"), EVERY_MODULE, set()),
}


@pytest.mark.parametrize("request_name", REQUESTS)
def test_a_request_loads_only_the_modules_it_runs(request_name):
    argv, loaded, absent = REQUESTS[request_name]
    code, *modules = _child(_LOADED, *argv).stderr.splitlines()[-1].split()
    assert code == "0"
    assert sorted(loaded - set(modules)) == []
    assert sorted(absent & set(modules)) == []


def test_the_package_loads_its_library_at_the_first_touch_of_its_surface():
    program = """
import sys
loaded = lambda: " ".join(sorted(m for m in sys.modules if m.startswith("kinks.")))
import kinks
print(loaded())
from kinks import dp_table
print(loaded())
"""
    bare, touched = _child(program).stdout.split("\n")[:2]
    # the library, and the table of routes that verify reads
    assert (bare, touched.split()) == ("", sorted(f"kinks.{stem}" for stem in (*kinks._LIBRARY, "routes")))
