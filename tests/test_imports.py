"""The package's import graph: the counting routes stay independent."""

import ast
from pathlib import Path

import kinks

#: modules that hold a counting route: the oracles, the recurrences, and
#: the series and closed forms
ROUTE_MODULES = {"oracle", "treedp", "genfunc"}

#: the package modules each of these may import.  genfunc's edges to
#: algebra (for `bivariate_series`) and treedp (for `convergence_report`'s
#: default table) are the two that ROADMAP item 4 removes, once the
#: benchmark's tracer no longer binds those two functions.
ALLOWED = {
    "core": set(),
    "algebra": set(),
    "oracle": {"core"},
    "treedp": {"core"},
    "genfunc": {"core", "algebra", "treedp"},
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


GRAPH = {path.stem: _package_imports(path) for path in Path(kinks.__file__).parent.glob("*.py")}


def test_every_module_is_parsed():
    assert set(ALLOWED) | SEVERAL_ROUTES <= set(GRAPH)


def test_routes_import_only_what_they_are_allowed():
    assert {name: GRAPH[name] - allowed for name, allowed in ALLOWED.items()} == {
        name: set() for name in ALLOWED
    }


def test_only_the_front_ends_import_several_routes():
    several = {name for name, imports in GRAPH.items() if len(imports & ROUTE_MODULES) > 1}
    assert several <= SEVERAL_ROUTES
