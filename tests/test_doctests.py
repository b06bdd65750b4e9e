"""Checks over the package source: docstring examples and invariant checks."""

import ast
import doctest
from pathlib import Path

import kinks.algebra
import kinks.core
import kinks.genfunc
import kinks.oracle
import kinks.treedp


def test_module_doctests():
    for module in (
        kinks.core,
        kinks.oracle,
        kinks.treedp,
        kinks.algebra,
        kinks.genfunc,
    ):
        result = doctest.testmod(module)
        assert result.failed == 0, module.__name__
        assert result.attempted > 0, module.__name__


def test_no_assert_statements_in_the_package():
    # invariant checks must raise, so that they still run under python -O
    package = Path(kinks.core.__file__).parent
    sources = sorted(package.glob("*.py"))
    assert sources
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
