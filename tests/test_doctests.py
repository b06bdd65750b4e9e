"""Checks over the package source: docstring examples and invariant checks."""

import ast
import doctest
import fractions
from pathlib import Path

import pytest

import kinks.algebra
import kinks.cli
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


def test_counting_routes_construct_no_fraction(monkeypatch):
    # every count is an integer, so no route may build a Fraction on the way
    def refuse(*args, **kwargs):
        raise AssertionError("a counting route constructed a Fraction")

    monkeypatch.setattr(fractions.Fraction, "__new__", refuse)
    with pytest.raises(AssertionError):
        fractions.Fraction(1, 2)
    for d in range(9):
        for n in range(1, 301):
            kinks.genfunc.closed_form(n, d)
    for method in ("dp", "gf", "closed"):
        list(kinks.cli.ROUTES[method].rows(range(2, 61), 0, 29))
    for d in range(9):
        kinks.genfunc.fixed_kinks_series(d, 60)
    kinks.genfunc.series_table(30, 8)
    for d in range(9):
        kinks.genfunc.series_count(60, d)
        kinks.treedp.dp_table(60, d)
    kinks.treedp.dp_table(60)
    for d in range(5):
        kinks.oracle.backtrack_count(9, d)
    kinks.oracle.brute_force_table(8)
