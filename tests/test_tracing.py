"""The benchmark tracer's targets must still exist in the package.

`perfbench/tracing.py` wraps library functions by (module, attribute) and
`TSeries` methods by name.  A target that a refactor removes or renames
would drop a traced layer without any error, so each one is resolved
here.  The tracer is loaded from its file and never edited.
"""

import contextlib
import importlib
import importlib.util
import io
from pathlib import Path

import pytest

# the tracer reads every module it wraps from sys.modules, and importing
# the CLI loads none of the others, treedp included
import kinks.algebra
import kinks.cli
import kinks.genfunc
import kinks.oracle
import kinks.treedp
import kinks.verify

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_resolve_on_the_package():
    tracing = _load_tracing()
    for name, (module, attr) in tracing.FUNCTIONS.items():
        assert callable(getattr(importlib.import_module(module), attr, None)), name
    for name, attr in tracing.METHODS.items():
        assert callable(getattr(kinks.algebra.TSeries, attr, None)), name


def test_tracer_wraps_and_restores_the_inherited_series_methods():
    tracing = _load_tracing()
    TSeries, TruncPoly = kinks.algebra.TSeries, kinks.algebra.TruncPoly
    methods = (TSeries.__mul__, TSeries.inverse, TruncPoly.__mul__, TruncPoly.inverse)
    series = TSeries((TruncPoly.one(2), TruncPoly((1, 2), 2)), 3, 2)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        series * series
        series.inverse()
    finally:
        tracer.uninstall()
    layers = tracer.layer_metrics()
    assert layers["algebra.tseries_mul.calls"] == 1
    assert layers["algebra.tseries_inverse.calls"] == 1
    assert (TSeries.__mul__, TSeries.inverse, TruncPoly.__mul__, TruncPoly.inverse) == methods


def test_tracer_counts_the_levels_and_bits_of_an_advance_level_chain():
    # the level hook sums the bit lengths over `state.counts` of each state
    # the adapter returns, so this pins the shape of its output
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        states = [kinks.treedp.root_state()]
        for _ in range(10):
            states.append(kinks.treedp.advance_level(states[-1]))
    finally:
        tracer.uninstall()
    layers = tracer.layer_metrics()
    counts = [c for state in states[1:] for band in state.counts for row in band for c in row]
    bits = sum(c.bit_length() for c in counts)
    assert states[-1].n == 12 and bits > 0
    assert layers["treedp.advance_level.calls"] == 10
    assert layers["treedp.level_bits"] == bits


def _run_plain_and_traced(argv):
    # stdout and exit code of one CLI request, untraced and traced, and
    # the traced run's layer metrics
    tracing = _load_tracing()

    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = kinks.cli.main(argv)
        return code, out.getvalue()

    plain = run()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = run()
    finally:
        tracer.uninstall()
    return plain, traced, tracer.layer_metrics()


def test_tracer_counts_enumerated_words_without_changing_stdout():
    # the benchmark self-test's enumerate request keeps its 50 lines; the
    # CLI renders the walk's groups as text, so the wrapped stream of
    # words is drained directly
    argv = ["enumerate", "--n", "10", "--d", "2", "--limit", "50"]
    plain, traced, _ = _run_plain_and_traced(argv)
    assert traced == plain and plain[0] == 0 and plain[1].count("\n") == 50
    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        assert len(list(kinks.oracle.enumerate_histories(10, 2, 50))) == 50
    finally:
        tracer.uninstall()
    assert tracer.layer_metrics()["oracle.enumerate.histories"] == 50


def test_tracer_counts_one_backtrack_call_without_changing_stdout():
    # the benchmark self-test's backtrack request keeps its bytes; the route
    # reads the rows' evaluator, so the wrapped count is called directly
    argv = ["count", "--n", "9", "--d", "2", "--method", "backtrack"]
    plain, traced, _ = _run_plain_and_traced(argv)
    assert traced == plain and plain == (0, "185856\n")
    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        assert kinks.oracle.backtrack_count(9, 2) == 185856
    finally:
        tracer.uninstall()
    assert tracer.layer_metrics()["oracle.backtrack_count.calls"] == 1



@pytest.mark.parametrize("fmt", ["csv", "json", "text"])
def test_tracer_counts_the_bytes_of_a_table_without_changing_stdout(fmt):
    # each writer returns the whole text, and the tracer counts it as written
    argv = ["table", "--max-n", "30", "--format", fmt]
    plain, traced, layers = _run_plain_and_traced(argv)
    assert traced == plain and plain[0] == 0
    assert layers["cli.format_table.bytes"] == len(plain[1].encode())


@pytest.mark.parametrize(
    "argv, out",
    [
        (
            ["count", "--n", "70", "--d", "2", "--method", "dp"],
            "92350137948604291166293157350185870725229570101870592\n",
        ),
        (["count", "--n", "20", "--d", "3", "--method", "closed"], "7984436548730880\n"),
    ],
)
def test_tracer_counts_one_main_call_per_count_request(argv, out):
    # the wrapped cli.main still parses by the subcommand's own parser
    plain, traced, layers = _run_plain_and_traced(argv)
    assert traced == plain == (0, out)
    assert layers["cli.main.calls"] == 1
