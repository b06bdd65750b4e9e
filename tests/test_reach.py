"""Every function of the package runs in a request, or is a named reference.

A fixed corpus of CLI requests, and `run_verification()` at its default
scope, run in a fresh interpreter under `sys.setprofile`.  Every `def` of
the package that none of them enters must be in `UNREACHED` with the
reason it is kept, and no entry of `UNREACHED` may run: a new function
that nothing reaches fails, and so does an entry that a change made
reachable, so the ledger only shrinks.  Functions are matched with the
profiled code objects by module and first line, the first decorator's
line for a decorated `def`, which every Python from 3.10 on reports alike.
"""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import kinks
from kinks.cli import FORMATS
from kinks.routes import ENV_BRUTE_CEILING, ROUTES

PACKAGE = Path(kinks.__file__).resolve().parent

#: every subcommand, every method, every table format, both count paths
#: (the exact form and argparse's, by an abbreviation), a range error and
#: --help, each with its exit code
CORPUS = (
    *((("count", "--n", "10", "--d", "3", "--method", m), 0) for m in ROUTES),
    (("count", "--n", "10", "--d", "3", "--all-methods"), 0),
    (("count", "--n=10", "--d", "3", "--meth", "closed"), 0),
    (("count", "--n", "4", "--d", "3", "--method", "backtrack"), 2),
    *((("table", "--max-n", "9", "--method", m), 0) for m in ROUTES),
    *((("table", "--max-n", "9", "--format", f), 0) for f in FORMATS),
    (("table", "--max-n", "1", "--format", "json"), 0),
    (("enumerate", "--n", "7", "--d", "2"), 0),
    (("enumerate", "--n", "11", "--d", "3", "--limit", "300"), 0),
    (("verify", "--max-n-dp", "20", "--timings"), 0),
    *((("asym", "--d", "1", "--max-n", "16", "--format", f), 0) for f in FORMATS),
    (("asym", "--d", "0", "--max-n", "8"), 0),
    (("--help",), 0),
)

#: the functions that no request of CORPUS enters, each with the reason it
#: is kept: public API, pinned by an acceptance criterion, bound by the
#: benchmark's tracer (perfbench/tracing.py), or the check it serves
UNREACHED = {
    "__init__.__getattr__": "public API: the package surface, bound by its first touch",
    "algebra._inv_coeffs": "acceptance 08: the coefficients of an inverse",
    "algebra.sqrt_one_minus_v": "acceptance 08: squares to 1 - v at every order",
    "algebra.TruncPoly._lead_inverse": "acceptance 08: 1/lead, a Fraction beyond +-1",
    "algebra.TruncPoly.zero": "acceptance 08: pads a TSeries to its t order",
    "algebra.TruncPoly.__bool__": "acceptance 08: the inverse skips zero coefficients",
    "algebra.TruncPoly.__hash__": "public API: equal polynomials hash alike",
    "algebra.TruncPoly.__repr__": "public API: the repr of sqrt_one_minus_v's doctest",
    "algebra.TruncPoly.__neg__": "public API: the ring's negation",
    "algebra.TruncPoly.inverse": "acceptance 08: the inverse round trip",
    "algebra.TSeries.__init__": "acceptance 08: the series of the inverse round trip",
    "algebra.TSeries._new": "acceptance 08: the result of each TSeries operation",
    "algebra.TSeries._lead_inverse": "acceptance 08: a TSeries inverts its lead polynomial",
    "algebra.TSeries.one": "acceptance 08: the unit of the inverse round trip",
    "algebra.TSeries._check": "acceptance 08: a product checks both truncation orders",
    "algebra.TSeries.__repr__": "public API: the repr of a TSeries",
    "cli.entry": "public API: the console script `kinks`",
    "core.History.__new__": "public API: the checked constructor of a History",
    "core.History._proven": "acceptance 02: the words of enumerate_histories",
    "core._opened": "public API: the kink definition behind kink_count",
    "core._word_kinks": "public API: the kink definition behind kink_count",
    "core.kink_count": "public API: the kink count of a History",
    "core.tree_label": "the tracer binds core.tree_label; public API",
    "genfunc._whole_rows": "the tracer binds bivariate_series, which reads it",
    "genfunc.bivariate_series": "the tracer binds genfunc.bivariate_series",
    "genfunc.series_table": "acceptance 01: the series table against the reference rows",
    "genfunc.series_count": "public API: one series count at any n",
    "genfunc.closed_form": "acceptance 04: each closed count to n = 60",
    "oracle.brute_force_table": "acceptance 01: the scan's table against the reference rows",
    "oracle.enumerate_histories": "acceptance 02: the length-four witnesses",
    "oracle._emit_words": "acceptance 02: the words of enumerate_histories",
    "oracle.backtrack_count": "the tracer binds oracle.backtrack_count; public API",
    "treedp.LevelState.total": "acceptance 06: each level's node count is n!",
    "treedp.advance_level": "acceptance 06: the level steps to n = 8",
    "verify.CheckResult.__eq__": "public API: results compare by name, passed and detail",
    "verify.CheckResult.__ne__": "public API: results compare by name, passed and detail",
    "verify.CheckResult.__hash__": "public API: results hash by name, passed and detail",
    "verify.CheckResult.__repr__": "public API: results print name, passed and detail",
}

#: the forms a reason takes
REASON = re.compile(r"public API|acceptance \d\d|the tracer|reference for ")

_CHILD = """
import io, json, sys
from contextlib import redirect_stderr, redirect_stdout
import kinks.cli, kinks.verify

reached, codes = set(), []

def hook(frame, event, arg):
    if event == "call":
        reached.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

sys.setprofile(hook)
try:
    for argv in json.loads(sys.argv[1]):
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            codes.append(kinks.cli.main(argv))
    kinks.verify.run_verification()
finally:
    sys.setprofile(None)
json.dump({"codes": codes, "reached": sorted(reached)}, sys.stdout)
"""


def _package_defs() -> dict[tuple[str, int], str]:
    # (file, first line) -> "module.qualname" for every def of the package,
    # nested ones as Python names them, "outer.<locals>.inner"
    found = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                found[str(path), first] = prefix + child.name
                visit(child, path, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}{child.name}.")
            else:
                visit(child, path, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path, f"{path.stem}.")
    return found


def _run_corpus() -> tuple[list[int], set[tuple[str, int]]]:
    # each request's exit code, and the (file, first line) of every code
    # object entered, in a child interpreter with this one's -O level
    env = {k: v for k, v in os.environ.items() if k != ENV_BRUTE_CEILING}
    env["PYTHONPATH"] = str(PACKAGE.parent)
    argv = json.dumps([list(request) for request, _ in CORPUS])
    flags = ["-O"] * sys.flags.optimize
    done = subprocess.run(
        [sys.executable, *flags, "-c", _CHILD, argv],
        capture_output=True, text=True, env=env, check=True, timeout=120,
    )
    report = json.loads(done.stdout)
    reached = {(str(Path(file).resolve()), line) for file, line in report["reached"]}
    return report["codes"], reached


def test_every_def_runs_in_a_request_or_has_a_reason_in_the_ledger():
    codes, reached = _run_corpus()
    assert codes == [code for _, code in CORPUS]
    defs = _package_defs()
    unreached = {name for key, name in defs.items() if key not in reached}
    assert sorted(unreached - UNREACHED.keys()) == [], "reached by no request: add a reader"
    assert sorted(UNREACHED.keys() - unreached) == [], "now reached: drop it from the ledger"


def test_every_ledger_reason_says_why_the_def_is_kept():
    assert [name for name, why in UNREACHED.items() if not REASON.match(why)] == []
