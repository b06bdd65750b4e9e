"""Command-line interface: formats, exit codes, determinism."""

import argparse
import csv
import errno
import hashlib
import inspect
import io
import json
import os
import re
import resource
import subprocess
import sys
import textwrap
import time
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import kinks.cli
import kinks.genfunc
import kinks.oracle
import kinks.recurrence
import kinks.treedp
import kinks.verify
from kinks import (
    CoefficientError,
    ConvergenceRow,
    CountTable,
    History,
    TreeLabel,
    TruncPoly,
    dp_table,
    enumerate_histories,
    kink_count,
    max_kinks,
    series_table,
)
from kinks.cli import _TABLE_FORMATTERS, _unlimited_int_digits, main
from kinks.routes import VERIFY_DEFAULTS
from helpers import GOLDEN

METHODS = tuple(kinks.verify.ROUTES)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _written(fmt, table):
    # one writer call per row n >= 2, as every method exports them, then
    # the call that ends the stream
    row_text, lengths = _TABLE_FORMATTERS[fmt], [n for n in table.lengths() if n >= 2]
    top = lengths[-1] if lengths else 0
    texts = [row_text(n, table.row(n), i == 0, top) for i, n in enumerate(lengths)]
    return "".join(texts) + row_text(None, (), not lengths, top)


def test_count_single_method(capsys):
    code, out, _ = run_cli(capsys, "count", "--n", "10", "--d", "3", "--method", "dp")
    assert code == 0
    assert out == "1841152\n"


def test_count_every_method_agrees(capsys):
    code, out, _ = run_cli(capsys, "count", "--n", "4", "--d", "1", "--all-methods")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines == [
        "brute: 16",
        "backtrack: 16",
        "dp: 16",
        "gf: 16",
        "closed: 16",
    ]


def test_count_method_disagreement_exits_one(capsys, monkeypatch):
    monkeypatch.setattr("kinks.genfunc._closed_rows", lambda lengths, lo, top: [(17,)])
    code, out, err = run_cli(capsys, "count", "--n", "4", "--d", "1", "--all-methods")
    assert code == 1
    assert "closed: 17" in out
    assert "disagree" in err


def test_internal_error_exits_one_with_one_line(capsys, monkeypatch):
    def broken(lengths, lo, top):
        raise CoefficientError("coefficient of t^6 w^2 is 3, not 4^2 times a count")

    monkeypatch.setattr("kinks.genfunc._series_rows", broken)
    code, out, err = run_cli(capsys, "table", "--method", "gf", "--max-n", "6")
    assert code == 1
    assert out == ""
    assert err.splitlines() == ["error: coefficient of t^6 w^2 is 3, not 4^2 times a count"]
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ("count", "--n", "5", "--d", "1", "--method", "closed"),
        ("table", "--max-n", "5", "--method", "closed"),
    ],
)
def test_an_internal_key_error_is_a_fault_not_a_usage_error(capsys, monkeypatch, argv):
    # argparse restricts every lookup by a user's word, so a KeyError is a
    # fault: main raises it, and the console script exits 1 with its traceback
    def broken(lengths, lo, top):
        raise KeyError("internal")

    monkeypatch.setattr("kinks.genfunc._closed_rows", broken)
    with pytest.raises(KeyError, match="internal"):
        main(list(argv))
    assert capsys.readouterr().err == ""
    script = (
        "import sys, kinks.cli, kinks.genfunc\n"
        "def broken(lengths, lo, top):\n"
        "    raise KeyError('internal')\n"
        "kinks.genfunc._closed_rows = broken\n"
        "sys.argv = ['kinks', *sys.argv[1:]]\n"
        "kinks.cli.entry()\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(kinks.genfunc.__file__).parents[1])}
    run = subprocess.run(
        [sys.executable, "-c", script, *argv], capture_output=True, text=True, env=env
    )
    assert (run.returncode, run.stdout) == (1, "")
    assert run.stderr.startswith("Traceback") and run.stderr.endswith("KeyError: 'internal'\n")


def test_internal_error_in_a_single_count_exits_one_with_one_line(capsys, monkeypatch):
    def broken(lengths, lo, top):
        raise CoefficientError("coefficient of t^6 w^2 is 3, not 4^2 times a count")

    monkeypatch.setattr("kinks.genfunc._series_rows", broken)
    code, out, err = run_cli(capsys, "count", "--n", "6", "--d", "2", "--method", "gf")
    assert code == 1
    assert out == ""
    assert err.splitlines() == ["error: coefficient of t^6 w^2 is 3, not 4^2 times a count"]
    assert "Traceback" not in err


def test_count_above_max_kinks_is_zero(capsys):
    code, out, _ = run_cli(capsys, "count", "--n", "4", "--d", "3", "--method", "dp")
    assert code == 0
    assert out == "0\n"


def test_count_range_errors(capsys):
    # closed covers every (n, d)
    assert run_cli(capsys, "count", "--n", "12", "--d", "5", "--method", "closed") == (
        0,
        f"{dp_table(12).count(12, 5)}\n",
        "",
    )
    assert run_cli(capsys, "count", "--n", "12", "--d", "2", "--method", "brute")[0] == 2
    assert run_cli(capsys, "count", "--n", "1", "--d", "0", "--method", "gf")[0] == 2
    assert run_cli(capsys, "count", "--n", "4", "--d", "-1")[0] == 2
    assert run_cli(capsys, "count", "--n", "0", "--d", "0")[0] == 2


def test_table_range_error(capsys):
    assert run_cli(capsys, "table", "--max-n", "0") == (2, "", "error: --max-n must be at least 1\n")


def test_brute_ceiling_env_override(capsys, monkeypatch):
    monkeypatch.setenv("KINKS_BRUTE_CEILING", "5")
    assert run_cli(capsys, "count", "--n", "6", "--d", "0", "--method", "brute")[0] == 2
    monkeypatch.setenv("KINKS_BRUTE_CEILING", "6")
    code, out, _ = run_cli(capsys, "count", "--n", "6", "--d", "0", "--method", "brute")
    assert code == 0
    assert out == "32\n"
    monkeypatch.setenv("KINKS_BRUTE_CEILING", "junk")
    assert run_cli(capsys, "count", "--n", "4", "--d", "0", "--method", "brute")[0] == 2
    # above 16 every request exits 2 before any route runs, the scan's too
    for raw in ("17", "60"):
        monkeypatch.setenv("KINKS_BRUTE_CEILING", raw)
        for argv in (("count", "--n", "4", "--d", "0", "--method", "brute"),
                     ("table", "--max-n", "60", "--method", "brute"), ("verify",)):
            assert run_cli(capsys, *argv) == (
                2, "", f"error: KINKS_BRUTE_CEILING must be an integer from 1 to 16, got '{raw}'\n"
            )
    monkeypatch.setenv("KINKS_BRUTE_CEILING", "16")
    assert run_cli(capsys, "count", "--n", "12", "--d", "3", "--method", "brute") == (
        0, f"{dp_table(12).count(12, 3)}\n", ""
    )


def test_brute_count_scans_only_its_own_length(capsys, monkeypatch):
    scanned, exact = [], kinks.oracle._brute_rows

    def recorded(lengths, lo, top):
        scanned.append(list(lengths))
        return exact(lengths, lo, top)

    monkeypatch.setattr(kinks.oracle, "_brute_rows", recorded)
    assert run_cli(capsys, "count", "--n", "7", "--d", "2", "--method", "brute") == (0, "2880\n", "")
    assert run_cli(capsys, "count", "--n", "7", "--d", "5", "--method", "brute") == (0, "0\n", "")
    assert scanned == [[7], [7]]


def _covering_methods(n, d, ceiling):
    # Which methods answer count at (n, d), spelled out independently of ROUTES.
    names = []
    if n <= ceiling:
        names.append("brute")
        if d <= max_kinks(n):
            names.append("backtrack")
    names.append("dp")
    if n >= 2:
        names.append("gf")
    names.append("closed")
    return names


def test_all_methods_prints_exactly_the_covering_methods(capsys, monkeypatch):
    monkeypatch.setenv("KINKS_BRUTE_CEILING", "6")
    for n in range(1, 10):
        for d in range(7):
            code, out, _ = run_cli(capsys, "count", "--n", str(n), "--d", str(d), "--all-methods")
            assert code == 0, (n, d)
            names = [line.split(":")[0] for line in out.splitlines()]
            assert names == _covering_methods(n, d, 6), (n, d)


def test_each_route_states_its_domain_from_its_fields():
    # the text of every range error, at the default ceiling and below it
    for ceiling in (11, 6):
        bounded = f"n <= KINKS_BRUTE_CEILING = {ceiling}"
        texts = {method: route.domain(ceiling) for method, route in kinks.verify.ROUTES.items()}
        assert texts == {
            "brute": bounded,
            "backtrack": f"{bounded} and d <= (n - 1) // 2",
            "dp": "every n and d",
            "gf": "n >= 2",
            "closed": "every n and d",
        }


def test_single_method_outside_its_domain_exits_two(capsys, monkeypatch):
    monkeypatch.setenv("KINKS_BRUTE_CEILING", "6")
    dp = dp_table(9)
    for n in range(1, 10):
        for d in range(7):
            inside = _covering_methods(n, d, 6)
            for method in METHODS:
                argv = ("count", "--n", str(n), "--d", str(d), "--method", method)
                code, out, err = run_cli(capsys, *argv)
                if method in inside:
                    assert (code, out) == (0, f"{dp.count(n, d)}\n"), argv
                else:
                    assert (code, out) == (2, ""), argv
                    assert err.startswith(f"error: the {method} method needs"), argv


def test_table_routes_look_functions_up_when_called(capsys, monkeypatch):
    argv = ("table", "--max-n", "5", "--format", "csv")
    before = {m: run_cli(capsys, *argv, "--method", m)[1] for m in ("closed", "backtrack")}
    # the closed and backtracking tables read whole rows, not closed_form
    # or backtrack_count entry by entry
    def rows_of(value):
        return lambda lengths, lo, top: ((value,) * (max_kinks(n) + 1) for n in lengths)

    monkeypatch.setattr("kinks.genfunc._closed_rows", rows_of(7))
    monkeypatch.setattr("kinks.oracle._backtrack_rows", rows_of(9))
    for method, stub in (("closed", "7"), ("backtrack", "9")):
        code, out, _ = run_cli(capsys, *argv, "--method", method)
        assert code == 0
        assert out != before[method]
        assert {line.split(",")[2] for line in out.splitlines()[1:]} == {stub}


DP12 = dp_table(12)


@settings(max_examples=60, deadline=None)
@given(
    method=st.sampled_from(METHODS),
    a=st.integers(1, 8),
    size=st.integers(0, 3),
    lo=st.integers(0, 6),
    top=st.integers(0, 6),
)
@example(method="dp", a=1, size=0, lo=0, top=0)  # `table --max-n 1`: no row at all
@example(method="gf", a=2, size=0, lo=0, top=0)
@example(method="gf", a=2, size=6, lo=2, top=6)  # lo above max_kinks(2) and (3) = 0, 1
@example(method="dp", a=4, size=4, lo=3, top=5)
def test_route_rows_are_the_recurrence_rows_cut_to_the_band(method, a, size, lo, top):
    # every route's rows for n in a..a+size-1 and d = lo..min(top, max_kinks(n))
    route = kinks.verify.ROUTES[method]
    a = max(a, 2) if method == "gf" else a  # the series starts at n = 2
    lengths = range(a, a + size)
    rows = [list(row) for row in route.rows(lengths, lo, top)]
    assert rows == [list(DP12.row(n)[lo : min(top, max_kinks(n)) + 1]) for n in lengths]
    assert route.count(a, max_kinks(a) + 1 + lo) == 0
    assert route.count(a, min(lo, max_kinks(a))) == DP12.count(a, min(lo, max_kinks(a)))


def test_backtracking_is_bounded_by_the_brute_ceiling(capsys, monkeypatch):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "count", "--n", "40", "--d", "5", "--method", "backtrack")
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert "KINKS_BRUTE_CEILING = 11" in err
    monkeypatch.setenv("KINKS_BRUTE_CEILING", "8")
    code, out, err = run_cli(capsys, "count", "--n", "9", "--d", "1", "--method", "backtrack")
    assert (code, out) == (2, "")
    assert "KINKS_BRUTE_CEILING = 8" in err
    code, out, _ = run_cli(capsys, "table", "--max-n", "9", "--method", "backtrack")
    assert (code, out) == (2, "")
    monkeypatch.setenv("KINKS_BRUTE_CEILING", "9")
    assert run_cli(capsys, "count", "--n", "9", "--d", "1", "--method", "backtrack")[:2] == (
        0,
        "31616\n",
    )


def test_table_csv_smallest(capsys):
    code, out, _ = run_cli(capsys, "table", "--max-n", "2")
    assert code == 0
    assert out == "n,d,count\n2,0,2\n"


def test_table_csv_reference(capsys):
    code, out, _ = run_cli(capsys, "table", "--max-n", "10", "--method", "dp")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n,d,count"
    data = lines[1:]
    assert len(data) == sum(len(GOLDEN[n]) for n in range(2, 11))
    assert data[-1] == "10,4,353792"
    assert data[0] == "2,0,2"


def _csv_lines(table):
    # the csv layout, joined plainly: a header, then one line per cell, n >= 2
    cells = [(n, d, c) for n in sorted(table.rows) if n >= 2 for d, c in enumerate(table.rows[n])]
    return "n,d,count\n" + "".join(f"{n},{d},{c}\n" for n, d, c in cells)


def test_table_csv_round_trip():
    table = dp_table(12)
    cells = [
        (int(cell["n"]), int(cell["d"]), int(cell["count"]))
        for cell in csv.DictReader(_written("csv", table).splitlines())
    ]
    assert cells == [(n, d, c) for n in range(2, 13) for d, c in enumerate(table.row(n))]


def test_table_json_round_trip():
    table = dp_table(25)  # counts beyond 64-bit range by n = 21
    payload = json.loads(_written("json", table))
    recovered = {row["n"]: tuple(map(int, row["counts"])) for row in payload["rows"]}
    assert recovered == {n: table.row(n) for n in range(2, 26)}
    assert payload["rows"][0] == {"n": 2, "counts": ["2"]}
    assert all(isinstance(c, str) for row in payload["rows"] for c in row["counts"])


_tables = st.dictionaries(
    st.integers(2, 80),
    st.lists(st.integers(0, 10**60), min_size=1, max_size=8).map(tuple),
    min_size=1,
).map(CountTable)
_any_tables = st.dictionaries(
    st.integers(1, 999),  # n = 1 is never exported; n of 1 to 3 digits
    st.lists(st.integers(0, 10**60), max_size=6).map(tuple),
    max_size=6,
).map(CountTable)


@settings(max_examples=100, deadline=None)
@given(table=_tables | _any_tables)
def test_csv_and_json_round_trip_any_table(table):
    assert _written("csv", table) == _csv_lines(table)
    payload = json.loads(_written("json", table))
    recovered = {row["n"]: tuple(map(int, row["counts"])) for row in payload["rows"]}
    assert recovered == {n: row for n, row in table.rows.items() if n >= 2}


# SHA-256 of `kinks table --max-n 200 --method dp` stdout, taken before the
# JSON writer stopped going through json.dumps
_MAX_N_200_SHA256 = {
    "csv": "7d8920ae26db2f61030753534846b26a6717434fae7623f66c0541b92ff53acc",
    "json": "f19e76f98ea478ce4878069555d94370f488adbb92a895f49efe554ea6648ee4",
    "text": "77274a18a871fe59d469d3b14bd3ecf8622476a6975f557649dff7ea7b2dbe98",
}


@pytest.mark.parametrize("fmt", sorted(_MAX_N_200_SHA256))
def test_table_bytes_at_max_n_200_are_pinned(capsys, fmt):
    code, out, err = run_cli(capsys, "table", "--max-n", "200", "--method", "dp", "--format", fmt)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == _MAX_N_200_SHA256[fmt]


@pytest.mark.parametrize(
    "fmt, expected",
    [("csv", "n,d,count\n"), ("json", '{\n  "rows": []\n}\n'), ("text", "")],
)
def test_table_bytes_at_max_n_1(capsys, fmt, expected):
    # no row is asked for, so every method gives the empty table, gf included
    assert run_cli(capsys, "table", "--max-n", "1", "--format", fmt) == (0, expected, "")
    for method in METHODS:
        argv = ("table", "--max-n", "1", "--method", method, "--format", fmt)
        assert run_cli(capsys, *argv) == (0, expected, "")


@settings(max_examples=150, deadline=None)
@given(table=_any_tables)
def test_json_writer_matches_json_dumps(table):
    payload = {
        "rows": [
            {"n": n, "counts": [str(c) for c in table.row(n)]}
            for n in table.lengths()
            if n >= 2
        ]
    }
    assert _written("json", table) == json.dumps(payload, indent=2) + "\n"


def test_writers_on_the_empty_table():
    empty = CountTable({})
    assert _written("csv", dp_table(1)) == "n,d,count\n"
    assert _written("csv", empty) == "n,d,count\n"
    assert _written("json", empty) == '{\n  "rows": []\n}\n'
    assert _written("text", empty) == ""


def test_table_text_format(capsys):
    code, out, _ = run_cli(capsys, "table", "--max-n", "4", "--format", "text")
    assert code == 0
    assert out == "n=2: 2\nn=3: 4 + 2 v\nn=4: 8 + 16 v\n"


def test_table_methods_agree(capsys):
    base = run_cli(capsys, "table", "--max-n", "8", "--method", "dp")
    for method in ("brute", "backtrack", "gf", "closed"):
        other = run_cli(capsys, "table", "--max-n", "8", "--method", method)
        assert other == base
    # the closed table's whole rows, past the oracles' reach
    argv = ("table", "--max-n", "60", "--format", "json")
    closed = run_cli(capsys, *argv, "--method", "closed")
    assert closed == run_cli(capsys, *argv, "--method", "dp")


def test_table_output_file(tmp_path, capsys):
    target = tmp_path / "table.csv"
    code, out, _ = run_cli(capsys, "table", "--max-n", "4", "--output", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text() == "n,d,count\n2,0,2\n3,0,4\n3,1,2\n4,0,8\n4,1,16\n"


@pytest.mark.parametrize(
    "command", [("table", "--max-n", "4"), ("asym", "--d", "1", "--max-n", "8")]
)
def test_output_keeps_the_permission_bits_of_the_file_it_replaces(capsys, tmp_path, command):
    kept, new = tmp_path / "kept.out", tmp_path / "new.out"
    kept.write_text("old\n")
    kept.chmod(0o600)
    umask = os.umask(0o022)
    try:
        for path in (kept, new):
            assert run_cli(capsys, *command, "-o", str(path)) == (0, "", "")
    finally:
        os.umask(umask)
    assert kept.read_text() == new.read_text() == run_cli(capsys, *command)[1]
    # an existing PATH keeps its mode; a new one takes the umask default
    assert (kept.stat().st_mode & 0o777, new.stat().st_mode & 0o777) == (0o600, 0o644)


def test_table_unwritable_output(capsys):
    code, _, err = run_cli(
        capsys, "table", "--max-n", "4", "--output", "/no/such/directory/table.csv"
    )
    assert code == 2
    assert "cannot write" in err


@pytest.mark.parametrize(
    "fmt, row_7",  # row 7's text begins past the newline in csv and text, at its comma in json
    [("csv", ("\n7,0,", 1)), ("json", (',\n    {\n      "n": 7,', 0)), ("text", ("\nn= 7: ", 1))],
)
def test_a_gate_that_fires_mid_stream_leaves_the_rows_before_it(
    capsys, monkeypatch, tmp_path, fmt, row_7
):
    argv = ("table", "--max-n", "12", "--format", fmt)
    full = run_cli(capsys, *argv)[1]
    rows = kinks.recurrence._kink_rows

    def gated(lengths, lo, top):
        yield from rows(range(lengths.start, 7), lo, top)  # rows up to 6, then the gate fires at 7
        raise ArithmeticError("recurrence row 7 fails its sum check against 7!")

    monkeypatch.setattr("kinks.recurrence._kink_rows", gated)
    error = "error: recurrence row 7 fails its sum check against 7!\n"
    marker, skip = row_7
    assert run_cli(capsys, *argv) == (1, full[: full.index(marker) + skip], error)
    # an existing file stays as it was, and no temporary file is left beside it
    target = tmp_path / "table.out"
    target.write_text("old\n")
    assert run_cli(capsys, *argv, "-o", str(target)) == (1, "", error)
    assert target.read_text() == "old\n"
    assert list(tmp_path.iterdir()) == [target]


def test_asym_output_is_all_or_nothing(capsys, monkeypatch, tmp_path):
    target = tmp_path / "asym.csv"
    target.write_text("old\n")
    argv = ("asym", "--d", "1", "--max-n", "8", "-o", str(target))
    assert run_cli(capsys, *argv) == (0, "", "")
    assert target.read_text() == run_cli(capsys, *argv[:-2])[1]

    def failing(*args, **kwargs):
        raise ArithmeticError("growth row fails")

    monkeypatch.setattr("kinks.genfunc.convergence_report", failing)
    target.write_text("old\n")
    assert run_cli(capsys, *argv) == (1, "", "error: growth row fails\n")
    assert target.read_text() == "old\n"
    assert list(tmp_path.iterdir()) == [target]


@pytest.mark.parametrize(
    "command", [("table", "--max-n", "600"), ("asym", "--d", "2", "--max-n", "600")]
)
def test_an_unwritable_output_exits_two_before_any_row_is_computed(
    capsys, monkeypatch, tmp_path, command
):
    # each error line is the one that opening PATH itself gives, naming PATH
    def unreachable(*args):
        raise AssertionError("a row was computed")

    monkeypatch.setattr("kinks.recurrence._kink_rows", unreachable)
    monkeypatch.setattr("kinks.cli.dp_table", unreachable)
    kept = tmp_path / "kept.csv"
    kept.write_text("old\n")
    kept.chmod(0o444)
    monkeypatch.setattr(os, "access", lambda path, mode: False)  # read-only even to root
    missing = tmp_path / "missing" / "t.csv"
    for path, code in ((missing, errno.ENOENT), (tmp_path, errno.EISDIR), (kept, errno.EACCES)):
        error = f"error: cannot write {path}: [Errno {code}] {os.strerror(code)}: {str(path)!r}\n"
        assert run_cli(capsys, *command, "-o", str(path)) == (2, "", error)
    assert list(tmp_path.iterdir()) == [kept] and kept.read_text() == "old\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
@pytest.mark.parametrize(
    "command", [("table", "--max-n", "30"), ("asym", "--d", "1", "--max-n", "20")]
)
def test_a_full_disk_on_the_output_exits_one_with_one_line(capsys, command):
    # /dev/full opens, and then every write to it fails with ENOSPC
    error = "error: cannot write /dev/full: [Errno 28] No space left on device\n"
    assert run_cli(capsys, *command, "-o", "/dev/full") == (1, "", error)


def test_a_failed_replace_exits_one_and_leaves_the_output_as_it_was(capsys, monkeypatch, tmp_path):
    def full(*args):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(os, "replace", full)
    target = tmp_path / "table.csv"
    target.write_text("old\n")
    error = f"error: cannot write {target}: [Errno 28] No space left on device\n"
    assert run_cli(capsys, "table", "--max-n", "9", "-o", str(target)) == (1, "", error)
    assert list(tmp_path.iterdir()) == [target] and target.read_text() == "old\n"


def test_output_through_a_symlink_replaces_the_file_it_names(capsys, tmp_path):
    expected = run_cli(capsys, "table", "--max-n", "9")[1]
    target, link = tmp_path / "table.csv", tmp_path / "link.csv"
    target.write_text("old\n")
    link.symlink_to(target)
    assert run_cli(capsys, "table", "--max-n", "9", "-o", str(link)) == (0, "", "")
    assert link.is_symlink() and target.read_text() == expected
    assert sorted(tmp_path.iterdir()) == [link, target]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
def test_output_into_a_named_pipe_writes_it_in_place(capsys, tmp_path):
    # a pipe is not a file to replace: its reader gets the table as written
    expected = run_cli(capsys, "table", "--max-n", "9")[1]
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    read = "import sys; sys.stdout.write(open(sys.argv[1]).read())"
    reader = subprocess.Popen(
        [sys.executable, "-c", read, str(fifo)], stdout=subprocess.PIPE, text=True
    )
    try:
        assert run_cli(capsys, "table", "--max-n", "9", "-o", str(fifo)) == (0, "", "")
        assert reader.communicate(timeout=30)[0] == expected
    finally:
        reader.kill()
    assert fifo.is_fifo() and list(tmp_path.iterdir()) == [fifo]


def test_enumerate_reference_output(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--n", "4", "--d", "0")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 8
    assert lines[0] == "1234"
    assert lines[-1] == "4321"


def test_enumerate_limit(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--n", "4", "--d", "1", "--limit", "3")
    assert code == 0
    assert out == "1243\n1324\n1342\n"


def test_enumerate_single_kink_three_sites(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--n", "3", "--d", "1")
    assert code == 0
    assert out == "132\n312\n"


def test_enumerate_one_site(capsys):
    # picking one site gives a str, not a tuple of them
    assert run_cli(capsys, "enumerate", "--n", "1", "--d", "0") == (0, "1\n", "")


def test_enumerate_long_words_use_commas(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--n", "10", "--d", "0", "--limit", "2")
    assert code == 0
    assert out.split("\n")[0] == "1,2,3,4,5,6,7,8,9,10"
    assert run_cli(capsys, "enumerate", "--n", "9", "--d", "0", "--limit", "1")[1] == "123456789\n"



def test_enumerate_of_no_words_builds_no_site_table(capsys):
    # the site strings wait for the first word, so --limit 0 at a million
    # sites prints nothing and allocates next to nothing
    tracemalloc.start()
    try:
        result = run_cli(capsys, "enumerate", "--n", "1000000", "--d", "0", "--limit", "0")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result == (0, "", "")
    assert peak < 1 << 20, peak


def test_enumerate_first_word_at_twenty_thousand_sites_fits_one_gib():
    # each depth of the walk holds one suspended `_moves`, not a list of
    # every kept flip, so the first word costs O(n) per depth
    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    env = {**os.environ, "PYTHONPATH": str(Path(kinks.genfunc.__file__).parents[1])}
    run = subprocess.run(
        [sys.executable, "-m", "kinks", "enumerate", "--n", "20000", "--d", "3", "--limit", "1"],
        capture_output=True,
        text=True,
        env=env,
        preexec_fn=cap_address_space,
        timeout=120,
    )
    assert (run.returncode, run.stderr) == (0, "")
    [line] = run.stdout.splitlines()
    word = tuple(map(int, line.split(",")))
    assert sorted(word) == list(range(1, 20001))
    assert kink_count(History(word)) == 3

def _reference_stdout(n, d, limit):
    # written apart from the CLI: one str per site, one line per word
    sep = "" if n <= 9 else ","
    return "".join(sep.join(map(str, h.word)) + "\n" for h in enumerate_histories(n, d, limit))


@pytest.mark.parametrize(
    "n, d, limit",
    [(12, 3, limit) for limit in (0, 1, 1023, 1024, 1025, 2048, 2049)]
    + [(9, 2, 1500), (10, 2, 1500), (8, 2, None), (10, 0, None)]
    # the heads of one flip (n <= 6) at every d
    + [(n, d, None) for n in range(1, 7) for d in range(max_kinks(n) + 1)]
    # the separator switch, at d = 0 and d = max_kinks(n)
    + [(n, d, 3000) for n in (9, 10) for d in (0, max_kinks(n))],
)
def test_enumerate_writes_the_same_bytes_across_blocks(capsys, n, d, limit):
    # (8, 2) without --limit streams all 24,576 words, many groups of lines;
    # n = 10 is the shortest chain whose sites are comma-separated
    argv = ["enumerate", "--n", str(n), "--d", str(d)]
    argv += [] if limit is None else ["--limit", str(limit)]
    assert run_cli(capsys, *argv) == (0, _reference_stdout(n, d, limit), "")


def _group_ends(n, d, most):
    # the word counts at which the walk's groups end, up to the first past
    # `most`: the CLI writes one group per write and cuts the last one at
    # --limit
    ends = [0]
    for _, completions in kinks.oracle._emit_groups(n, d):
        ends.append(ends[-1] + len(completions))
        if ends[-1] > most:
            break
    return ends[1:]


@pytest.mark.parametrize("n, d", [(9, 2), (10, 2), (11, 5), (12, 3)])
def test_enumerate_cuts_the_last_group_at_the_limit(capsys, n, d):
    # on a group boundary and one word either side of it: the first three
    # boundaries and the first one past 1024 words
    ends = _group_ends(n, d, 1024)
    for end in [*ends[:3], ends[-1]]:
        for limit in (end - 1, end, end + 1):
            argv = ["enumerate", "--n", str(n), "--d", str(d), "--limit", str(limit)]
            assert run_cli(capsys, *argv) == (0, _reference_stdout(n, d, limit), ""), limit


def _cli_stdout(argv):
    # the exit code and stdout of one in-process request
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


@st.composite
def _chain_and_limit(draw):
    # (n, d) with n <= 12, and a limit: 0, 1, one that cuts inside a group
    # or ends on its last word, any other up to 3000, or none where the
    # whole stream is short (n <= 8)
    n = draw(st.integers(1, 12))
    d = draw(st.integers(0, max_kinks(n)))
    ends = _group_ends(n, d, 3000)
    inside = st.sampled_from(ends).flatmap(lambda end: st.integers(max(end - 120, 0), end))
    choices = [st.sampled_from((0, 1)), inside, st.integers(0, 3000)]
    limit = draw(st.one_of(*choices, *[st.none()] * (n <= 8)))
    return n, d, limit


@settings(max_examples=100, deadline=None)
@given(_chain_and_limit())
@example((12, 0, 3000))
@example((12, 5, 3000))
@example((1, 0, 0))
@example((11, 2, 1))
@example((10, 2, 120))  # inside the second head's 90 completions
@example((8, 2, None))
def test_enumerate_text_rendering_equals_the_library_stream(case):
    # the CLI's text blocks, each head put in front of their lines and cut
    # at --limit, against the words of the library's tuple completions,
    # one str per site
    n, d, limit = case
    argv = ["enumerate", "--n", str(n), "--d", str(d)]
    argv += [] if limit is None else ["--limit", str(limit)]
    assert _cli_stdout(argv) == (0, _reference_stdout(n, d, limit))


def test_enumerate_into_a_closed_pipe_exits_one_quietly():
    # the reader takes one line and closes the pipe, as `| head -1` does
    env = {**os.environ, "PYTHONPATH": str(Path(kinks.genfunc.__file__).parents[1])}
    argv = ["enumerate", "--n", "12", "--d", "3", "--limit", "100000"]
    proc = subprocess.Popen(
        [sys.executable, "-m", "kinks", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert proc.stdout.readline() == b"1,2,3,4,5,6,8,7,10,9,12,11\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), err) == (1, b"")


def test_table_into_a_closed_pipe_exits_one_quietly_and_at_once():
    # the reader takes 20 bytes and closes the pipe, as `| head -c 20` does;
    # the whole table takes seconds, and its rows stop at the next write
    env = {**os.environ, "PYTHONPATH": str(Path(kinks.genfunc.__file__).parents[1])}
    proc = subprocess.Popen(
        [sys.executable, "-m", "kinks", "table", "--max-n", "800"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    try:
        assert proc.stdout.read(20) == b"n,d,count\n2,0,2\n3,0,"
        proc.stdout.close()
        assert proc.wait(timeout=3) == 1
        assert proc.stderr.read() == b""
    finally:
        proc.kill()
        proc.stderr.close()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
@pytest.mark.parametrize(
    "argv",
    [
        ("count", "--n", "8", "--d", "1"),
        ("table", "--max-n", "8"),
        ("enumerate", "--n", "8", "--d", "1"),
        ("verify", "--max-n-brute", "4", "--max-n-dp", "12", "--t-order", "8", "--v-order", "3"),
    ],
)
def test_a_failing_stdout_exits_one_with_one_line(argv):
    # every write to /dev/full fails with ENOSPC: one error line, no traceback
    env = {**os.environ, "PYTHONPATH": str(Path(kinks.genfunc.__file__).parents[1])}
    with open("/dev/full", "w") as full:
        run = subprocess.run(
            [sys.executable, "-m", "kinks", *argv], stdout=full, stderr=subprocess.PIPE, env=env
        )
    assert run.returncode == 1
    assert run.stderr.decode().splitlines() == [
        "error: cannot write stdout: [Errno 28] No space left on device"
    ]


def test_enumerate_range_error(capsys):
    assert run_cli(capsys, "enumerate", "--n", "4", "--d", "2")[0] == 2
    assert run_cli(capsys, "enumerate", "--n", "4", "--d", "1", "--limit", "-1")[0] == 2


def test_enumerate_range_errors_name_the_flags(capsys):
    # count's gate of --n and --d, then the kink bound, each naming the flags
    for argv, error in (
        (("--n", "0", "--d", "0"), "--n must be at least 1"),
        (("--n", "4", "--d", "-1"), "--d must be nonnegative"),
        (("--n", "4", "--d", "5"), "--d must be at most 1 for --n 4"),
    ):
        assert run_cli(capsys, "enumerate", *argv) == (2, "", f"error: {error}\n")


def test_verify_reduced_scope_passes(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify",
        "--max-n-brute", "4",
        "--max-n-dp", "12",
        "--t-order", "8",
        "--v-order", "3",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert all(line.startswith("PASS ") for line in lines[:-1])
    assert lines[-1].endswith("0 failed")


def test_verify_notices_corrupted_reference(capsys, monkeypatch):
    corrupted = dict(kinks.verify.GOLDEN_ROWS)
    corrupted[7] = (64, 1824, 2880, 273)
    monkeypatch.setattr(kinks.verify, "GOLDEN_ROWS", corrupted)
    code, out, _ = run_cli(
        capsys,
        "verify",
        "--max-n-brute", "4",
        "--max-n-dp", "12",
        "--t-order", "8",
        "--v-order", "3",
    )
    assert code == 1
    assert "FAIL golden_dp" in out


@pytest.mark.parametrize("option, value", [("--t-order", "1"), ("--v-order", "-1")])
def test_verify_rejects_a_series_scope_it_cannot_run(capsys, option, value):
    code, out, err = run_cli(
        capsys, "verify", "--max-n-brute", "4", "--max-n-dp", "12", option, value
    )
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


@pytest.mark.parametrize("max_n_dp", range(2, 9))
def test_verify_passes_a_recurrence_scope_below_the_scan(capsys, max_n_dp):
    # the scan runs to 9 by default; every row it scans is still compared
    code, out, err = run_cli(capsys, "verify", "--max-n-dp", str(max_n_dp))
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert len(lines) == 12 and all(line.startswith("PASS ") for line in lines[:11])
    assert lines[-1] == "11 checks, 11 passed, 0 failed"


def test_verify_method_agreement_compares_scan_rows_above_the_recurrence_scope(monkeypatch):
    exact = kinks.oracle._brute_rows

    def corrupted(lengths, lo, top):
        for n, row in zip(lengths, exact(lengths, lo, top)):
            row[0] += n == 9
            yield row

    monkeypatch.setattr(kinks.oracle, "_brute_rows", corrupted)
    results = kinks.verify.run_verification(max_n_brute=9, max_n_dp=5, t_order=8, v_order=3)
    by_name = {r.name: r for r in results}
    assert by_name["method_agreement"].detail == "scan row 9 at d = 0: 257, recurrence 256"
    assert {r.name for r in results if not r.passed} == {"golden_brute", "method_agreement"}


def test_verify_method_agreement_notices_a_wrong_backtracking_count(monkeypatch):
    exact = kinks.oracle._backtrack_rows

    def wrong(lengths, lo, top):
        for n, row in zip(lengths, exact(lengths, lo, top)):
            if n == 7 and lo <= 2 < lo + len(row):
                row[2 - lo] += 1
            yield row

    monkeypatch.setattr(kinks.oracle, "_backtrack_rows", wrong)
    results = kinks.verify.run_verification(max_n_brute=7, max_n_dp=12, t_order=8, v_order=3)
    assert {r.name: r.detail for r in results if not r.passed} == {
        "method_agreement": "backtracking row 7 at d = 2: 2881, recurrence 2880"
    }


def test_verify_exact_algebra_notices_a_corrupted_binomial_product(monkeypatch):
    # (1+z)^-2 (1-z)^9 to z^2 is [w^2] C^3 s^8 at t_order 8, a call no route makes
    exact = kinks.genfunc._binomial_product

    def off_by_one(a, b, top):
        e = exact(a, b, top)
        if (a, b, top) == (-2, 9, 2):
            e[2] += 1
        return e

    monkeypatch.setattr(kinks.genfunc, "_binomial_product", off_by_one)
    results = kinks.verify.run_verification(max_n_brute=4, max_n_dp=12, t_order=8, v_order=3)
    assert {r.name: r.detail for r in results if not r.passed} == {
        "exact_algebra": "[w^2] C(w)^3 s^8 differs from its Lagrange form"
    }


def _recurrence_with(n, corrupt):
    # a patch of the recurrence's rows that passes row n through `corrupt`
    exact = kinks.recurrence._kink_rows
    return kinks.recurrence, "_kink_rows", lambda lengths, lo, top: (
        corrupt(row) if m == n else row for m, row in zip(lengths, exact(lengths, lo, top))
    )


def test_verify_tree_labels_notices_a_corrupted_recurrence_row(monkeypatch):
    monkeypatch.setattr(*_recurrence_with(11, lambda row: (row[0] + 1, *row[1:])))
    results = kinks.verify.run_verification(max_n_brute=4, max_n_dp=12, t_order=8, v_order=3)
    by_name = {r.name: r for r in results}
    assert not by_name["tree_labels"].passed
    assert by_name["tree_labels"].detail == "label tree row 11 at d = 0: 1024, recurrence 1025"


def test_verify_tree_labels_notices_a_wrong_rule_child(monkeypatch):
    # (4, 3, 2, 1) is the only level-4 word labelled (1, 0, 1)
    exact = kinks.treedp.succession_children

    def wrong(label, n):
        children = exact(label, n)
        if n == 4 and label == TreeLabel(1, 0, 1):
            children[2] = children[2]._replace(kinks=1)
        return children

    monkeypatch.setattr(kinks.treedp, "succession_children", wrong)
    results = kinks.verify.run_verification(max_n_brute=5, max_n_dp=12, t_order=8, v_order=3)
    failed = {r.name: r.detail for r in results if not r.passed}
    assert failed == {
        "tree_labels": "word (4, 3, 2, 1) at position 3: "
        "rule TreeLabel(max_pos=3, kinks=1, max_first=0), "
        "direct TreeLabel(max_pos=3, kinks=0, max_first=0)"
    }
    assert len(results) == 11


#: a rule child list one too long or one too short for the word (4, 3, 2, 1),
#: the only level-4 word labelled (1, 0, 1), and the position reported
RESIZED_RULES = {
    "extra": (
        lambda children: [*children, TreeLabel(6, 0, 0)],
        "word (4, 3, 2, 1) at position 6: "
        "rule TreeLabel(max_pos=6, kinks=0, max_first=0), direct None",
    ),
    "missing": (
        lambda children: children[:-1],
        "word (4, 3, 2, 1) at position 5: "
        "rule None, direct TreeLabel(max_pos=5, kinks=0, max_first=0)",
    ),
}


@pytest.mark.parametrize("case", sorted(RESIZED_RULES))
def test_verify_tree_labels_notices_a_rule_with_the_wrong_number_of_children(monkeypatch, case):
    resize, detail = RESIZED_RULES[case]
    exact = kinks.treedp.succession_children

    def wrong(label, n):
        children = exact(label, n)
        return resize(children) if n == 4 and label == TreeLabel(1, 0, 1) else children

    monkeypatch.setattr(kinks.treedp, "succession_children", wrong)
    results = kinks.verify.run_verification(max_n_brute=5, max_n_dp=12, t_order=8, v_order=3)
    assert {r.name: r.detail for r in results if not r.passed} == {"tree_labels": detail}
    assert len(results) == 11


def _never_flipping_site_1():
    # `_level_codes` with its flips drawn from sites 2..n: no word completes
    exact = kinks.treedp._level_codes
    source = textwrap.dedent(inspect.getsource(exact))
    assert source.count("range(1, n + 1)") == 1
    namespace = dict(exact.__globals__)
    exec(source.replace("range(1, n + 1)", "range(2, n + 1)"), namespace)
    return namespace[exact.__name__]


@pytest.mark.parametrize("make_walk", [lambda: lambda n, words=False: {}, _never_flipping_site_1],
                         ids=["no-states", "no-site-1"])
def test_verify_tree_labels_fails_a_walk_that_reaches_no_word(monkeypatch, make_walk):
    # the rule judged on no state must not pass: the walk's counts are the gate
    monkeypatch.setattr(kinks.treedp, "_level_codes", make_walk())
    results = kinks.verify.run_verification()
    assert len(results) == 11
    assert {r.name: r.detail for r in results if not r.passed} == {
        "tree_labels": "ArithmeticError: the label walk of level 2 reaches 0 words, not 2!"
    }


def test_verify_tree_labels_reports_a_failed_band_gate_in_one_line(capsys, monkeypatch):
    # a kink bound one short at n = 11 trips the label walk's zero-band gate;
    # the recurrence reads max_kinks in its own module, so only the walk sees it
    monkeypatch.setattr(kinks.treedp, "max_kinks", lambda n: (n - 1) // 2 - (n == 11))
    code, out, err = run_cli(capsys, "verify", *SMALL_VERIFY)
    assert code == 1
    assert [line for line in out.splitlines() if not line.startswith("PASS ")] == [
        "FAIL tree_labels: ArithmeticError: nonzero count above max_kinks at (m, k) = (11, 5)",
        "11 checks, 10 passed, 1 failed",
    ]
    assert err.startswith("Traceback (most recent call last):\n") and "in tree_labels\n" in err


def test_verify_growth_estimate_notices_a_corrupted_single_kink_count(monkeypatch):
    gap = abs(2**57 - dp_table(30).count(30, 1) - 1)
    monkeypatch.setattr(*_recurrence_with(30, lambda row: (row[0], row[1] + 1, *row[2:])))
    results = kinks.verify.run_verification(max_n_brute=4, max_n_dp=40, t_order=8, v_order=3)
    assert {r.name: r.detail for r in results}["growth_estimate"] == (
        f"single-kink count at n = 30 is {gap} off 2^(2n-3), not n 2^(n-2)"
    )


def test_verify_rational_forms_notices_a_wrong_kinkless_count_above_20(monkeypatch):
    # the rational forms are read to n = 20; the kinkless law covers every row
    monkeypatch.setattr(*_recurrence_with(21, lambda row: (row[0] + 1, *row[1:])))
    results = kinks.verify.run_verification(max_n_brute=4, max_n_dp=24, t_order=8, v_order=3)
    assert {r.name: r.detail for r in results}["rational_forms"] == (
        "kinkless count at n = 21 is not 2^(n-1)"
    )


def test_verify_exact_algebra_notices_a_wrong_product(monkeypatch):
    # a ring product one too large in its top coefficient
    exact = TruncPoly.__mul__

    def off(self, other):
        coeffs = exact(self, other).coeffs
        return TruncPoly((*coeffs[:-1], coeffs[-1] + 1), self.order)

    monkeypatch.setattr(TruncPoly, "__mul__", off)
    results = kinks.verify.run_verification(max_n_brute=4, max_n_dp=12, t_order=8, v_order=3)
    assert {r.name: r.detail for r in results}["exact_algebra"] == (
        "s = 1 - 2w C(w) does not square to 1 - 4w at order 3"
    )


def test_verify_golden_checks_name_the_row_and_both_values():
    golden = {**kinks.verify.GOLDEN_ROWS, 7: (64, 1824, 2881, 272)}
    results = kinks.verify.run_verification(
        max_n_brute=7, max_n_dp=12, t_order=8, v_order=2, golden_rows=golden
    )
    details = {r.name: r.detail for r in results if not r.passed}
    assert details == {
        "golden_dp": "recurrence row 7 at d = 2: 2880, reference 2881",
        "golden_brute": "scan row 7 at d = 2: 2880, reference 2881",
        "golden_series": "series row 7 at d = 2: 2880, reference 2881",
    }


def test_verify_golden_checks_fail_a_short_reference_row():
    # a reference row that stops early: the whole-row comparison differs,
    # and the entry scan reports the first entry that only the route has
    golden = {**kinks.verify.GOLDEN_ROWS, 7: kinks.verify.GOLDEN_ROWS[7][:3]}
    results = kinks.verify.run_verification(
        max_n_brute=7, max_n_dp=12, t_order=8, v_order=3, golden_rows=golden
    )
    assert {r.name: r.detail for r in results if not r.passed} == {
        "golden_dp": "recurrence row 7 at d = 3: 272, reference None",
        "golden_brute": "scan row 7 at d = 3: 272, reference None",
        "golden_series": "series row 7 at d = 3: 272, reference None",
    }


def _scan_with(n, corrupt):
    # a patch of the exhaustive scan that passes row n through `corrupt`
    exact = kinks.oracle._brute_rows

    def corrupted(lengths, lo, top):
        for m, row in zip(lengths, exact(lengths, lo, top)):
            yield corrupt(row) if m == n else row

    return kinks.oracle, "_brute_rows", corrupted


@pytest.mark.parametrize(
    "patch, check, label",
    [(_recurrence_with, "golden_dp", "recurrence"), (_scan_with, "golden_brute", "scan")],
    ids=["dp_table-golden_dp-recurrence", "brute_force_table-golden_brute-scan"],
)
def test_verify_golden_checks_fail_a_short_row(monkeypatch, patch, check, label):
    monkeypatch.setattr(*patch(7, lambda row: row[:-1]))
    results = kinks.verify.run_verification(max_n_brute=7, max_n_dp=12, t_order=8, v_order=3)
    assert {r.name: r.detail for r in results}[check] == (
        f"{label} row 7 at d = 3: None, reference 272"
    )


@pytest.mark.parametrize(
    "n, corrupt, cf",
    [(9, lambda row: (*row[:2], row[2] + 1), 185857), (11, lambda row: row[:2], None)],
)
def test_verify_closed_forms_notices_a_corrupted_or_short_row(monkeypatch, n, corrupt, cf):
    exact = kinks.genfunc._closed_rows

    def corrupted(lengths, lo, top):
        for m, row in zip(lengths, exact(lengths, lo, top)):
            yield corrupt(row) if m == n else row

    monkeypatch.setattr(kinks.genfunc, "_closed_rows", corrupted)
    results = kinks.verify.run_verification(max_n_brute=4, max_n_dp=12, t_order=8, v_order=2)
    assert {r.name: r.detail for r in results}["closed_forms"] == (
        f"closed form row {n} at d = 2: {cf}, recurrence {dp_table(n).count(n, 2)}"
    )


@pytest.mark.parametrize(
    "scope",
    [{}, {"max_n_brute": 6, "max_n_dp": 45, "t_order": 12, "v_order": 4}],
    ids=["default", "reduced"],
)
def test_verify_closed_forms_notices_a_count_moved_between_kink_classes(monkeypatch, scope):
    # one count of row 40 moves from d = 9 to d = 8: the row sum and every
    # 2^d gate still hold, and both classes lie above v_order
    exact = kinks.genfunc._closed_rows

    def moved(lengths, lo, top):
        for n, row in zip(lengths, exact(lengths, lo, top)):
            if n == 40 and lo <= 8 and top >= 9:
                row = (*row[: 8 - lo], row[8 - lo] + 1, row[9 - lo] - 1, *row[10 - lo :])
            yield row

    monkeypatch.setattr(kinks.genfunc, "_closed_rows", moved)
    results = kinks.verify.run_verification(**scope)
    exact_count = dp_table(40).count(40, 8)
    assert {r.name: r.detail for r in results if not r.passed} == {
        "closed_forms": f"closed form row 40 at d = 8: {exact_count + 1}, recurrence {exact_count}"
    }


@pytest.mark.parametrize(
    "scope",
    [{}, {"max_n_brute": 6, "max_n_dp": 35, "t_order": 16, "v_order": 5}],
    ids=["default", "reduced"],
)
def test_verify_series_partition_notices_a_count_moved_between_kink_classes(monkeypatch, scope):
    # one count of row 15 moves from d = 5 to d = 4: the row sum and every
    # 4^d gate still hold, and the rows the rational forms read stop at d = 3
    exact = kinks.genfunc._series_rows

    def moved(lengths, lo, top):
        for n, row in zip(lengths, exact(lengths, lo, top)):
            if n == 15 and lo <= 4 and top >= 5:
                row[4 - lo] += 1
                row[5 - lo] -= 1
            yield row

    monkeypatch.setattr(kinks.genfunc, "_series_rows", moved)
    results = kinks.verify.run_verification(**scope)
    reference = dp_table(15).count(15, 4)
    assert {r.name: r.detail for r in results if not r.passed} == {
        "series_partition": f"series row 15 at d = 4: {reference + 1}, recurrence {reference}"
    }


def _moved_counts(route, n, d, to):
    # a patch of the route's evaluator that moves one count of row n from d
    # to `to`, d's neighbour, after or within the evaluator's own gate, which
    # still passes: the row sum is kept, and in the series the numerators
    # move by 4^d and 4^to, so each stays 4^k times a nonnegative count
    def move(row, lo=0):
        row = list(row)
        row[d - lo] -= 1
        row[to - lo] += 1
        return row

    if route == "dp":
        return _recurrence_with(n, lambda row: tuple(move(row)))
    if route == "brute":
        return _scan_with(n, move)
    if route in ("backtrack", "closed"):
        module, name = {
            "backtrack": (kinks.oracle, "_backtrack_rows"),
            "closed": (kinks.genfunc, "_closed_rows"),
        }[route]
        exact = getattr(module, name)
        return module, name, lambda lengths, lo, top: (
            tuple(move(row, lo)) if m == n and lo <= min(d, to) and max(d, to) < lo + len(row)
            else row
            for m, row in zip(lengths, exact(lengths, lo, top))
        )
    exact = kinks.genfunc._exact_count
    shift = {d: -1, to: 1}

    def series(numer, denom, where, *at):
        if where == "coefficient of t^{} w^{}" and at[0] == n:
            numer += shift.get(at[1], 0) * denom
        return exact(numer, denom, where, *at)

    return kinks.genfunc, "_exact_count", series


@pytest.mark.parametrize(
    "scope",
    [{}, {"max_n_brute": 6, "max_n_dp": 37, "t_order": 13, "v_order": 4}],
    ids=["default", "reduced"],
)
@settings(max_examples=4, deadline=None)
@given(data=st.data())
def test_verify_fails_a_check_when_one_count_moves_between_kink_classes(scope, data):
    # whatever route and cell inside the verify scope: each evaluator's own
    # gate passes, so verify's whole-row comparisons must see the move.  Every
    # row is compared whole, the series row above v_order too
    full = {**VERIFY_DEFAULTS, **scope}
    last = {
        "brute": full["max_n_brute"],
        "backtrack": full["max_n_brute"],
        "dp": full["max_n_dp"],
        "gf": min(full["t_order"], full["max_n_dp"]),
        "closed": full["max_n_dp"],
    }
    for route in kinks.verify.ROUTES:  # every route, so that a new one has to join
        n = data.draw(st.integers(3, last[route]), label=f"{route}: n")
        d = data.draw(st.integers(0, max_kinks(n) - 1), label=f"{route}: d")
        d, to = data.draw(st.sampled_from([(d, d + 1), (d + 1, d)]), label=f"{route}: (d, to)")
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(*_moved_counts(route, n, d, to))
            results = kinks.verify.run_verification(**scope)
        failed = {r.name for r in results if not r.passed}
        assert failed and len(results) == 11, route
        if route == "dp":  # the label walk reads every recurrence row
            assert "tree_labels" in failed


def test_verify_refuses_a_scan_above_the_brute_ceiling(capsys, monkeypatch):
    # the ceiling bounds --max-n-brute with one line, never a silently shorter scan
    monkeypatch.delenv("KINKS_BRUTE_CEILING", raising=False)
    assert run_cli(capsys, "verify", "--max-n-brute", "12") == (
        2, "", "error: --max-n-brute must be at most KINKS_BRUTE_CEILING = 11\n"
    )
    monkeypatch.setenv("KINKS_BRUTE_CEILING", "1")
    assert run_cli(capsys, "verify") == (
        2, "", "error: --max-n-brute must be at most KINKS_BRUTE_CEILING = 1\n"
    )


@pytest.mark.parametrize(
    "flag, value, least",
    [("--max-n-brute", "1", 2), ("--max-n-dp", "1", 2), ("--t-order", "1", 2), ("--v-order", "-1", 0)],
)
def test_verify_range_errors_name_the_flags(capsys, monkeypatch, flag, value, least):
    # a scope below its least value is refused by the CLI, naming the flag
    # as count's, table's, enumerate's and asym's range errors do
    monkeypatch.delenv("KINKS_BRUTE_CEILING", raising=False)
    assert run_cli(capsys, "verify", flag, value) == (2, "", f"error: {flag} must be at least {least}\n")


def test_verify_help_says_what_each_scope_flag_bounds(capsys):
    code, out, _ = run_cli(capsys, "verify", "--help")
    text = " ".join(out.split())
    assert code == 0
    assert "the rule check; at most KINKS_BRUTE_CEILING" in text
    assert "--v-order V_ORDER the order in w of exact_algebra, which no other check reads" in text


def test_verify_scans_and_backtracks_to_the_max_n_brute_it_is_given(capsys, monkeypatch):
    read = {}
    for name in ("_brute_rows", "_backtrack_rows"):
        def recorded(lengths, lo, top, exact=getattr(kinks.oracle, name), name=name):
            read.setdefault(name, []).append(lengths)
            return exact(lengths, lo, top)

        monkeypatch.setattr(kinks.oracle, name, recorded)
    monkeypatch.setenv("KINKS_BRUTE_CEILING", "12")
    code, out, err = run_cli(capsys, "verify", "--max-n-brute", "12")
    assert (code, err, out.splitlines()[-1]) == (0, "", "11 checks, 11 passed, 0 failed")
    assert read == {"_brute_rows": [range(2, 13)], "_backtrack_rows": [range(2, 13)]}


def test_verify_series_partition_compares_whole_series_rows(monkeypatch):
    # one count of row 17 moves from d = 7 to d = 8, both above the default
    # v_order = 6, which no longer cuts the series rows
    exact = kinks.genfunc._series_rows

    def moved(lengths, lo, top):
        for n, row in zip(lengths, exact(lengths, lo, top)):
            if n == 17 and lo <= 7 and top >= 8:
                row[7 - lo] -= 1
                row[8 - lo] += 1
            yield row

    monkeypatch.setattr(kinks.genfunc, "_series_rows", moved)
    results = kinks.verify.run_verification()
    reference = dp_table(17).count(17, 7)
    assert {r.name: r.detail for r in results if not r.passed} == {
        "series_partition": f"series row 17 at d = 7: {reference - 1}, recurrence {reference}"
    }


def test_verify_method_agreement_reads_the_backtracking_past_nine(capsys, monkeypatch):
    monkeypatch.setattr(*_moved_counts("backtrack", 10, 2, 3))
    monkeypatch.setenv("KINKS_BRUTE_CEILING", "10")
    code, out, _ = run_cli(capsys, "verify", "--max-n-brute", "10")
    reference = dp_table(10).count(10, 2)
    assert code == 1
    assert [line for line in out.splitlines() if line.startswith("FAIL ")] == [
        f"FAIL method_agreement: backtracking row 10 at d = 2: {reference - 1}, "
        f"recurrence {reference}"
    ]


def test_verify_judges_level_two_of_the_rule_at_the_smallest_scan(capsys, monkeypatch):
    # at --max-n-brute 2 the rule is still judged on level 2's six children
    exact = kinks.treedp.succession_children

    def wrong(label, n):
        children = exact(label, n)
        if n == 2 and label == TreeLabel(2, 0, 0):
            children[0] = children[0]._replace(kinks=0)
        return children

    monkeypatch.setattr(kinks.treedp, "succession_children", wrong)
    code, out, _ = run_cli(capsys, "verify", "--max-n-brute", "2")
    assert code == 1
    assert [line for line in out.splitlines() if line.startswith("FAIL ")] == [
        "FAIL tree_labels: word (1, 2) at position 1: "
        "rule TreeLabel(max_pos=1, kinks=0, max_first=1), "
        "direct TreeLabel(max_pos=1, kinks=1, max_first=1)"
    ]


SMALL_VERIFY = ("--max-n-brute", "4", "--max-n-dp", "12", "--t-order", "8", "--v-order", "3")


def test_verify_timings_go_to_stderr_and_leave_stdout_unchanged(capsys):
    code, out, err = run_cli(capsys, "verify", *SMALL_VERIFY)
    assert (code, err) == (0, "")
    timed_code, timed_out, timings = run_cli(capsys, "verify", *SMALL_VERIFY, "--timings")
    assert (timed_code, timed_out) == (0, out)
    names = [line.split(" ")[1] for line in out.splitlines()[:-1]]
    lines = [line.split(" ") for line in timings.splitlines()]
    assert [name for name, _ in lines] == names
    assert all(float(seconds) >= 0 for _, seconds in lines)


def test_verify_charges_the_shared_tables_to_their_first_readers(monkeypatch):
    exact = kinks.oracle._brute_rows

    def slow(lengths, lo, top):
        time.sleep(0.05 * (4 in lengths))
        yield from exact(lengths, lo, top)

    monkeypatch.setattr(kinks.oracle, "_brute_rows", slow)
    start = time.perf_counter()
    results = kinks.verify.run_verification(max_n_brute=4, max_n_dp=12, t_order=8, v_order=3)
    wall = time.perf_counter() - start
    seconds = {r.name: r.seconds for r in results}
    assert all(r.passed for r in results)
    assert seconds["golden_brute"] >= 0.05
    assert wall - 0.01 < sum(seconds.values()) <= wall


@pytest.mark.parametrize(
    "evaluator, table, check, readers",
    [
        ("oracle._brute_rows", "brute table n = 2..4, d <= 1", "golden_brute", ["method_agreement"]),
        (
            "recurrence._kink_rows",
            "dp table n = 1..12, d <= 5",
            "golden_dp",
            [
                "method_agreement",
                "partition_identity",
                "series_partition",
                "rational_forms",
                "closed_forms",
                "tree_labels",
                "growth_estimate",
            ],
        ),
    ],
    ids=["brute_force_table(4)-golden_brute-readers0", "dp_table(12)-golden_dp-readers1"],
)
def test_verify_a_failed_shared_table_fails_its_readers_one_line_each(
    capsys, monkeypatch, evaluator, table, check, readers
):
    def broken(*args, **kwargs):
        raise ArithmeticError("injected")

    monkeypatch.setattr(f"kinks.{evaluator}", broken)
    code, out, _ = run_cli(capsys, "verify", *SMALL_VERIFY)
    assert code == 1
    lines = out.splitlines()
    missing = f"LookupError: {table} is missing: {check} did not build it"
    assert [line for line in lines if line.startswith("FAIL ")] == [
        f"FAIL {check}: ArithmeticError: injected",
        *(f"FAIL {name}: {missing}" for name in readers),
    ]
    failed = 1 + len(readers)
    assert len(lines) == 12 and lines[-1] == f"11 checks, {11 - failed} passed, {failed} failed"


#: a stream of rows without its last row, or with one row more
STREAM_FAULTS = {
    "short": lambda rows: rows[:-1],
    "long": lambda rows: rows + rows[-1:],
}

#: each route's first reader in verify at SMALL_VERIFY, and the lengths it reads
FIRST_READERS = {
    "brute": ("golden_brute", 2, 4),
    "backtrack": ("method_agreement", 2, 4),
    "dp": ("golden_dp", 1, 12),
    "gf": ("golden_series", 2, 8),
    "closed": ("closed_forms", 1, 12),
}


def _stream_error(source, fault, first, last):
    got = f"no row for n = {last} of" if fault == "short" else "more rows than"
    return f"{source} gave {got} n = {first}..{last}"


@pytest.mark.parametrize("fault", sorted(STREAM_FAULTS))
@pytest.mark.parametrize("method", sorted(FIRST_READERS))
def test_a_route_that_gives_too_few_or_too_many_rows_fails(
    capsys, monkeypatch, tmp_path, method, fault
):
    # count and table exit 1 with one line that names the route and the
    # lengths, -o PATH stays as it was, and verify fails the first reader
    assert set(FIRST_READERS) == set(kinks.verify.ROUTES)  # a new route has to join
    table = ("table", "--max-n", "6", "--method", method, "--format", "json")
    full = run_cli(capsys, *table)[1]
    route = kinks.verify.ROUTES[method]
    rows = lambda lengths, lo, top: iter(STREAM_FAULTS[fault](list(route.rows(lengths, lo, top))))
    monkeypatch.setitem(kinks.verify.ROUTES, method, route._replace(rows=rows))
    source = f"the {method} route"
    error = f"error: {_stream_error(source, fault, 5, 5)}\n"
    for argv in (("--method", method), ("--all-methods",)):
        assert run_cli(capsys, "count", "--n", "5", "--d", "1", *argv) == (1, "", error)
    code, out, err = run_cli(capsys, *table)
    assert (code, err) == (1, f"error: {_stream_error(source, fault, 2, 6)}\n")
    assert full.startswith(out) and out != full
    target = tmp_path / "table.json"
    target.write_text("old\n")
    assert run_cli(capsys, *table, "-o", str(target)) == (1, "", err)
    assert target.read_text() == "old\n" and list(tmp_path.iterdir()) == [target]
    code, out, _ = run_cli(capsys, "verify", *SMALL_VERIFY)
    reader, first, last = FIRST_READERS[method]
    failed = [line for line in out.splitlines() if line.startswith("FAIL ")]
    detail = _stream_error(source, fault, first, last)
    assert code == 1 and failed[0] == f"FAIL {reader}: ArithmeticError: {detail}"


#: each library table builder, its evaluator and the lengths the call asks it for
TABLE_BUILDERS = {
    "brute_force_table": (lambda: kinks.brute_force_table(6), kinks.oracle, "_brute_rows", 1, 6),
    "dp_table": (lambda: dp_table(6), kinks.recurrence, "_kink_rows", 1, 6),
    "series_table": (lambda: series_table(8, 3), kinks.genfunc, "_series_rows", 2, 8),
    "bivariate_series": (lambda: kinks.bivariate_series(8, 3), kinks.genfunc, "_series_rows", 2, 8),
    "fixed_kinks_series": (
        lambda: kinks.fixed_kinks_series(2, 12), kinks.genfunc, "_series_rows", 2, 12
    ),
}


@pytest.mark.parametrize("fault", sorted(STREAM_FAULTS))
@pytest.mark.parametrize("builder", sorted(TABLE_BUILDERS))
def test_a_library_table_from_too_few_or_too_many_rows_raises(monkeypatch, builder, fault):
    # each builder pairs its rows with its lengths as the CLI does, naming itself
    build, module, evaluator, first, last = TABLE_BUILDERS[builder]
    exact = getattr(module, evaluator)
    monkeypatch.setattr(
        module, evaluator, lambda *args: iter(STREAM_FAULTS[fault](list(exact(*args))))
    )
    with pytest.raises(ArithmeticError) as raised:
        build()
    assert str(raised.value) == _stream_error(builder, fault, first, last)


@pytest.mark.parametrize("fault", sorted(STREAM_FAULTS))
def test_a_label_walk_that_gives_too_few_or_too_many_rows_fails_tree_labels(monkeypatch, fault):
    walk = kinks.treedp._label_levels
    monkeypatch.setattr(
        kinks.treedp, "_label_levels", lambda n_max: iter(STREAM_FAULTS[fault](list(walk(n_max))))
    )
    results = kinks.verify.run_verification(max_n_brute=4, max_n_dp=12, t_order=8, v_order=3)
    assert {r.name: r.detail for r in results if not r.passed} == {
        "tree_labels": f"ArithmeticError: {_stream_error('the label walk', fault, 2, 12)}"
    }


@pytest.mark.parametrize(
    "module, evaluator, keep, argv, error",
    [
        (kinks.genfunc, "_closed_rows", 5, ("table", "--max-n", "8", "--method", "closed"),
         "the closed route gave no row for n = 7 of n = 2..8"),
        (kinks.recurrence, "_kink_rows", -1, ("table", "--max-n", "5"),
         "the dp route gave no row for n = 5 of n = 2..5"),
        (kinks.recurrence, "_kink_rows", -1, ("count", "--n", "9", "--d", "2"),
         "the dp route gave no row for n = 9 of n = 9..9"),
    ],
    ids=["closed-table", "dp-table", "dp-count"],
)
def test_an_evaluator_that_drops_rows_exits_one(
    capsys, monkeypatch, module, evaluator, keep, argv, error
):
    # an evaluator's rows cut to their first `keep`
    exact = getattr(module, evaluator)
    monkeypatch.setattr(module, evaluator, lambda *args: iter(list(exact(*args))[:keep]))
    assert run_cli(capsys, *argv)[::2] == (1, f"error: {error}\n")


#: a stream whose rows each hold no count, or each hold their counts twice
WIDTH_FAULTS = {
    "empty": lambda rows: [() for _ in rows],
    "wide": lambda rows: [(*row, *row) for row in rows],
}


def _width_error(source, fault, n, d):
    return f"{source} gave {0 if fault == 'empty' else 2} counts for n = {n}, d = {d}"


@pytest.mark.parametrize("fault", sorted(WIDTH_FAULTS))
@pytest.mark.parametrize("method", METHODS)
def test_a_route_whose_row_holds_no_count_or_two_fails_count(capsys, monkeypatch, method, fault):
    # entry d = 1 of row 5 exists, so a row without it, or with two
    # counts, is a fault: one error line that names the route, n and d
    route = kinks.verify.ROUTES[method]
    rows = lambda lengths, lo, top: iter(WIDTH_FAULTS[fault](list(route.rows(lengths, lo, top))))
    monkeypatch.setitem(kinks.verify.ROUTES, method, route._replace(rows=rows))
    error = f"error: {_width_error(f'the {method} route', fault, 5, 1)}\n"
    for argv in (("--method", method), ("--all-methods",)):
        assert run_cli(capsys, "count", "--n", "5", "--d", "1", *argv) == (1, "", error)


@pytest.mark.parametrize("method", [m for m in METHODS if not kinks.verify.ROUTES[m].capped])
def test_a_route_whose_row_is_empty_above_max_kinks_counts_zero(capsys, method):
    assert list(kinks.verify.ROUTES[method].rows(range(5, 6), 3, 3)) in ([()], [[]])
    assert run_cli(capsys, "count", "--n", "5", "--d", "3", "--method", method) == (0, "0\n", "")


#: each library reader of entry d, its call, its evaluator, the lengths it
#: asks for and its d
ENTRY_READERS = {
    "closed_form": (lambda: kinks.closed_form(5, 1), kinks.genfunc, "_closed_rows", 5, 5, 1),
    "series_count": (lambda: kinks.series_count(5, 1), kinks.genfunc, "_series_rows", 5, 5, 1),
    "backtrack_count": (
        lambda: kinks.backtrack_count(5, 1), kinks.oracle, "_backtrack_rows", 5, 5, 1
    ),
    "fixed_kinks_series": (
        lambda: kinks.fixed_kinks_series(0, 8), kinks.genfunc, "_series_rows", 2, 3, 0
    ),
}


@pytest.mark.parametrize("fault", sorted(STREAM_FAULTS) + sorted(WIDTH_FAULTS))
@pytest.mark.parametrize("reader", sorted(ENTRY_READERS))
def test_a_library_entry_from_a_faulty_stream_raises(monkeypatch, reader, fault):
    # a row too few or too many, or a first row of no count or of two,
    # raises ArithmeticError that names the reader
    call, module, evaluator, first, last, d = ENTRY_READERS[reader]
    exact = getattr(module, evaluator)
    faulty = (STREAM_FAULTS | WIDTH_FAULTS)[fault]
    monkeypatch.setattr(module, evaluator, lambda *args: iter(faulty(list(exact(*args)))))
    with pytest.raises(ArithmeticError) as raised:
        call()
    if fault in STREAM_FAULTS:
        assert str(raised.value) == _stream_error(reader, fault, first, last)
    else:
        assert str(raised.value) == _width_error(reader, fault, first, d)


def test_a_library_entry_reads_an_empty_row_above_max_kinks_as_zero():
    # the series and closed rows end at max_kinks(n), so each reader reads
    # the empty row above it as 0, and so does the column d = 2 below n = 5
    for rows in (kinks.genfunc._series_rows, kinks.genfunc._closed_rows):
        assert [*map(tuple, rows(range(2, 6), 3, 3))] == [(), (), (), ()]
    assert kinks.series_count(5, 3) == 0 == kinks.closed_form(5, 3)
    assert kinks.fixed_kinks_series(2, 12) == tuple(dp_table(12).count(n, 2) for n in range(2, 13))


def test_verify_crashed_check_keeps_its_traceback(capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(kinks.verify, "convergence_report", boom)
    code, out, err = run_cli(capsys, "verify", *SMALL_VERIFY)
    assert code == 1
    assert "FAIL growth_estimate: RuntimeError: boom\n" in out
    assert err.startswith("Traceback (most recent call last):\n")
    assert "in growth_estimate\n" in err and err.endswith("RuntimeError: boom\n")
    results = kinks.verify.run_verification(max_n_brute=4, max_n_dp=12, t_order=8, v_order=3)
    crashed = {r.name: r for r in results}["growth_estimate"]
    assert crashed.traceback.endswith("RuntimeError: boom\n")
    # time and trace stay out of equality and the repr
    twin = kinks.verify.CheckResult("growth_estimate", False, "RuntimeError: boom")
    assert crashed == twin and repr(crashed) == repr(twin)


def test_verify_library_surface_reports_named_checks():
    results = kinks.verify.run_verification(
        max_n_brute=4, max_n_dp=12, t_order=8, v_order=3,
        golden_rows={**kinks.verify.GOLDEN_ROWS, 9: (1, 2, 3, 4, 5)},
    )
    by_name = {r.name: r for r in results}
    assert not by_name["golden_dp"].passed
    assert "row 9" in by_name["golden_dp"].detail
    assert by_name["method_agreement"].passed


def test_asym_zero_kinks_deviation_is_zero(capsys):
    code, out, _ = run_cli(capsys, "asym", "--d", "0", "--max-n", "10")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n,exact,estimate,deviation"
    assert len(lines) == 11
    assert all(line.endswith(",0") for line in lines[1:])


def test_asym_single_kink_tail(capsys):
    code, out, _ = run_cli(capsys, "asym", "--d", "1", "--max-n", "20")
    assert code == 0
    last = out.strip().split("\n")[-1]
    assert last == "20,137433710592,137438953472,3.8147e-05"


def test_asym_json_format(capsys):
    code, out, _ = run_cli(capsys, "asym", "--d", "1", "--max-n", "6", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["d"] == 1
    assert payload["rows"][0]["n"] == 3
    assert payload["rows"][0]["exact"] == "2"


@pytest.mark.parametrize("fmt", kinks.cli.FORMATS)
def test_asym_deviations_below_the_normal_floats_keep_six_digits(capsys, fmt):
    # 2n/2^n at d = 1 drops below the normal floats at n = 1077, where a
    # float would print 1.67982e-322 at n = 1080 and 0 at n = 1100
    code, out, _ = run_cli(capsys, "asym", "--d", "1", "--max-n", "1100", "--format", fmt)
    assert code == 0
    if fmt == "json":
        deviations = {row["n"]: row["deviation"] for row in json.loads(out)["rows"]}
    else:
        cells = [line.split("," if fmt == "csv" else None) for line in out.splitlines()[1:]]
        deviations = {int(c[0]): c[-1] for c in cells}
    assert f"{float(Fraction(2 * 1076, 2**1076)):.6g}" == deviations[1076] == "2.65807e-321"
    assert (deviations[1080], deviations[1100]) == ("1.66747e-322", "1.61967e-328")
    # those six digits are the exact values' own
    assert round(Fraction(2 * 1080, 2**1080) * 10**327) == 166747
    assert round(Fraction(2 * 1100, 2**1100) * 10**333) == 161967


# SHA-256 of `kinks asym --d D --max-n 200 --format F` stdout, taken while the
# deviation's decay was still decided on a separate list of integer gaps
_ASYM_MAX_N_200_SHA256 = {
    (0, "csv"): "5526f333c8c6a3ac92c927f934ea3386880b24fa9815def0ebec9f4d777aca12",
    (0, "json"): "ca243a3dd31361456dee6893b123ca2f83ede63323c8e151eeca2bd738717841",
    (0, "text"): "2cd518cbd8cb72b2c03e50f8e06c2165b9377ed532df0ed3dc9d6baca88fe37d",
    (1, "csv"): "0e1860aef53743c28b679eef6d05d06547aaa86823d4daef2f9404581de1fa07",
    (1, "json"): "1d5fd31b88e207c2af68f41fbb5b1cb639e12f825b23690db0ef1fc24990fabd",
    (1, "text"): "80f173fe4b1096f1fc2435f4b6d9b7dbdf50edaf96e938a52c9d3e53459f9b59",
    (2, "csv"): "b9a471241f94962befad561f20713075989160c1ea118023a621229d3b3d188a",
    (2, "json"): "c8aad9bfca5a80dc8e330af5f6894e776c257836966bc2d708906104d2873ded",
    (2, "text"): "7d33aedd23192c1c535e3474d3a32e14fa38d8efada2279efd61b4eb41908780",
    (3, "csv"): "5e2ffbb4b6e8a6d4586993699701d5ce13e6a224122f071482c3c2502950e8f8",
    (3, "json"): "62acc0e2c8b0b7a5e7d36a6cf9f260e884ba4610c3b8cd42106eb146f2041c3d",
    (3, "text"): "29d7678741710399b9b51c7145cdf8afd08a15e16777bb960287e5fa25e66eb2",
    (4, "csv"): "4be785f9dcab7a516e1ebb32eff25decbbb0b8261e8bcbbff52829b7646ae146",
    (4, "json"): "1e9d18eae6741ac88da6b5ce7e8be6fd2f7521ecaf3dffe320532304ae877110",
    (4, "text"): "1f3fb62861a8a8a88c268eb63c5b8c925e4167a6d328931d817f7b8a5df0809a",
}


@pytest.mark.parametrize("d, fmt", sorted(_ASYM_MAX_N_200_SHA256))
def test_asym_bytes_at_max_n_200_are_pinned(capsys, d, fmt):
    code, out, err = run_cli(capsys, "asym", "--d", str(d), "--max-n", "200", "--format", fmt)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == _ASYM_MAX_N_200_SHA256[d, fmt]


@pytest.mark.parametrize("d, max_n", [(0, 3), (1, 8), (1, 40), (3, 7), (5, 79)])
def test_asym_text_columns_end_where_their_headers_end(capsys, d, max_n):
    # n, exact and estimate are right-aligned under their headers, and the
    # deviation column starts where its header starts
    code, out, _ = run_cli(capsys, "asym", "--d", str(d), "--max-n", str(max_n), "--format", "text")
    assert code == 0

    def spans(line):
        return [m.span() for m in re.finditer(r"\S+", line)]

    header, *lines = map(spans, out.splitlines())
    assert len(lines) == max_n - 2 * d
    for line in lines:
        assert len(line) == 4
        assert [end for _, end in line[:3]] == [end for _, end in header[:3]]
        assert line[3][0] == header[3][0]


def test_asym_text_widens_n_past_four_places(capsys, monkeypatch):
    # rows made up for the layout alone: a real table to n = 10000 is tens of MB
    rows = [ConvergenceRow(n, n, 2 * n, Fraction(1, 2)) for n in (9999, 10000)]
    monkeypatch.setattr(kinks.genfunc, "convergence_report", lambda *args, **kw: rows)
    monkeypatch.setattr(kinks.cli, "dp_table", lambda *args: None)
    code, out, _ = run_cli(capsys, "asym", "--d", "1", "--max-n", "10000", "--format", "text")
    assert code == 0
    assert out.splitlines() == [
        "    n exact estimate deviation",
        " 9999  9999    19998 0.5",
        "10000 10000    20000 0.5",
    ]


def test_asym_range_error(capsys):
    # the growth report's own gate speaks before its table is built, and
    # names the flags, as count's and table's do
    for argv, error in (
        (("--d", "2", "--max-n", "3"), "--max-n must be at least 5"),
        (("--d", "2", "--max-n", "0"), "--max-n must be at least 5"),
        (("--d", "-1", "--max-n", "5"), "--d must be nonnegative"),
    ):
        assert run_cli(capsys, "asym", *argv) == (2, "", f"error: {error}\n")


def test_usage_errors_exit_two(capsys):
    assert main([]) == 2
    capsys.readouterr()
    assert main(["bogus"]) == 2
    capsys.readouterr()
    assert main(["count", "--n", "4"]) == 2  # --d missing
    capsys.readouterr()
    assert main(["--help"]) == 0
    capsys.readouterr()


def _literal_parser():
    # the CLI's parser written out as literal argparse calls: every option's
    # flags, type, default, required, choices, help and metavar, in order
    methods, formats = ("brute", "backtrack", "dp", "gf", "closed"), ("csv", "json", "text")
    parser = argparse.ArgumentParser(
        prog="kinks",
        description="Exact counting and enumeration of chain flip histories by kink number.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    count = sub.add_parser("count", help="exact count of histories at one (n, d)")
    count.add_argument("--n", type=int, default=None, required=True, choices=None, help="chain length", metavar=None)
    count.add_argument("--d", type=int, default=None, required=True, choices=None, help="kink count", metavar=None)
    count.add_argument("--method", type=None, default="dp", required=False, choices=methods, help=None, metavar=None)
    count.add_argument(
        "--all-methods",
        action="store_true",
        help="print one line per applicable method; exit 1 if they disagree",
    )
    table = sub.add_parser("table", help="export the count table for n = 2..max-n")
    table.add_argument("--max-n", type=int, default=None, required=True, choices=None, help=None, metavar=None)
    table.add_argument("--method", type=None, default="dp", required=False, choices=methods, help=None, metavar=None)
    table.add_argument("--format", type=None, default="csv", required=False, choices=formats, help=None, metavar=None)
    table.add_argument(
        "--output", "-o", type=None, default=None, required=False, choices=None,
        help="write here instead of stdout", metavar="PATH",
    )
    enum = sub.add_parser("enumerate", help="list the histories at one (n, d)")
    enum.add_argument("--n", type=int, default=None, required=True, choices=None, help=None, metavar=None)
    enum.add_argument("--d", type=int, default=None, required=True, choices=None, help=None, metavar=None)
    enum.add_argument(
        "--limit", type=int, default=None, required=False, choices=None,
        help="stop after this many histories", metavar=None,
    )
    verify = sub.add_parser("verify", help="run the cross-validation suite")
    verify.add_argument(
        "--max-n-brute", type=int, default=9, required=False, choices=None,
        help="last n of the scan, the backtracking and (to 8) the rule check; at most KINKS_BRUTE_CEILING",
        metavar=None,
    )
    verify.add_argument(
        "--max-n-dp", type=int, default=60, required=False, choices=None,
        help="last n of the recurrence, formula and label-tree rows, and of the growth checks", metavar=None,
    )
    verify.add_argument(
        "--t-order", type=int, default=20, required=False, choices=None,
        help="last n of the series rows, and the powers of s in exact_algebra", metavar=None,
    )
    verify.add_argument(
        "--v-order", type=int, default=6, required=False, choices=None,
        help="the order in w of exact_algebra, which no other check reads", metavar=None,
    )
    verify.add_argument("--timings", action="store_true", help="write one 'name seconds' line per check to stderr")
    asym = sub.add_parser("asym", help="exact counts against the growth estimate")
    asym.add_argument("--d", type=int, default=None, required=True, choices=None, help=None, metavar=None)
    asym.add_argument("--max-n", type=int, default=None, required=True, choices=None, help=None, metavar=None)
    asym.add_argument("--format", type=None, default="csv", required=False, choices=formats, help=None, metavar=None)
    asym.add_argument(
        "--output", "-o", type=None, default=None, required=False, choices=None,
        help="write here instead of stdout", metavar="PATH",
    )
    return parser


def _help_text(parser, argv):
    # what PARSER prints for ARGV, which asks for help, at a fixed width
    out = io.StringIO()
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}), redirect_stdout(out):
        with pytest.raises(SystemExit) as exit:
            parser.parse_args(argv)
    assert exit.value.code == 0
    return out.getvalue()


@pytest.mark.parametrize("argv", [["--help"], *([name, "--help"] for name in kinks.cli._COMMANDS)], ids=" ".join)
def test_help_is_that_of_the_literal_parser(argv):
    # two parsers, not stored text: argparse lays help out differently
    # from one Python to the next
    expected = _help_text(_literal_parser(), argv)
    assert _help_text(kinks.cli.build_parser(), argv) == expected
    assert expected.startswith("usage: kinks")


# argv that take the exact form: whole long options after the subcommand,
# each with one value that does not start with '-', or a flag
_EXACT_CORPUS = [
    ["count", "--n", "5", "--d", "1"],
    ["table", "--max-n", "4", "--output", "out.csv"],
    ["enumerate", "--n", "4", "--d", "1", "--limit", "3"],
    ["verify"],
    ["verify", "--max-n-brute", "5", "--max-n-dp", "9", "--t-order", "8", "--v-order", "3",
     "--timings"],
    ["asym", "--d", "1", "--max-n", "5", "--format", "text", "--output", "out.txt"],
    # repeats: the last value wins, a flag stays set
    ["count", "--n", "5", "--n", "6", "--d", "1", "--all-methods", "--all-methods"],
    # values argparse reads as int or str although they look odd
    ["count", "--n", " 5", "--d", "+1"],
    ["table", "--max-n", "4", "--output", ""],
    ["table", "--max-n", "1_0", "--output", "a=b"],
]

# argv that argparse must read: every near miss of the exact form
_FALLBACK_CORPUS = [
    ["count", "--n", "5", "--d", "-1", "--method", "closed", "--all-methods"],
    ["table", "--max-n", "4", "--method", "gf", "--format", "json", "-o", "out.json"],
    # abbreviated options and the --opt=value form
    ["count", "--n", "5", "--d", "1", "--meth", "gf", "--all"],
    ["table", "--max", "3", "--form", "text"],
    ["verify", "--tim", "--t-o=8"],
    ["count", "--n=5", "--d=1"],
    ["verify", "--max", "5"],  # ambiguous
    # a missing required option or value, a bad choice, a bad int
    ["count", "--n", "4"],
    ["table"],
    ["count", "--n", "5", "--d"],
    ["count", "--n", "5", "--d", "--method", "gf"],
    ["table", "--max-n", "4", "--format", "bogus"],
    ["count", "--n", "5", "--d", "1", "--method", "nope"],
    ["count", "--n", "5", "--d", "1", "--method", ""],
    ["count", "--n", "x", "--d", "1"],
    ["count", "--n", "", "--d", "1"],
    ["count", "--n", "5", "--d", "1", "--all-methods", "x"],
    # values that start with '-'
    ["table", "--max-n", "4", "--output", "-"],
    ["table", "--max-n", "4", "--output", "-x"],
    ["count", "--n", "5", "--d", "-x"],
    # an option of another subcommand
    ["count", "--n", "5", "--d", "1", "--limit", "3"],
    ["enumerate", "--n", "4", "--d", "1", "--method", "dp"],
    # leftovers: a positional, unknown options
    ["count", "--n", "5", "--d", "1", "extra"],
    ["count", "--n", "5", "--d", "1", "--bogus"],
    ["verify", "--timings", "--x", "3", "tail"],
    # help, nothing, no subcommand, and the end-of-options marker
    ["count", "--help"],
    ["table", "-h"],
    ["count", "--n", "5", "--d", "1", "-h"],
    ["--help"],
    [],
    ["bogus"],
    ["--"],
    ["--", "count", "--n", "5", "--d", "1"],
    ["count", "--", "--n", "5", "--d", "1"],
    ["count", "--n", "5", "--d", "1", "--"],
]

_DISPATCH_CORPUS = _EXACT_CORPUS + _FALLBACK_CORPUS


def _parse_outcomes(argv):
    # the namespace, or the exit code and the text of a failing parse, of
    # _parse and of parse_args, at a fixed help width
    outcomes = []
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}):
        for parse in (kinks.cli._parse, kinks.cli.build_parser().parse_args):
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                try:
                    outcome = vars(parse(list(argv)))
                except SystemExit as exc:
                    outcome = exc.code
            outcomes.append((outcome, out.getvalue(), err.getvalue()))
    return outcomes


@pytest.mark.parametrize("argv", _DISPATCH_CORPUS, ids=" ".join)
def test_subcommand_dispatch_parses_like_the_top_level_parser(argv):
    # main names the subcommand's parser from argv[0], and reads the exact
    # form without it; the namespace, or the exit code and the text of a
    # failing parse, must be parse_args's
    parsed, expected = _parse_outcomes(argv)
    assert parsed == expected


#: each subcommand's add_argument keywords by long flag, read from the
#: CLI's option table
_FORMS = {
    name: {flags[0]: keywords for flags, keywords in options}
    for name, (_, _, options) in kinks.cli._COMMANDS.items()
}
_OPTIONS = sorted({s for options in _FORMS.values() for s in options}) + ["-o", "-h"]
_TOKENS = st.sampled_from(
    _OPTIONS
    + [option[:4] for option in _OPTIONS if len(option) > 4]  # abbreviations
    + ["--", "-", "--help", "extra", "-1", "-x", "", "x", *METHODS, *kinks.cli.FORMATS]
)
_VALUES = st.one_of(
    st.integers(-2, 12).map(str),
    st.sampled_from([*METHODS, *kinks.cli.FORMATS, "nope", "out.csv"]),
    st.sampled_from(["", "-x", "+2", " 3", "1_0", "1.5", "x", "--", "a=b"]),
    st.text(max_size=3),
)


def _value(keywords):
    # the tokens after the option of add_argument KEYWORDS that the exact
    # form takes: a value, or none for a flag
    if keywords.get("action") == "store_true":
        return st.just([])
    if "choices" in keywords:
        return st.sampled_from(sorted(keywords["choices"])).map(lambda v: [v])
    if keywords.get("type") is int:
        return st.integers(0, 12).map(lambda v: [str(v)])
    return st.sampled_from([["out.csv"], [""], ["a=b"]])


@st.composite
def _argv(draw):
    # a request in the exact form, or near it: a subcommand (or none) and
    # its own options, the required ones most often, each with a value
    # taken five times in six, else any value; then up to two edits, each
    # a token put in, replaced or dropped, an option joined to its value
    # by '=', or an option given again
    command = draw(st.sampled_from([*_FORMS, "bogus"]))
    argv = [command]
    options = _FORMS.get(command, {})
    for option in draw(st.permutations(sorted(options))):
        if draw(st.integers(0, 9)) < (8 if options[option].get("required") else 4):
            value = draw(_value(options[option])) if draw(st.integers(0, 5)) else [draw(_VALUES)]
            argv += [option, *value]
    for _ in range(draw(st.integers(0, 2))):
        edit, i = draw(st.integers(0, 4)), draw(st.integers(1, len(argv)))
        token = draw(st.one_of(_TOKENS, _VALUES))
        if edit == 4 and options:
            option = draw(st.sampled_from(sorted(options)))
            argv[i:i] = [option, *draw(_value(options[option]))]
        elif edit == 0:
            argv.insert(i, token)
        elif i < len(argv) and edit == 1:
            argv[i] = token
        elif i < len(argv) and edit == 2:
            del argv[i]
        elif i + 1 < len(argv):
            argv[i:i + 2] = [f"{argv[i]}={argv[i + 1]}"]
    return argv


@settings(max_examples=300, deadline=None)
@given(_argv())
def test_parse_matches_parse_args_on_drawn_argv(argv):
    parsed, expected = _parse_outcomes(argv)
    assert parsed == expected


# one request of each shape in the benchmark's decks, each read in the
# exact form
_DECK_SHAPES = [
    *(["count", "--n", "9", "--d", "2", "--method", method] for method in METHODS),
    *(["table", "--method", "dp", "--max-n", "12", "--format", fmt]
      for fmt in kinks.cli.FORMATS),
    ["enumerate", "--n", "9", "--d", "2", "--limit", "300"],
    ["verify", "--max-n-brute", "5", "--max-n-dp", "9", "--t-order", "8", "--v-order", "3"],
    ["asym", "--d", "1", "--max-n", "9", "--format", "text"],
]


class _ArgparseRead(Exception):
    pass


def _no_argparse(*args, **kwargs):
    raise _ArgparseRead


@pytest.mark.parametrize("argv", _DECK_SHAPES, ids=" ".join)
def test_deck_requests_skip_argparse_and_print_the_same(capsys, monkeypatch, argv):
    expected = run_cli(capsys, *argv)
    assert expected[0] == 0
    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", _no_argparse)
    assert run_cli(capsys, *argv) == expected


@pytest.mark.parametrize("argv", _DISPATCH_CORPUS, ids=" ".join)
def test_argparse_reads_every_near_miss_of_the_exact_form(monkeypatch, argv):
    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", _no_argparse)
    if argv in _EXACT_CORPUS:
        kinks.cli._parse(list(argv))
    else:
        with pytest.raises(_ArgparseRead):
            kinks.cli._parse(list(argv))


def test_reused_parser_answers_like_fresh_processes(capsys, monkeypatch):
    # the parser is built once per process; a usage error must leave it as new
    requests = [
        ("count", "--n", "4"),
        ("count", "--n", "10", "--d", "3", "--method", "dp"),
        ("table", "--max-n", "4", "--format", "bogus"),
        ("count", "--n", "5", "--d", "1", "--all-methods"),
    ]
    monkeypatch.setenv("COLUMNS", "80")
    env = {**os.environ, "PYTHONPATH": str(Path(kinks.genfunc.__file__).parents[1])}
    for argv in requests:
        fresh = subprocess.run(
            [sys.executable, "-m", "kinks", *argv], capture_output=True, text=True, env=env
        )
        assert run_cli(capsys, *argv) == (fresh.returncode, fresh.stdout, fresh.stderr), argv
    assert run_cli(capsys, *requests[0])[0] == 2
    assert run_cli(capsys, *requests[1]) == (0, "1841152\n", "")


@pytest.mark.parametrize("n, d", [(400, 3), (300, 2)])
def test_all_methods_agree_at_large_n(capsys, n, d):
    code, out, err = run_cli(capsys, "count", "--n", str(n), "--d", str(d), "--all-methods")
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert [line.split(": ")[0] for line in lines] == ["dp", "gf", "closed"]
    assert len({line.split(": ")[1] for line in lines}) == 1
    assert lines[-1] == f"closed: {kinks.genfunc.closed_form(n, d)}"


def test_counts_past_the_int_digit_limit_print_in_full(capsys):
    # 8^5000 / 128 has about 4500 digits, past the 4300-digit str() limit
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    outs = [
        run_cli(capsys, "count", "--n", "5000", "--d", "3", "--method", method)
        for method in ("gf", "closed")
    ]
    assert outs[0] == outs[1]
    code, out, err = outs[0]
    assert (code, err) == (0, "")
    assert 4300 < len(out.strip()) < 4600 and out.strip().isdigit()
    assert getattr(sys, "get_int_max_str_digits", lambda: 0)() == limit


def test_table_writers_and_parsers_past_the_int_digit_limit(capsys, monkeypatch):
    # main() lifts the 4300-digit str() limit once per request; a direct
    # writer call, or a reader of its digits, enters the same lift
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    table = CountTable({2: (10**5000,)})
    expected = {
        "csv": "n,d,count\n2,0,1" + "0" * 5000 + "\n",
        "json": json.dumps({"rows": [{"n": 2, "counts": ["1" + "0" * 5000]}]}, indent=2) + "\n",
        "text": "n=2: 1" + "0" * 5000 + "\n",
    }
    with _unlimited_int_digits():
        # the one row, which starts the stream, then the call that ends it
        texts = {
            fmt: row_text(2, table.row(2), True, 2) + row_text(None, (), False, 2)
            for fmt, row_text in kinks.cli._TABLE_FORMATTERS.items()
        }
        assert texts == expected
        assert int(expected["csv"].split(",")[-1]) == 10**5000
    assert getattr(sys, "get_int_max_str_digits", lambda: 0)() == limit
    # the recurrence route's row n = 2, the one row that `table --max-n 2` exports
    monkeypatch.setattr("kinks.recurrence._kink_rows", lambda lengths, lo, top: iter([table.row(2)]))
    for fmt, text in expected.items():
        assert run_cli(capsys, "table", "--max-n", "2", "--format", fmt) == (0, text, "")
    assert getattr(sys, "get_int_max_str_digits", lambda: 0)() == limit


def test_digit_limit_fallback_without_the_limit_functions(capsys, monkeypatch):
    # interpreters before 3.11 have neither sys.get_int_max_str_digits nor
    # its setter; the writers and main() then run without touching a limit
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    table = dp_table(30)
    argv = ("count", "--n", "40", "--d", "2")
    usual = _written("csv", table), run_cli(capsys, *argv)
    monkeypatch.delattr(sys, "get_int_max_str_digits", raising=False)
    monkeypatch.delattr(sys, "set_int_max_str_digits", raising=False)
    assert (_written("csv", table), run_cli(capsys, *argv)) == usual
    assert usual[1][0] == 0
    monkeypatch.undo()
    assert getattr(sys, "get_int_max_str_digits", lambda: 0)() == limit


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--max-n-brute", "5", "--max-n-dp", "20", "--t-order", "8", "--v-order", "3"),
        ("count", "--n", "15", "--d", "4", "--all-methods"),
        ("enumerate", "--n", "12", "--d", "3", "--limit", "2000"),
        ("verify",),  # the head walk at n = 9, the label walk up to n = 7
        ("count", "--n", "11", "--d", "3", "--method", "brute"),
        ("count", "--n", "5000", "--d", "200", "--method", "closed"),  # the 2^d gate
        ("asym", "--d", "3", "--max-n", "70", "--format", "json"),  # the integer growth rows
        ("count", "--n", "20000", "--d", "200", "--method", "gf"),  # the 4^d gate
    ],
)
def test_cli_under_python_O_prints_the_same(argv):
    # python -O strips assert statements; the invariant checks must not be asserts
    env = {**os.environ, "PYTHONPATH": str(Path(kinks.genfunc.__file__).parents[1])}
    runs = [
        subprocess.run(
            [sys.executable, *flags, "-m", "kinks", *argv], capture_output=True, text=True, env=env
        )
        for flags in ((), ("-O",))
    ]
    assert [r.returncode for r in runs] == [0, 0], runs[1].stderr
    assert runs[1].stdout == runs[0].stdout


def test_byte_identical_reruns(capsys):
    invocations = [
        ("count", "--n", "6", "--d", "1", "--all-methods"),
        ("table", "--max-n", "12", "--format", "json"),
        ("asym", "--d", "2", "--max-n", "30"),
        ("enumerate", "--n", "5", "--d", "2"),
        ("verify", "--max-n-brute", "4", "--max-n-dp", "12", "--t-order", "8", "--v-order", "3"),
    ]
    for argv in invocations:
        first = run_cli(capsys, *argv)
        second = run_cli(capsys, *argv)
        assert first == second, argv


def test_serializers_reject_foreign_tables():
    table = CountTable({2: (2,), 5: (16, 88, 16)})
    assert _written("csv", table) == "n,d,count\n2,0,2\n5,0,16\n5,1,88\n5,2,16\n"
    series = series_table(9, 2)  # truncated rows are written as they are held
    assert max(map(len, series.rows.values())) == 3 < len(dp_table(9).row(9))
    assert _written("csv", series) == _csv_lines(series)
