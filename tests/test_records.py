"""Record types: reprs, equality, immutability, and the modules start-up skips."""

import copy
import json
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import kinks.cli
from kinks import (
    CheckResult,
    ConsistencyReport,
    ConvergenceRow,
    CountTable,
    History,
    LevelState,
    TreeLabel,
    convergence_report,
    dp_table,
    root_state,
)
from kinks.treedp import LabelMismatch

MISMATCH = LabelMismatch(3, (1, 2, 3), 2, TreeLabel(1, 0, 1), TreeLabel(2, 0, 1))

RECORDS = [
    (History((2, 1, 3)), "History(word=(2, 1, 3))"),
    (CountTable({2: (2,)}), "CountTable(rows={2: (2,)})"),
    (
        CheckResult("golden_dp", True, "", 1.5, "trace"),
        "CheckResult(name='golden_dp', passed=True, detail='')",
    ),
    (
        MISMATCH,
        "LabelMismatch(n=3, word=(1, 2, 3), position=2, "
        "expected=TreeLabel(max_pos=1, kinks=0, max_first=1), "
        "actual=TreeLabel(max_pos=2, kinks=0, max_first=1))",
    ),
    (
        ConsistencyReport(4, (MISMATCH,)),
        "ConsistencyReport(checked=4, mismatches=(LabelMismatch(n=3, word=(1, 2, 3), "
        "position=2, expected=TreeLabel(max_pos=1, kinks=0, max_first=1), "
        "actual=TreeLabel(max_pos=2, kinks=0, max_first=1)),))",
    ),
    (root_state(), "LevelState(n=2, counts=(((0, 1), (0, 0)), ((1, 0), (0, 0))))"),
    (
        convergence_report(1, 4, table=dp_table(4))[0],
        "ConvergenceRow(n=3, exact=2, estimate=Fraction(8, 1), deviation=Fraction(3, 4))",
    ),
]

IDS = [type(record).__name__ for record, _ in RECORDS]

FIELDS = {
    History: ("word",),
    CountTable: ("rows",),
    CheckResult: ("name", "passed", "detail", "seconds", "traceback"),
    LabelMismatch: ("n", "word", "position", "expected", "actual"),
    ConsistencyReport: ("checked", "mismatches"),
    LevelState: ("n", "counts"),
    ConvergenceRow: ("n", "exact", "estimate", "deviation"),
}


@pytest.mark.parametrize("record, text", RECORDS, ids=IDS)
def test_record_reprs_are_pinned(record, text):
    assert repr(record) == text


@pytest.mark.parametrize("record", [record for record, _ in RECORDS], ids=IDS)
def test_assigning_any_field_raises(record):
    for name in FIELDS[type(record)]:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))


@pytest.mark.parametrize("record", [record for record, _ in RECORDS], ids=IDS)
def test_records_survive_copy_and_pickle(record):
    for twin in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert twin == record and type(twin) is type(record)
        assert [getattr(twin, f) for f in FIELDS[type(record)]] == [
            getattr(record, f) for f in FIELDS[type(record)]
        ]


def test_records_are_tuples_equal_to_their_fields():
    # as TreeLabel already was: a record is the plain tuple of its fields
    assert History((2, 1)) == ((2, 1),)
    assert CountTable({2: (2,)}) == ({2: (2,)},)
    assert root_state() == (2, (((0, 1), (0, 0)), ((1, 0), (0, 0))))
    assert convergence_report(1, 4, table=dp_table(4))[0] == (3, 2, Fraction(8), Fraction(3, 4))


def test_check_results_ignore_seconds_and_traceback():
    fast = CheckResult("tree_labels", False, "boom", 0.001, "")
    slow = CheckResult("tree_labels", False, "boom", seconds=9.5, traceback="Traceback ...")
    assert fast == slow and hash(fast) == hash(slow) and repr(fast) == repr(slow)
    assert not (fast != slow)  # tuple's own != would read the seconds
    assert not (fast == CheckResult("tree_labels", False, "bang"))
    assert fast != CheckResult("tree_labels", False, "bang")
    assert fast != CheckResult("tree_labels", True, "boom")
    assert fast != ("tree_labels", False, "boom")
    assert CheckResult("x", True) == CheckResult("x", True, "")
    twin = pickle.loads(pickle.dumps(slow))
    assert (twin.seconds, twin.traceback) == (9.5, "Traceback ...") and twin == fast


def _fresh(code):
    env = {**os.environ, "PYTHONPATH": str(Path(kinks.cli.__file__).parents[1])}
    run = subprocess.run([sys.executable, *code], capture_output=True, text=True, env=env)
    assert run.returncode == 0, run.stderr
    return run.stdout


def test_cli_start_up_skips_the_heavy_stdlib_modules():
    skipped = ("dataclasses", "inspect", "ast", "dis", "tokenize", "json")
    code = f"import sys, kinks.cli; print([m for m in {skipped!r} if m in sys.modules])"
    assert _fresh(["-c", code]) == "[]\n"


def test_json_paths_still_work_in_a_fresh_process():
    code = (
        "import json\n"
        "from kinks.cli import _TABLE_FORMATTERS\n"
        "from kinks import dp_table\n"
        "table = dp_table(12)\n"
        "row_text = _TABLE_FORMATTERS['json']\n"
        "text = ''.join(row_text(n, table.row(n), n == 2, 12) for n in range(2, 13))\n"
        "rows = json.loads(text + row_text(None, (), False, 12))['rows']\n"
        "print({row['n']: tuple(map(int, row['counts'])) for row in rows})"
    )
    expected = {n: dp_table(12).row(n) for n in range(2, 13)}
    assert _fresh(["-c", code]) == f"{expected}\n"
    rows = [
        (3, "2", "8", "0.75"),
        (4, "16", "32", "0.5"),
        (5, "88", "128", "0.3125"),
        (6, "416", "512", "0.1875"),
        (7, "1824", "2048", "0.109375"),
        (8, "7680", "8192", "0.0625"),
    ]
    payload = {
        "d": 1,
        "rows": [
            {"n": n, "exact": exact, "estimate": estimate, "deviation": deviation}
            for n, exact, estimate, deviation in rows
        ],
    }
    out = _fresh(["-m", "kinks", "asym", "--d", "1", "--max-n", "8", "--format", "json"])
    assert out == json.dumps(payload, indent=2) + "\n"
