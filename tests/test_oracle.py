"""Exhaustive and backtracking enumeration oracles."""

import builtins
import copy
import os
import pickle
import subprocess
import sys
import tracemalloc
from collections import defaultdict
from functools import cache
from itertools import islice, permutations
from math import factorial
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import kinks.cli
import kinks.oracle
from kinks import (
    History,
    backtrack_count,
    brute_force_table,
    dp_table,
    enumerate_histories,
    kink_count,
    max_kinks,
)
from kinks.core import _opened, _word_kinks
from kinks.oracle import _backtrack_rows, _brute_rows, _emit_groups, _moves
from kinks.recurrence import _kink_rows
from helpers import F4_D0_WORDS, F4_D1_WORDS, GOLDEN, naive_table


def test_brute_force_reference_rows():
    table = brute_force_table(7)
    assert table.row(1) == (1,)
    assert table.row(2) == (2,)
    assert table.row(4) == (8, 16)
    assert table.row(7) == (64, 1824, 2880, 272)
    for n in table.lengths():
        row = table.row(n)
        assert len(row) == max_kinks(n) + 1 and sum(row) == factorial(n)
        assert min(row) >= 0 and row[-1] > 0


def test_brute_force_matches_naive_oracle():
    # the literal scan: every one of the n! words, built and classified
    assert brute_force_table(8).rows == naive_table(8)


def test_split_scan_partitions_every_length_to_eleven():
    assert brute_force_table(11, ceiling=11).rows == dp_table(11).rows


@cache
def _dp14():
    return dp_table(14)


@pytest.mark.parametrize("n", range(1, 15))
def test_set_pass_rows_equal_the_recurrences(n):
    # past the CLI's ceiling too: the pass makes about n 2^(n-1) additions
    assert list(_brute_rows((n,), 0, max_kinks(n))) == [list(_dp14().row(n))]


def test_one_set_pass_reads_every_row_of_a_table():
    # the sets of sites 1..m come first in the pass of the longest chain,
    # whose digits are as wide as its n!; each row is cut to lo..top
    rows = [list(_dp14().row(n)) for n in range(1, 15)]
    assert list(_brute_rows(range(1, 15), 0, 6)) == rows
    assert list(_brute_rows((3, 9, 5), 1, 2)) == [rows[2][1:3], rows[8][1:3], rows[4][1:3]]
    assert list(_brute_rows(range(1, 7), 2, 5)) == [[], [], [], [], [16], [272]]
    assert list(_brute_rows((), 0, 3)) == []


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 10).flatmap(
        lambda n: st.tuples(st.permutations(range(1, n + 1)), st.integers(0, n))
    )
)
def test_head_and_tail_kinks_add_up_at_any_cut(word_cut):
    # the pass's premise: the blocks a flip opens depend only on the set
    # flipped before it
    word, cut = word_cut
    head_opens, seen = _opened(0, word[:cut])
    tail_opens, _ = _opened(seen, word[cut:])
    assert (head_opens - 1) + tail_opens == _word_kinks(word)


def test_split_scan_fault_check_catches_a_corrupted_tail(monkeypatch):
    # a row read without its top class misses words, at length 5 first
    exact = kinks.oracle.max_kinks
    monkeypatch.setattr(kinks.oracle, "max_kinks", lambda n: exact(n) - (n == 5))
    message = "^exhaustive scan of length 5 does not count 5! words$"
    with pytest.raises(ArithmeticError, match=message):
        brute_force_table(6)


def test_split_scan_fault_check_catches_a_corrupted_head(monkeypatch):
    # a pass of length 8 that never carries the set {7} on loses, at
    # length 7, the 6! words that flip site 7 first; the shorter rows
    # never hold site 7
    full8 = ((1 << 8) - 1) << 1

    def corrupted(*args):
        if args == (0, full8, 2):
            return [seen for seen in builtins.range(*args) if seen != 1 << 7]
        return builtins.range(*args)

    monkeypatch.setattr(kinks.oracle, "range", corrupted, raising=False)
    message = "^exhaustive scan of length 7 does not count 7! words$"
    with pytest.raises(ArithmeticError, match=message):
        brute_force_table(8)


def test_brute_force_ceiling_guard():
    with pytest.raises(ValueError):
        brute_force_table(12)
    with pytest.raises(ValueError):
        brute_force_table(4, ceiling=3)
    assert brute_force_table(3, ceiling=3).row(3) == (4, 2)
    with pytest.raises(ValueError):
        brute_force_table(0)


def test_enumerate_reference_sets():
    zero_kinks = {h.word for h in enumerate_histories(4, 0)}
    assert zero_kinks == F4_D0_WORDS
    one_kink = {h.word for h in enumerate_histories(4, 1)}
    assert one_kink == F4_D1_WORDS
    assert {h.word for h in enumerate_histories(3, 1)} == {(1, 3, 2), (3, 1, 2)}


def test_enumerate_is_sorted_and_duplicate_free():
    for n in range(1, 8):
        for d in range(max_kinks(n) + 1):
            words = [h.word for h in enumerate_histories(n, d)]
            assert words == sorted(words)
            assert len(set(words)) == len(words)


def test_enumerate_streams_have_the_requested_kinks():
    for n in range(1, 9):
        for d in range(max_kinks(n) + 1):
            count = 0
            for h in enumerate_histories(n, d):
                assert kink_count(h) == d
                count += 1
            assert count == (GOLDEN[n][d] if n >= 2 else 1)


@cache
def _dp12():
    return dp_table(12)


@settings(max_examples=25, deadline=None)
@given(
    st.integers(9, 12).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, max_kinks(n)))),
    st.integers(1, 2000),
)
@example((10, 2), 500)
@example((12, 3), 2000)
def test_enumerate_sampled_above_exhaustive_range(nd, limit):
    # the sizes the `queries` benchmark asks for, checked by replay
    n, d = nd
    words = [h.word for h in enumerate_histories(n, d, limit)]
    assert all(a < b for a, b in zip(words, words[1:]))
    assert all(_word_kinks(w) == d for w in words)
    assert len(words) == min(limit, _dp12().count(n, d))


def test_enumerate_is_every_word_of_d_kinks_in_word_order():
    for n in range(1, 9):
        for d in range(max_kinks(n) + 1):
            wanted = sorted(w for w in permutations(range(1, n + 1)) if _word_kinks(w) == d)
            assert [h.word for h in enumerate_histories(n, d)] == wanted, (n, d)


def _gap_capacity(lo, hi, n):
    # Most blocks that can still open in the unflipped run strictly
    # between positions lo and hi, where 0 and n + 1 stand for the chain
    # ends: a run of L sites touching `ends` chain ends admits
    # floor((L - 1 + ends) / 2) new blocks.
    length = hi - lo - 1
    if length <= 0:
        return 0
    ends = (lo == 0) + (hi == n + 1)
    return (length - 1 + ends) // 2


def _plain_moves(seen, rem, cap, n):
    # `_moves` written site by site: the room a flip leaves is counted from
    # the nearest flipped sites, before and after it, on lists of sites
    flipped = [s for s in range(1, n + 1) if seen >> s & 1]
    moves = []
    for s in range(1, n + 1):
        grows = s - 1 in flipped or s + 1 in flipped
        if s in flipped or not (grows or rem):
            continue
        rem2 = rem if grows else rem - 1
        if not rem2:
            moves.append((1 << s, 0, 0))
            continue
        lo = max([t for t in flipped if t < s], default=0)
        hi = min([t for t in flipped if t > s], default=n + 1)
        cap2 = cap + _gap_capacity(lo, s, n) + _gap_capacity(s, hi, n) - _gap_capacity(lo, hi, n)
        if cap2 >= rem2:
            moves.append((1 << s, rem2, cap2))
    return moves


def test_moves_count_the_room_left_as_the_nearest_flipped_sites_give_it():
    # every flipped set of every n <= 10, credits from none to one past
    # the most a walk starts with, and rooms that need not be reachable
    for n in range(1, 11):
        full = ((1 << n) - 1) << 1
        for seen in range(0, full + 1, 2):
            for rem in range(max_kinks(n) + 2):
                for cap in (0, 1, 2, 5):
                    wanted = _plain_moves(seen, rem, cap, n)
                    assert list(_moves(seen, rem, cap, n, full)) == wanted, (n, seen, rem, cap)


def _runs_room(seen, n):
    # the room of the unflipped runs of `seen`, recounted run by run
    bounds = [0, *(s for s in range(1, n + 1) if seen >> s & 1), n + 1]
    return sum(_gap_capacity(lo, hi, n) for lo, hi in zip(bounds, bounds[1:]))


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 40).flatmap(
        lambda n: st.tuples(
            st.just(n), st.integers(0, 2**n - 1), st.integers(0, n), st.integers(0, n)
        )
    )
)
@example((3, 0b011, 1, 1))  # sites 1 and 2 flipped side by side
@example((6, 0b011011, 0, 0))
def test_moves_flip_one_free_site_for_any_flipped_set(args):
    # any flipped set, adjacent flipped sites included, which the counting
    # walk's collapsed chains never hold
    n, sites, rem, cap = args
    seen, full = sites << 1, ((1 << n) - 1) << 1
    moves = list(_moves(seen, rem, cap, n, full))
    bits = [bit for bit, _, _ in moves]
    assert bits == sorted(set(bits))
    for bit, rem2, cap2 in moves:
        assert bit & (bit - 1) == 0 and bit & full and not bit & seen
        fresh = not seen & (bit << 1 | bit >> 1)
        assert rem or not fresh
        room = cap - _runs_room(seen, n) + _runs_room(seen | bit, n)
        assert (rem2, cap2) == (rem - fresh, room if rem - fresh else 0)
    kept = []
    for s in range(1, n + 1):
        bit = 1 << s
        fresh = not seen & (bit << 1 | bit >> 1)
        room = cap - _runs_room(seen, n) + _runs_room(seen | bit, n)
        if not seen & bit and (rem or not fresh) and (rem == fresh or room >= rem - fresh):
            kept.append(bit)
    assert bits == kept


def _plain_walk(n, d):
    # the pruned search written the plain way: recursion over `_moves`,
    # with no memo and no shared completions
    full = ((1 << n) - 1) << 1

    def walk(seen, rem, cap, word):
        if seen == full:
            yield word
        for bit, rem2, cap2 in _moves(seen, rem, cap, n, full):
            yield from walk(seen | bit, rem2, cap2, word + (bit.bit_length() - 1,))

    return walk(0, d + 1, _gap_capacity(0, n + 1, n), ())


@settings(max_examples=30, deadline=None)
@given(
    st.integers(9, 16).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, max_kinks(n)))),
    st.integers(0, 3000),
)
@example((9, 2), 3000)
@example((16, 7), 3000)
@example((15, 0), 119)  # one head's completions end at 119, 120 and 121 words
@example((15, 0), 120)
@example((15, 0), 121)
@example((10, 2), 120)  # inside the second head's 90 completions
def test_enumerate_matches_the_plain_walk_above_exhaustive_range(nd, limit):
    n, d = nd
    words = [h.word for h in enumerate_histories(n, d, limit)]
    assert words == list(islice(_plain_walk(n, d), limit))


def test_enumerate_memory_stays_bounded_on_a_long_stream():
    # a stream holds a bounded memo of completions, not the words it yielded
    tracemalloc.start()
    try:
        for _ in enumerate_histories(30, 3, 100_000):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


@pytest.mark.parametrize("n, d, bound", [(400, 3, 2**20), (1000, 1, 4 * 2**20)])
def test_enumerate_first_word_costs_no_list_of_flips_per_depth(n, d, bound):
    # the walk to the first word takes the first kept flip at each depth
    # and leaves the others unlisted
    tracemalloc.start()
    try:
        first = next(enumerate_histories(n, d))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert kink_count(first) == d
    assert peak < bound, peak


def _text_prefix(sep):
    # the CLI's text rendering: a site's text in front of every line of a block
    def prefix(s, block):
        text = sep + str(s)
        return text + block.replace("\n", "\n" + text)

    return prefix


@pytest.mark.parametrize("n", range(1, 11))
def test_one_walk_renders_sites_as_tuples_and_as_text(n):
    # the same groups, heads and completions from both renderings: each
    # text block holds one line per tuple completion, in order, the sites
    # of that tuple with the separator leading each
    sep = "" if n <= 9 else ","
    for d in range(max_kinks(n) + 1):
        sites = _emit_groups(n, d)
        text = _emit_groups(n, d, _text_prefix(sep), "\n".join, "")
        for (head, tails), (text_head, block) in islice(zip(sites, text), 200):
            assert head == text_head and 1 <= len(head) == max(1, n - 5)
            assert block.split("\n") == ["".join(sep + str(s) for s in tail) for tail in tails]
            assert all(sorted(head + list(tail)) == list(range(1, n + 1)) for tail in tails)


def test_the_walk_checks_the_kink_count_itself():
    # the CLI reaches the walk without enumerate_histories
    with pytest.raises(ValueError, match="^kink count 2 out of range 0..1 for n = 4$"):
        next(_emit_groups(4, 2, _text_prefix(""), "\n".join, ""))


def test_enumerate_limit():
    first_three = [h.word for h in enumerate_histories(4, 1, limit=3)]
    assert first_three == [(1, 2, 4, 3), (1, 3, 2, 4), (1, 3, 4, 2)]
    assert list(enumerate_histories(4, 1, limit=0)) == []
    assert len(list(enumerate_histories(4, 1, limit=99))) == 16


def _is_checked_history(h):
    return type(h) is History and History(h.word) == h


def test_enumerate_yields_history_values():
    # built without History's own check, equal to the checked value
    for n in range(1, 9):
        for d in range(max_kinks(n) + 1):
            assert all(map(_is_checked_history, enumerate_histories(n, d))), (n, d)


@settings(max_examples=20, deadline=None)
@given(
    st.integers(9, 16).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, max_kinks(n)))),
    st.integers(0, 3000),
)
def test_walk_built_histories_are_checked_histories_above_eight(nd, limit):
    n, d = nd
    assert all(map(_is_checked_history, enumerate_histories(n, d, limit)))


def test_walk_built_histories_copy_and_pickle_like_checked_ones():
    built = list(enumerate_histories(7, 2, 50))
    checked = [History(h.word) for h in built]
    for copy_of in (
        lambda h: pickle.loads(pickle.dumps(h)),
        copy.deepcopy,
        copy.copy,
        lambda h: h._replace(word=h.word[::-1]),
    ):
        copies = [copy_of(h) for h in built]
        assert copies == [copy_of(h) for h in checked]
        assert all(type(h) is History for h in copies)
    with pytest.raises(ValueError, match="not a permutation"):
        built[0]._replace(word=(1, 1, 2, 3, 4, 5, 6))


def _flipped(seen, bit, n, full):
    return seen & -seen  # the lowest site already flipped


def _two_sites(seen, bit, n, full):
    free = full ^ seen
    return bit | (free ^ bit) & -(free ^ bit)  # bit and the lowest other free site


def _site_zero(seen, bit, n, full):
    return 1


def _site_past_the_end(seen, bit, n, full):
    return 1 << (n + 1)


WALK_FAULTS = (_flipped, _two_sites, _site_zero, _site_past_the_end)


def _inject(monkeypatch, fault, in_tail):
    # replaces the first flip from the first state with at least one site
    # flipped and two free, among the heads (more than _TAIL_SITES free)
    # or inside a memoized completion (at most _TAIL_SITES free)
    exact, done = kinks.oracle._moves, []

    def faulty(seen, rem, cap, n, full):
        moves = list(exact(seen, rem, cap, n, full))
        free = bin(full ^ seen).count("1")
        if not done and moves and seen and 2 <= free and (free <= 5) == in_tail:
            done.append(seen)
            bit, rem2, cap2 = moves[0]
            moves[0] = fault(seen, bit, n, full), rem2, cap2
        return moves

    monkeypatch.setattr(kinks.oracle, "_moves", faulty)
    return done


@pytest.mark.parametrize("in_tail", (False, True))
@pytest.mark.parametrize("fault", WALK_FAULTS)
def test_walk_check_catches_a_bad_flip(monkeypatch, capsys, fault, in_tail):
    done = _inject(monkeypatch, fault, in_tail)
    with pytest.raises(ArithmeticError, match="enumeration of length 10 flips"):
        list(enumerate_histories(10, 2, 3000))
    assert len(done) == 1
    done.clear()
    code = kinks.cli.main(["enumerate", "--n", "10", "--d", "2", "--limit", "3000"])
    err = capsys.readouterr().err
    assert (code, len(done)) == (1, 1)
    assert err.startswith("error: enumeration of length 10 flips") and err.count("\n") == 1
    assert "Traceback" not in err


def test_walk_check_runs_under_python_O():
    # python -O strips assert statements; the walk's check is an if/raise
    script = "\n".join(
        [
            "import sys, kinks.cli, kinks.oracle",
            "exact = kinks.oracle._moves",
            "def faulty(seen, rem, cap, n, full):",
            "    moves = exact(seen, rem, cap, n, full)",
            "    return [(1 << (n + 1), r, c) for _, r, c in moves] if seen else moves",
            "kinks.oracle._moves = faulty",
            "sys.exit(kinks.cli.main(['enumerate', '--n', '10', '--d', '2', '--limit', '50']))",
        ]
    )
    env = {**os.environ, "PYTHONPATH": str(Path(kinks.oracle.__file__).parents[1])}
    run = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env
    )
    assert (run.returncode, run.stdout) == (1, "")
    assert run.stderr.startswith("error: enumeration of length 10 flips 0x800 after 0x")
    assert run.stderr.count("\n") == 1


#: (n, d) pairs below the shortest chain, a negative d included: each must
#: get n's error, whatever d is
SHORT_CHAINS = ((0, 0), (-3, 0), (0, -1), (-3, -1), (0, 5))


@pytest.mark.parametrize("limit", (-1, 2.0, True, False))  # a bool is an int to islice
def test_enumerate_rejects_a_limit_islice_cannot_take(limit):
    with pytest.raises(ValueError, match=f"limit must be an int of at least 0, got {limit}$"):
        enumerate_histories(5, 1, limit)


def test_enumerate_range_errors():
    with pytest.raises(ValueError, match=r"kink count 2 out of range 0\.\.1 for n = 4$"):
        list(enumerate_histories(4, 2))  # max_kinks(4) == 1
    with pytest.raises(ValueError, match=r"kink count 2 out of range 0\.\.1 for n = 4$"):
        enumerate_histories(4, 2)  # at the call, not at the first next()
    for n, d in SHORT_CHAINS:
        with pytest.raises(ValueError, match=f"n must be an int of at least 1, got {n}$"):
            enumerate_histories(n, d)


def test_backtrack_reference_counts():
    assert backtrack_count(5, 1) == 88
    assert backtrack_count(6, 2) == 272
    with pytest.raises(ValueError, match=r"kink count 3 out of range 0\.\.2 for n = 6$"):
        backtrack_count(6, max_kinks(6) + 1)
    for n, d in SHORT_CHAINS:
        with pytest.raises(ValueError, match=f"n must be an int of at least 1, got {n}$"):
            backtrack_count(n, d)


def test_backtrack_matches_enumeration_sizes():
    for n in range(1, 9):
        for d in range(max_kinks(n) + 1):
            assert backtrack_count(n, d) == sum(1 for _ in enumerate_histories(n, d))


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 8).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, max_kinks(n)))),
    st.one_of(st.none(), st.integers(0, 3000)),
)
def test_backtrack_counts_the_enumerated_stream(nd, limit):
    n, d = nd
    total = backtrack_count(n, d)
    stream = list(enumerate_histories(n, d, limit))
    assert len(stream) == (total if limit is None else min(limit, total))


def test_backtrack_partition_sums_to_factorial():
    for n in range(1, 11):
        assert sum(backtrack_count(n, d) for d in range(max_kinks(n) + 1)) == factorial(n)


def test_backtrack_agrees_with_brute_force_to_ten():
    brute = brute_force_table(10)
    for n in range(1, 11):
        for d in range(max_kinks(n) + 1):
            assert backtrack_count(n, d) == brute.count(n, d), (n, d)


def test_backtrack_matches_the_recurrences_at_every_n_to_eleven():
    dp = dp_table(11)
    for n in range(1, 12):
        for d in range(max_kinks(n) + 1):
            assert backtrack_count(n, d) == dp.count(n, d), (n, d)


def _uncollapsed_count(n, d):
    # the counting walk on whole chains, one memo per (n, d), keyed by
    # the flipped set itself
    full = ((1 << n) - 1) << 1

    @cache
    def walk(seen, rem, cap):
        if seen == full:
            return 1
        return sum(walk(seen | bit, rem2, cap2) for bit, rem2, cap2 in _moves(seen, rem, cap, n, full))

    return walk(0, d + 1, (n + 1) // 2)


def test_backtrack_rows_match_the_uncollapsed_walk_to_eleven():
    rows = list(_backtrack_rows(range(1, 12), 0, 5))
    assert rows == [
        [_uncollapsed_count(n, d) for d in range(max_kinks(n) + 1)] for n in range(1, 12)
    ]


def test_backtrack_rows_are_the_recurrence_rows_to_sixteen():
    dp = dp_table(16)
    rows = _backtrack_rows(range(1, 17), 0, max_kinks(16))
    assert [tuple(row) for row in rows] == [dp.row(n) for n in range(1, 17)]


def test_backtrack_rows_are_empty_above_the_band():
    # lo above min(top, max_kinks(n)) gives an empty row, as the closed rows do
    assert list(_backtrack_rows(range(1, 7), 2, 5)) == [[], [], [], [], [16], [272]]
    assert list(_backtrack_rows((9, 10), 3, 2)) == [[], []]
    assert list(_backtrack_rows((9,), 5, 9)) == [[]]


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 22), st.integers(0, 11), st.integers(0, 11))
@example(22, 0, 10)
@example(1, 0, 0)
def test_run_shape_rows_are_the_recurrence_rows_to_twenty_two(last, lo, top):
    # every cut of every row n <= last from one walk, against the
    # recurrence; the lengths may also come as a tuple, in any order
    lengths = range(1, last + 1)
    rows = [tuple(row) for row in _backtrack_rows(lengths, lo, top)]
    assert rows == [row[lo:] for row in _kink_rows(lengths, 0, top)]
    assert [tuple(row) for row in _backtrack_rows((last, 1), lo, top)] == [rows[-1], rows[0]]


def _walk_with_a_wrong_move(monkeypatch):
    # rebinds the `cache` that `_backtrack_rows` wraps its walk in, so that
    # the walk of every shape with an interior run of two or more sites
    # also counts one flip that takes that whole run; returns the shapes
    # the wrong move was made from
    made = []

    def faulty(walk):
        cached = cache(walk)

        def counted(a, b, inner, rem, room):
            count = cached(a, b, inner, rem, room)
            for i, run in enumerate(inner):
                if run > 1:
                    made.append((a, b, inner, rem))
                    return count + cached(a, b, inner[:i] + inner[i + 1 :], rem, room - (run - 1) // 2)
            return count

        return counted

    monkeypatch.setattr(kinks.oracle, "cache", faulty)
    return made


def test_backtrack_row_sum_gate_catches_a_wrong_move(monkeypatch, capsys):
    # rows 1..3 hold no interior run of two sites, and row 4 is the first
    # that the wrong move changes
    made = _walk_with_a_wrong_move(monkeypatch)
    with pytest.raises(ArithmeticError, match=r"^backtracking row 4 fails its sum check against 4!$"):
        list(_backtrack_rows(range(1, 8), 0, 3))
    assert made
    # a cut row may sum below n!, but not above it: row 5 at d <= 1 counts
    # 16 + 106 = 122 words
    with pytest.raises(ArithmeticError, match=r"^backtracking row 5 fails its sum check against 5!$"):
        list(_backtrack_rows((5,), 0, 1))
    code = kinks.cli.main(["table", "--max-n", "9", "--method", "backtrack"])
    out, err = capsys.readouterr()
    assert (code, err) == (1, "error: backtracking row 4 fails its sum check against 4!\n")
    assert out == "n,d,count\n" + "".join(
        f"{n},{d},{c}\n" for n in range(2, 4) for d, c in enumerate(dp_table(3).row(n))
    )


def test_backtrack_rows_keep_no_memo_between_calls(monkeypatch):
    # each call wraps its own walk in `cache`, so a rebound `cache` reaches
    # the next call: a walk that counts nothing gives empty cut rows, and
    # whole rows that fail the gate
    exact = list(_backtrack_rows(range(1, 8), 0, 3))
    monkeypatch.setattr(kinks.oracle, "cache", lambda walk: lambda *shape: 0)
    assert list(_backtrack_rows(range(3, 8), 1, 3)) == [[0] * len(row[1:]) for row in exact[2:]]
    assert backtrack_count(7, 2) == 0
    with pytest.raises(ArithmeticError, match="^backtracking row 1 fails its sum check against 1!$"):
        list(_backtrack_rows(range(1, 8), 0, 3))
    with pytest.raises(ArithmeticError, match="^backtracking row 7 fails its sum check against 7!$"):
        list(_backtrack_rows((7,), 0, max_kinks(7)))  # whole at top = max_kinks(n)
    monkeypatch.undo()
    assert list(_backtrack_rows(range(1, 8), 0, 3)) == exact


def _wanted_states(n, d):
    # One prefix for each (seen, rem) state on the way to a word with d
    # kinks; rem is the blocks still to open, d + 1 before the first flip.
    states = {}
    for word in permutations(range(1, n + 1)):
        if _word_kinks(word) != d:
            continue
        for i in range(n):
            prefix = word[:i]
            seen = sum(1 << s for s in prefix)
            states.setdefault((seen, d - _word_kinks(prefix)), prefix)
    return states


def test_moves_keep_exactly_the_flips_that_can_still_reach_d():
    # Brute force over every completion of every state the walk can pass:
    # a flip is kept iff some order of the sites left after it gives d
    # kinks, and `cap` is the most blocks the sites left can still open,
    # carried as 0 once no block remains to open.
    for n in range(1, 8):
        full = ((1 << n) - 1) << 1
        for d in range(max_kinks(n) + 1):
            for (seen, rem), prefix in _wanted_states(n, d).items():
                kinks_after = defaultdict(set)  # first free site -> totals
                for order in permutations(sorted(set(range(1, n + 1)) - set(prefix))):
                    kinks_after[order[0]].add(_word_kinks(prefix + order))
                done = _word_kinks(prefix)
                cap = max(map(max, kinks_after.values())) - done if rem else 0
                moves = list(_moves(seen, rem, cap, n, full))
                kept = [s for s in sorted(kinks_after) if d in kinks_after[s]]
                assert [bit.bit_length() - 1 for bit, _, _ in moves] == kept, (n, d, prefix)
                for bit, rem2, cap2 in moves:
                    s = bit.bit_length() - 1
                    opened = _word_kinks(prefix + (s,))
                    assert rem2 == d - opened, (n, d, prefix, s)
                    room = max(kinks_after[s]) - opened
                    assert cap2 == (room if rem2 else 0), (n, d, prefix, s)
                if rem == 0:
                    touching = [
                        s for s in range(1, n + 1)
                        if not seen >> s & 1 and seen & (5 << (s - 1))
                    ]
                    assert [bit.bit_length() - 1 for bit, _, _ in moves] == touching
