"""Exhaustive and backtracking enumeration oracles."""

import tracemalloc
from collections import Counter, defaultdict
from functools import cache
from itertools import islice, permutations
from math import factorial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
from kinks.core import _word_kinks
from kinks.oracle import _gap_capacity, _head_kinks, _moves, _opened
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
    # n >= 4 is where heads leaving the same flipped set share one tail scan
    assert brute_force_table(8).rows == naive_table(8)


def test_split_scan_partitions_every_length_to_eleven():
    table = brute_force_table(11, ceiling=11)
    assert all(sum(table.row(k)) == factorial(k) for k in range(1, 12))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 10).flatmap(
        lambda n: st.tuples(st.permutations(range(1, n + 1)), st.integers(0, n))
    )
)
def test_head_and_tail_kinks_add_up_at_any_cut(word_cut):
    word, cut = word_cut
    head_opens, seen = _opened(0, word[:cut])
    tail_opens, _ = _opened(seen, word[cut:])
    assert (head_opens - 1) + tail_opens == _word_kinks(word)


def test_split_scan_fault_check_catches_a_corrupted_tail(monkeypatch):
    exact = kinks.oracle._tail_kinks

    def corrupted(seen, n):
        histogram = exact(seen, n)
        if n == 5:
            histogram[0] += 1
        return histogram

    monkeypatch.setattr(kinks.oracle, "_tail_kinks", corrupted)
    with pytest.raises(ArithmeticError, match="length 5 "):
        brute_force_table(6)


@pytest.mark.parametrize("n", range(1, 11))
def test_head_walk_counts_every_head_as_a_permutation_scan(n):
    scan = defaultdict(Counter)
    for head in permutations(range(1, n + 1), n - n // 2):
        opens, seen = _opened(0, head)
        scan[seen][opens - 1] += 1
    assert _head_kinks(n) == scan


def test_split_scan_fault_check_catches_a_corrupted_head(monkeypatch):
    exact = kinks.oracle._head_kinks

    def corrupted(n):
        heads = exact(n)
        if n == 7:
            next(iter(heads.values()))[0] += 1
        return heads

    monkeypatch.setattr(kinks.oracle, "_head_kinks", corrupted)
    with pytest.raises(ArithmeticError, match="length 7 "):
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


def test_enumerate_limit():
    first_three = [h.word for h in enumerate_histories(4, 1, limit=3)]
    assert first_three == [(1, 2, 4, 3), (1, 3, 2, 4), (1, 3, 4, 2)]
    assert list(enumerate_histories(4, 1, limit=0)) == []
    assert len(list(enumerate_histories(4, 1, limit=99))) == 16


def test_enumerate_yields_history_values():
    assert all(isinstance(h, History) for h in enumerate_histories(3, 0))


#: (n, d) pairs below the shortest chain, a negative d included: each must
#: get the chain-length error, whatever d is
SHORT_CHAINS = ((0, 0), (-3, 0), (0, -1), (-3, -1), (0, 5))


def test_enumerate_range_errors():
    with pytest.raises(ValueError, match=r"kink count 2 out of range 0\.\.1 for n = 4$"):
        list(enumerate_histories(4, 2))  # max_kinks(4) == 1
    with pytest.raises(ValueError, match=r"kink count -1 out of range 0\.\.1 for n = 4$"):
        list(enumerate_histories(4, -1))
    for n, d in SHORT_CHAINS:
        with pytest.raises(ValueError, match=f"chain length must be at least 1, got {n}$"):
            enumerate_histories(n, d)


def test_backtrack_reference_counts():
    assert backtrack_count(5, 1) == 88
    assert backtrack_count(6, 2) == 272
    with pytest.raises(ValueError, match=r"kink count 3 out of range 0\.\.2 for n = 6$"):
        backtrack_count(6, max_kinks(6) + 1)
    with pytest.raises(ValueError, match=r"kink count -1 out of range 0\.\.2 for n = 6$"):
        backtrack_count(6, -1)
    for n, d in SHORT_CHAINS:
        with pytest.raises(ValueError, match=f"chain length must be at least 1, got {n}$"):
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
                moves = _moves(seen, rem, cap, n, full)
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
