"""Generating-tree level recurrences and succession rules."""

import os
import subprocess
import sys
from collections import Counter
from itertools import permutations, product
from math import factorial
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kinks.cli
import kinks.genfunc
import kinks.oracle
import kinks.treedp
from kinks import (
    History,
    LevelState,
    TreeLabel,
    advance_level,
    brute_force_table,
    closed_form,
    dp_table,
    max_kinks,
    root_state,
    succession_children,
    tree_label,
    tree_label_consistency,
)
from kinks.core import _opened
from kinks.treedp import LabelMismatch, _label_levels, _level_codes
import helpers
from helpers import naive_label_consistency, word_label


def test_succession_rule_reference_cases():
    assert succession_children(TreeLabel(2, 0, 0), 2) == [
        TreeLabel(1, 1, 1),
        TreeLabel(2, 1, 1),
        TreeLabel(3, 0, 0),
    ]
    assert succession_children(TreeLabel(1, 0, 1), 2) == [
        TreeLabel(1, 0, 1),
        TreeLabel(2, 0, 0),
        TreeLabel(3, 0, 0),
    ]


def test_succession_rule_guards():
    with pytest.raises(ValueError):
        succession_children(TreeLabel(1, 0, 1), 1)  # levels start at 2
    with pytest.raises(ValueError):
        succession_children(TreeLabel(5, 0, 0), 4)  # max_pos beyond the level
    with pytest.raises(ValueError):
        succession_children(TreeLabel(1, 3, 0), 4)  # kinks beyond max_kinks(4)
    with pytest.raises(ValueError):
        succession_children(TreeLabel(1, 0, 2), 4)  # flag outside {0, 1}


def test_succession_rule_holds_at_every_n():
    # Inserting site n + 1 changes no flip's neighbours but those of n and n + 1,
    # and site n - 1 keeps its neighbours n - 2 and n, so the kinks the
    # insertion adds depend only on the order of the flips of n - 1, n and
    # n + 1, read on that window, whatever n is and whenever n - 2 flips
    for n in (2, 3, 4, 17, 60):
        for order in permutations((n - 1, n, n + 1)):
            parent = [s for s in order if s != n + 1]
            r = 1 if parent.index(n) < parent.index(n - 1) else 0
            first = 1 if order.index(n + 1) < order.index(n) else 0  # m <= j
            for seen in (0, 1 << (n - 2)) if n > 2 else (0,):  # n - 2 flipped before or not
                added = _opened(seen, order)[0] - _opened(seen, parent)[0]
                assert added == first * (1 - r), (n, order, seen)
    # and succession_children is that rule: child m of (j, k, r) has kinks
    # k + [m <= j] (1 - r) and max_first [m <= j]
    for n in range(2, 25):
        for j, k, r in product(range(1, n + 1), range(max_kinks(n) + 1), (0, 1)):
            rule = [TreeLabel(m, k + (m <= j) * (1 - r), int(m <= j)) for m in range(1, n + 2)]
            assert succession_children(TreeLabel(j, k, r), n) == rule, (n, j, k, r)


def test_every_node_has_level_plus_one_children():
    for n in (2, 3, 5):
        for j in range(1, n + 1):
            for k in range((n - 1) // 2 + 1):
                for r in (0, 1):
                    children = succession_children(TreeLabel(j, k, r), n)
                    assert len(children) == n + 1
                    assert [c.max_pos for c in children] == list(range(1, n + 2))


def test_root_state_holds_the_two_smallest_words():
    state = root_state()
    assert state.n == 2
    for word in ((1, 2), (2, 1)):
        j, k, r = tree_label(History(word))
        assert state.counts[r][k][j - 1] == 1
    assert state.total() == 2
    assert min(c for band in state.counts for row in band for c in row) >= 0


def _kink_marginal(state: LevelState) -> tuple[int, ...]:
    # counts by kink number up to max_kinks(n), summed over the other labels
    band0, band1 = state.counts
    return tuple(sum(band0[k]) + sum(band1[k]) for k in range(max_kinks(state.n) + 1))


def test_advance_level_marginals():
    level3 = advance_level(root_state())
    assert _kink_marginal(level3) == (4, 2)
    level4 = advance_level(level3)
    assert _kink_marginal(level4) == (8, 16)


def test_advance_level_grows_by_level_plus_one():
    state = root_state()
    for _ in range(6):
        child = advance_level(state)
        assert child.total() == (state.n + 1) * state.total() == factorial(child.n)
        assert min(c for band in child.counts for row in band for c in row) >= 0
        state = child


def test_advance_level_rejects_counts_above_max_kinks():
    level3 = advance_level(root_state())
    # a max_first = 0 node at one kink on level 3 would put a level-4 node
    # at two kinks, above max_kinks(4) = 1
    corrupt = LevelState(3, (level3.counts[0][:1] + ((1, 1, 1),), level3.counts[1]))
    with pytest.raises(ArithmeticError, match=r"\(m, k\) = \(4, 2\)"):
        advance_level(corrupt)


def test_band_gates_run_under_python_O():
    # python -O strips assert statements; both gates are an if/raise: the
    # corrupted level 3 above, and the walk with a kink bound one short at 11
    script = "\n".join(
        [
            "import kinks.treedp as t",
            "level3 = t.advance_level(t.root_state())",
            "corrupt = t.LevelState(3, (level3.counts[0][:1] + ((1, 1, 1),), level3.counts[1]))",
            "t.max_kinks = lambda n, exact=t.max_kinks: exact(n) - (n == 11)",
            "for step in (lambda: t.advance_level(corrupt), lambda: list(t._label_levels(12))):",
            "    try:",
            "        step()",
            "    except ArithmeticError as exc:",
            "        print(exc)",
        ]
    )
    env = {**os.environ, "PYTHONPATH": str(Path(kinks.treedp.__file__).parents[1])}
    run = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env
    )
    assert (run.returncode, run.stderr) == (0, "")
    assert run.stdout == (
        "nonzero count above max_kinks at (m, k) = (4, 2)\n"
        "nonzero count above max_kinks at (m, k) = (11, 5)\n"
    )


def test_advance_level_rejects_negative_counts():
    # no node count goes below 0, so a negative one is a malformed state
    state = root_state()
    negative = LevelState(2, (state.counts[0], ((1, -1), (0, 0))))
    with pytest.raises(ValueError, match="negative"):
        advance_level(negative)


@pytest.mark.parametrize(
    "n, counts",
    [
        (5, root_state().counts),  # level 2's counts under level 5
        (2, (((0, 1), (0, 0)), ((1, 0), (0, 0, 0)))),  # one row a count too long
        (2, ((), ())),  # no kink bands
        (3, root_state().counts),  # rows one count short
    ],
)
def test_advance_level_rejects_a_state_of_the_wrong_shape(n, counts):
    # the step would read these as some other level, or fail in its own
    # arithmetic, so the gate names the shape that level n holds instead
    shape = rf"^a level-{n} state holds 2 x {n // 2 + 1} kink bands of {n} counts each$"
    with pytest.raises(ValueError, match=shape):
        advance_level(LevelState(n, counts))


def _rule_applied_level(state: LevelState) -> LevelState:
    # independent level step: apply the succession rule label by label
    n = state.n
    alloc = (n + 1) // 2
    fresh = [[[0] * (n + 1) for _ in range(alloc + 1)] for _ in range(2)]
    for r in (0, 1):
        for k, row in enumerate(state.counts[r]):
            for j_index, multiplicity in enumerate(row):
                if not multiplicity:
                    continue
                for child in succession_children(TreeLabel(j_index + 1, k, r), n):
                    fresh[child.max_first][child.kinks][child.max_pos - 1] += multiplicity
    return LevelState(
        n + 1,
        (
            tuple(tuple(row) for row in fresh[0]),
            tuple(tuple(row) for row in fresh[1]),
        ),
    )


def test_running_sum_step_matches_direct_rule_application():
    state = root_state()
    for _ in range(12):
        fast = advance_level(state)
        assert fast == _rule_applied_level(state)
        state = fast


def _scaled(state: LevelState, factor: int, low: int = 0) -> LevelState:
    # every count times factor, the count of (1, 0, 1) plus low
    bands = [[[c * factor for c in row] for row in band] for band in state.counts]
    bands[1][0][0] += low
    return LevelState(state.n, tuple(tuple(map(tuple, band)) for band in bands))


@pytest.mark.parametrize("low", [0, 1, 2**299 + 3])
def test_step_of_counts_far_above_n_factorial_is_exact(low):
    # the bands are stepped apart, whatever the size of their counts: the
    # root times 2^300, a small count beside the huge ones, must step as
    # the rule says, with nothing moved from one kink band into the next
    state = _scaled(root_state(), 2**300, low)
    plain = root_state()
    for _ in range(9):
        fast = advance_level(state)
        assert fast == _rule_applied_level(state)
        plain = advance_level(plain)
        if not low:
            assert fast == _scaled(plain, 2**300)
        state = fast


@st.composite
def _level_states(draw, levels=st.integers(2, 12)):
    # nonnegative states whose step stays within max_kinks(n + 1): counts
    # up to 2^400 at max_first = 0 for k < max_kinks(n) and at max_first = 1
    # for k <= max_kinks(n), zeros elsewhere in the bands k <= n // 2
    n = draw(levels)
    count = st.one_of(st.integers(0, 3), st.integers(0, 2**400))

    def band(r, k):
        held = k < max_kinks(n) + r
        return tuple(draw(count) if held else 0 for _ in range(n))

    return LevelState(n, tuple(tuple(band(r, k) for k in range(n // 2 + 1)) for r in (0, 1)))


@settings(max_examples=60, deadline=None)
@given(state=_level_states())
def test_band_by_band_step_matches_the_rule_on_random_states(state):
    assert advance_level(state) == _rule_applied_level(state)


@settings(max_examples=30, deadline=None)
@given(state=_level_states(st.sampled_from([3, 5, 7, 9, 11])), data=st.data())
def test_a_max_first_zero_node_in_the_top_band_fails_the_gate(state, data):
    # at odd n the top band is k = max_kinks(n) = max_kinks(n + 1), so one
    # max_first = 0 node there has children at max_kinks(n) + 1 kinks
    n, top = state.n, max_kinks(state.n)
    j = data.draw(st.integers(0, n - 1))
    band0 = [list(band) for band in state.counts[0]]
    band0[top][j] += 1
    corrupt = LevelState(n, (tuple(map(tuple, band0)), state.counts[1]))
    with pytest.raises(ArithmeticError, match=rf"\(m, k\) = \({n + 1}, {top + 1}\)"):
        advance_level(corrupt)


def test_dp_reference_rows():
    table = dp_table(10)
    assert table.row(10) == (512, 128512, 1304832, 1841152, 353792)
    assert table.row(9) == (256, 31616, 185856, 137216, 7936)
    assert table.row(1) == (1,)
    for n in table.lengths():
        row = table.row(n)
        assert len(row) == max_kinks(n) + 1 and sum(row) == factorial(n)
        assert min(row) >= 0 and row[-1] > 0


def test_dp_row_twelve_cross_checks():
    table = dp_table(12)
    assert sum(table.row(12)) == factorial(12)
    for d in range(4):
        assert table.count(12, d) == closed_form(12, d)


def test_dp_matches_brute_force():
    brute = brute_force_table(8)
    dp = dp_table(8)
    for n in range(1, 9):
        assert dp.row(n) == brute.row(n)


def test_dp_kinkless_column_doubles():
    table = dp_table(30)
    for n in range(1, 31):
        assert table.count(n, 0) == 2 ** (n - 1)


def test_dp_row_sums_are_factorials():
    table = dp_table(40)
    for n in range(1, 41):
        assert sum(table.row(n)) == factorial(n)


def test_dp_accepts_tiny_scopes():
    assert dp_table(1).rows == {1: (1,)}
    assert dp_table(2).row(2) == (2,)
    with pytest.raises(ValueError):
        dp_table(0)
    with pytest.raises(ValueError):
        dp_table(2, -1)


DP80 = dp_table(80)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 80), d=st.integers(0, 42))
def test_capped_dp_rows_are_the_full_rows_cut_at_d(n, d):
    capped = dp_table(n, d)
    assert capped.lengths() == list(range(1, n + 1))
    for m in range(1, n + 1):
        assert capped.row(m) == DP80.row(m)[: d + 1], (m, n, d)
    assert capped.count(n, d) == DP80.count(n, d)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 300), d=st.integers(0, 8))
def test_dp_count_route_matches_the_closed_form(n, d):
    # the cut row of a single `count` against an independent formula
    assert kinks.cli.ROUTES["dp"].count(n, d) == closed_form(n, d), (n, d)


@settings(max_examples=40, deadline=None)
@given(
    ends=st.tuples(st.integers(1, 80), st.integers(1, 80)).map(sorted),
    cuts=st.tuples(st.integers(0, 40), st.integers(0, 40)).map(sorted),
)
def test_recurrence_rows_of_any_lengths_and_cut_match_the_closed_form(ends, cuts):
    # every evaluator's (lengths, lo, top) contract: one row per n, cut by the
    # evaluator itself to d = lo..min(top, max_kinks(n)), equal to that slice
    # of the recurrence row, which is checked against an independent formula
    (a, b), (lo, top) = ends, cuts
    expected = {n: DP80.row(n)[lo : top + 1] for n in range(a, b)}
    for n, row in expected.items():
        assert len(row) == max(0, min(top, max_kinks(n)) - lo + 1), (n, lo, top)
        assert row == tuple(closed_form(n, d) for d in range(lo, lo + len(row))), n
    evaluators = {
        kinks.oracle._brute_rows: range(a, min(b, 10)),
        kinks.oracle._backtrack_rows: range(a, min(b, 10)),
        kinks.treedp._kink_rows: range(a, b),
        kinks.genfunc._series_rows: range(max(a, 2), b),  # the series starts at t^2
        kinks.genfunc._closed_rows: range(a, b),
    }
    for rows, lengths in evaluators.items():
        got = [tuple(row) for row in rows(lengths, lo, top)]
        assert got == [expected[n] for n in lengths], (rows.__name__, lengths, lo, top)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(2, 80))
def test_label_tree_marginals_and_moments_match_the_recurrence(n):
    # the row recurrence rests on one moment of the label tree: over the
    # max_first = 0 nodes with k kinks, max_pos sums to (n - 1 - 2k) c(n, k)
    state = root_state()
    while state.n < n:
        state = advance_level(state)
    row = DP80.row(n)
    assert _kink_marginal(state) == row
    for k, c in enumerate(row):
        moment = sum(j * count for j, count in enumerate(state.counts[0][k], start=1))
        assert moment == (n - 1 - 2 * k) * c, (n, k)


@settings(max_examples=30, deadline=None)
@given(n_max=st.integers(2, 90))
def test_label_walk_yields_the_recurrence_rows(n_max):
    # n_max = 2 is the single level that `verify --max-n-dp 2` walks
    table = dp_table(n_max)
    assert list(_label_levels(n_max)) == [table.row(n) for n in range(2, n_max + 1)]


def test_recurrence_row_sum_check_raises(monkeypatch):
    # a kink bound one short at n = 7 drops the top band of a row taken
    # as whole, so the row no longer sums to 7!
    monkeypatch.setattr(kinks.treedp, "max_kinks", lambda n: (n - 1) // 2 - (n == 7))
    with pytest.raises(ArithmeticError, match="row 7 fails its sum check"):
        dp_table(9)
    dp_table(6)


def test_recurrence_cut_row_surplus_raises(monkeypatch):
    # a kink bound one too high leaves the rows exact but cut from n = 3 at
    # d_max = 1; sweeping the bands twice then applies the step to band 1
    # twice, which puts row 3 at 4 + (4 * 2 + 1 * 2) > 3!
    monkeypatch.setattr(kinks.treedp, "max_kinks", lambda n: (n - 1) // 2 + 1)
    dp_table(9, 1)
    twice = lambda *args: [*range(*args), *range(*args)] if len(args) == 3 else range(*args)
    monkeypatch.setattr(kinks.treedp, "range", twice, raising=False)
    with pytest.raises(ArithmeticError, match="row 3 fails its sum check"):
        dp_table(9, 1)


def test_label_consistency_small_scopes():
    assert tree_label_consistency(2).checked == 0  # vacuous
    report = tree_label_consistency(4)
    assert report.ok
    assert report.checked == 2 * 3 + 6 * 4  # all insertions at levels 2 and 3
    assert tree_label_consistency(6).ok


def test_label_consistency_reports_a_wrong_rule_child(monkeypatch):
    # (4, 3, 2, 1) is the only level-4 word labelled (1, 0, 1)
    exact = kinks.treedp.succession_children

    def wrong(label, n):
        children = exact(label, n)
        if n == 4 and label == TreeLabel(1, 0, 1):
            children[2] = children[2]._replace(kinks=1)
        return children

    monkeypatch.setattr(kinks.treedp, "succession_children", wrong)
    report = tree_label_consistency(5)
    assert report.mismatches == (
        LabelMismatch(4, (4, 3, 2, 1), 3, TreeLabel(3, 1, 0), TreeLabel(3, 0, 0)),
    )
    assert report.checked == sum(factorial(n) * (n + 1) for n in range(2, 5))


def _children_read_off_words(word):
    top = (len(word) + 1,)
    return [word_label(word[:i] + top + word[i:]) for i in range(len(word) + 1)]


def _decoded(state):
    # a final state of `_level_codes` as the word's label and its n + 1
    # child labels: child i has d_i + ht - 1 kinks and max_first [i <= j]
    head, ht, digits, (j, r) = state
    children = [TreeLabel(i, d + ht - 1, int(i <= j)) for i, d in enumerate(digits, 1)]
    return TreeLabel(j, head - 1, r), children


def _with_child_kinks(word, index, count):
    # `_level_codes` with child `index` of one word read at `count` kinks,
    # in the judging pass and the word mode alike
    exact = kinks.treedp._level_codes

    def change(state):
        head, ht, digits, jr = state
        return head, ht, digits[:index] + (count - ht + 1,) + digits[index + 1 :], jr

    def walk(n, words=False):
        walked = [(w, change(state) if w == word else state) for w, state in exact(n, words=True)]
        return dict.fromkeys(walked, 1) if words else Counter(s for _, s in walked)

    return walk


def test_level_codes_match_the_child_words():
    # the word mode lists every word in permutations order, and each final
    # state decodes to the labels read off the word and its n + 1 child words
    for n in range(2, 9):
        walked = _level_codes(n, words=True)
        assert [word for word, _ in walked] == list(permutations(range(1, n + 1)))
        for word, state in walked:
            assert _decoded(state) == (word_label(word), _children_read_off_words(word)), word


def test_level_codes_keep_one_state_per_label():
    # the judging pass holds the distinct final states of the word mode,
    # each with its number of words, and under the walk's exact child
    # labels a label has one state
    assert [len(_level_codes(n)) for n in range(2, 9)] == [2, 5, 10, 17, 26, 37, 50]
    for n in range(2, 8):
        walked = _level_codes(n, words=True)
        assert set(walked.values()) == {1}
        assert _level_codes(n) == Counter(state for _, state in walked)
        assert len({word_label(word) for word, _ in walked}) == len(_level_codes(n))


def test_level_codes_count_the_nodes_of_each_label():
    # the words per decoded label are the label tree's node counts, level by level
    state = root_state()
    for n in range(2, 9):
        nodes = Counter()
        for code, count in _level_codes(n).items():
            nodes[_decoded(code)[0]] += count
        for (j, k, r), count in nodes.items():
            assert state.counts[r][k][j - 1] == count, (n, j, k, r)
        assert sum(nodes.values()) == state.total() == factorial(n)  # no node is missed
        state = advance_level(state)


@pytest.mark.parametrize("n_max", range(2, 9))
def test_label_consistency_matches_the_child_by_child_check(n_max):
    report = tree_label_consistency(n_max)
    assert report == naive_label_consistency(n_max)
    assert report.ok


@settings(max_examples=30, deadline=None)
@given(
    parent=st.integers(2, 6).flatmap(lambda n: st.permutations(range(1, n + 1))),
    field=st.sampled_from(TreeLabel._fields),
    data=st.data(),
)
def test_label_consistency_reports_a_corrupted_rule_as_the_naive_check(parent, field, data):
    # corrupt one field of one child of a label that occurs at level n
    n = len(parent)
    target = word_label(tuple(parent))
    index = data.draw(st.integers(0, n), label="index")
    exact = kinks.treedp.succession_children

    def wrong(label, level):
        children = exact(label, level)
        if (label, level) == (target, n):
            value = getattr(children[index], field)
            value = 1 - value if field == "max_first" else value + 1
            children[index] = children[index]._replace(**{field: value})
        return children

    with mock.patch.object(kinks.treedp, "succession_children", wrong):
        fast = tree_label_consistency(n + 1)
        naive = naive_label_consistency(n + 1)
    assert fast.checked == naive.checked == sum(factorial(m) * (m + 1) for m in range(2, n + 1))
    assert fast.mismatches == naive.mismatches
    assert repr(fast) == repr(naive)
    assert fast.mismatches and all(m.n == n and m.position == index + 1 for m in fast.mismatches)


@pytest.mark.parametrize(
    "corrupt",
    [
        {"kinks": 8},
        {"kinks": 16},
        {"kinks": -1},
        {"kinks": 8, "max_first": 0},  # the digit of (kinks 0, max_first 1)
        {"max_pos": 1},
        {"max_pos": -1},
        {"max_first": 2},
    ],
)
def test_label_consistency_reports_an_unpackable_rule_child_as_the_naive_check(corrupt):
    # a child that does not fit its digit, or sits off its place, must not
    # alias a word's code; the child (1, 0, 1) of (1, 0, 1) at level 3 has
    # the digit 8 that (kinks 8, max_first 0) would pack to, and (2, 0, 0)
    # at level 4 adds children with one kink
    exact = kinks.treedp.succession_children
    for n, target in ((3, TreeLabel(1, 0, 1)), (4, TreeLabel(2, 0, 0))):
        for index in range(n + 1):

            def wrong(label, level):
                children = exact(label, level)
                if (label, level) == (target, n):
                    child = children[index]
                    fields = {
                        field: getattr(child, field) + value if field == "max_pos" else value
                        for field, value in corrupt.items()
                    }
                    children[index] = child._replace(**fields)
                return children

            with mock.patch.object(kinks.treedp, "succession_children", wrong):
                fast = tree_label_consistency(n + 1)
                naive = naive_label_consistency(n + 1)
            assert fast.checked == naive.checked
            assert fast.mismatches == naive.mismatches, (n, index)
            assert repr(fast) == repr(naive)
            assert fast.mismatches and {m.position for m in fast.mismatches} == {index + 1}


def test_label_consistency_reports_a_carrying_or_short_rule_as_the_naive_check():
    # (3, 1, 0) at level 4 (the words 1342 and 3142) has the children
    # (4, 1, 0) and (5, 1, 0) at indexes 3 and 4: packed as they come,
    # max_first 2 at index 3 carries into index 4 and makes up for one
    # kink less there
    exact = kinks.treedp.succession_children

    def carrying(label, level):
        children = exact(label, level)
        if (label, level) == (TreeLabel(3, 1, 0), 4):
            children[3] = children[3]._replace(max_first=2)
            children[4] = children[4]._replace(kinks=0)
        return children

    with mock.patch.object(kinks.treedp, "succession_children", carrying):
        fast = tree_label_consistency(5)
        naive = naive_label_consistency(5)
    assert repr(fast) == repr(naive)
    assert [(m.word, m.position) for m in fast.mismatches] == [
        (word, position) for word in ((1, 3, 4, 2), (3, 1, 4, 2)) for position in (4, 5)
    ]
    # a rule one child short lacks the child at top's last place; at
    # level 2 that child is (3, 0, 0), whose digit 0 packing would drop
    with mock.patch.object(kinks.treedp, "succession_children", lambda *a: exact(*a)[:-1]):
        fast = tree_label_consistency(3)
        naive = naive_label_consistency(3)
    assert repr(fast) == repr(naive)
    assert fast.mismatches == tuple(
        LabelMismatch(2, word, 3, None, TreeLabel(3, 0, 0)) for word in ((1, 2), (2, 1))
    )


def test_label_consistency_asks_the_rule_once_per_parent_label():
    # under the correct rule every word of a label brings the same code
    exact = kinks.treedp.succession_children
    asked = []

    def counted(label, n):
        asked.append((n, label))
        return exact(label, n)

    with mock.patch.object(kinks.treedp, "succession_children", counted):
        assert tree_label_consistency(8).ok
    labels = {(n, word_label(w)) for n in range(2, 8) for w in permutations(range(1, n + 1))}
    assert sorted(asked) == sorted(labels)


def test_label_consistency_judges_each_code_of_a_label():
    # (2, 1, 3, 4) shares its label (4, 0, 0) with one word before it and
    # two after: one child changed in its final state alone must report
    # that word alone, and the later words, still at the exact state, nothing
    word, label, index = (2, 1, 3, 4), (4, 0, 0), 2
    same = [w for w in permutations(range(1, 5)) if word_label(w) == label]
    assert same == [(1, 2, 3, 4), word, (2, 3, 1, 4), (3, 2, 1, 4)]
    with mock.patch.object(kinks.treedp, "_level_codes", _with_child_kinks(word, index, 0)):
        report = tree_label_consistency(5)
    child = _children_read_off_words(word)[index]
    assert child == TreeLabel(3, 1, 1)
    assert report.mismatches == (LabelMismatch(4, word, index + 1, child, TreeLabel(3, 0, 1)),)


def test_no_state_outlives_a_call():
    # one child of one level-6 label corrupted: every word of that label
    # reports it, and the next call, under the exact rule, judges afresh
    exact = kinks.treedp.succession_children
    target = TreeLabel(6, 0, 0)

    def wrong(label, n):
        children = exact(label, n)
        if (label, n) == (target, 6):
            children[0] = children[0]._replace(kinks=children[0].kinks + 1)
        return children

    with mock.patch.object(kinks.treedp, "succession_children", wrong):
        report = tree_label_consistency(7)
    words = [w for w in permutations(range(1, 7)) if word_label(w) == target]
    assert len(words) > 1
    assert [(m.n, m.word, m.position) for m in report.mismatches] == [(6, w, 1) for w in words]
    assert tree_label_consistency(7).ok
    # and the walk returns the same states, and words, on a second call
    assert _level_codes(6) == _level_codes(6)
    assert _level_codes(6, words=True) == _level_codes(6, words=True)


@settings(max_examples=30, deadline=None)
@given(
    word=st.integers(2, 6).flatmap(lambda n: st.permutations(range(1, n + 1))),
    data=st.data(),
)
def test_label_consistency_reports_a_corrupted_code_as_the_naive_check(word, data):
    # one child's kinks in one word's final state changed, and the naive
    # check made to read that child's label so; a state holds no child's
    # max_first, which follows from n's place
    n, word = len(word), tuple(word)
    index = data.draw(st.integers(0, n), label="index")
    child = word[:index] + (n + 1,) + word[index:]
    exact = word_label(child)
    count = data.draw(st.integers(-1, 8).filter(lambda k: k != exact.kinks), label="kinks")
    corrupt = exact._replace(kinks=count)

    def read(w):
        return corrupt if w == child else word_label(w)

    with mock.patch.object(kinks.treedp, "_level_codes", _with_child_kinks(word, index, count)):
        fast = tree_label_consistency(n + 1)
    with mock.patch.object(helpers, "word_label", read):
        naive = naive_label_consistency(n + 1)
    assert repr(fast) == repr(naive)
    assert fast == naive
    assert [(m.n, m.word, m.position) for m in fast.mismatches] == [(n, word, index + 1)]


def test_label_consistency_walks_each_level_once_under_the_exact_rule():
    exact = kinks.treedp._level_codes
    walked = []

    def spy(n, words=False):
        walked.append((n, words))
        return exact(n, words)

    with mock.patch.object(kinks.treedp, "_level_codes", spy):
        assert tree_label_consistency(8).ok
        assert walked == [(n, False) for n in range(2, 8)]
        # a wrong rule child at level 5 walks that level, and it alone,
        # again, word by word
        walked.clear()
        rule = kinks.treedp.succession_children

        def wrong(label, n):
            children = rule(label, n)
            if (label, n) == (TreeLabel(5, 0, 0), 5):
                children[0] = children[0]._replace(kinks=children[0].kinks + 1)
            return children

        with mock.patch.object(kinks.treedp, "succession_children", wrong):
            assert not tree_label_consistency(8).ok
        assert walked == [(2, False), (3, False), (4, False), (5, False), (5, True), (6, False),
                          (7, False)]


def test_label_consistency_lists_a_wrong_level_7_child_word_by_word():
    # the re-walk of a level above 6: every word of the label, in
    # permutations order, reports the one wrong child
    exact = kinks.treedp.succession_children
    target = TreeLabel(4, 1, 0)

    def wrong(label, n):
        children = exact(label, n)
        if (label, n) == (target, 7):
            children[3] = children[3]._replace(kinks=children[3].kinks + 1)
        return children

    with mock.patch.object(kinks.treedp, "succession_children", wrong):
        report = tree_label_consistency(8)
    words = [w for w in permutations(range(1, 8)) if word_label(w) == target]
    assert len(words) > 1
    assert report.mismatches == tuple(
        LabelMismatch(7, w, 4, TreeLabel(4, 3, 1), TreeLabel(4, 2, 1)) for w in words
    )
    assert report.checked == sum(factorial(n) * (n + 1) for n in range(2, 8))


def test_label_consistency_guards_factorial_scan():
    # the largest scope the guard admits runs in full
    report = tree_label_consistency(9)
    assert report.ok
    assert report.checked == sum(factorial(n) * (n + 1) for n in range(2, 9)) == 409110
    with pytest.raises(ValueError):
        tree_label_consistency(10)
