"""Core domain types and the kink statistic."""

from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kinks import (
    CountTable,
    History,
    TreeLabel,
    kink_count,
    max_kinks,
    tree_label,
)
from helpers import naive_kink_count


def test_kink_count_reference_words():
    assert kink_count(History((1, 2, 3, 4))) == 0
    assert kink_count(History((1, 3, 2, 4))) == 1
    assert kink_count(History((2, 1, 4, 3))) == 1
    assert kink_count(History((1,))) == 0
    # site 3, then site 1 (not adjacent: new block), then site 2
    assert kink_count(History((3, 1, 2))) == 1


def test_kink_count_agrees_with_naive_simulation():
    for n in range(1, 8):
        for word in permutations(range(1, n + 1)):
            assert kink_count(History(word)) == naive_kink_count(word), word


def test_kink_count_bounds_exhaustive():
    for n in range(1, 9):
        top = max_kinks(n)
        for word in permutations(range(1, n + 1)):
            assert 0 <= kink_count(History(word)) <= top


def test_kink_count_site_reversal_symmetry():
    for n in range(1, 9):
        for word in permutations(range(1, n + 1)):
            mirrored = tuple(n + 1 - s for s in word)
            assert kink_count(History(word)) == kink_count(History(mirrored))


_words = st.integers(1, 40).flatmap(lambda n: st.permutations(range(1, n + 1)))


@settings(max_examples=200, deadline=None)
@given(word=_words)
def test_kink_count_matches_naive_replay_on_random_words(word):
    assert kink_count(History(word)) == naive_kink_count(word)


@settings(max_examples=200, deadline=None)
@given(word=_words)
def test_kink_count_is_invariant_under_site_reversal(word):
    n = len(word)
    mirrored = tuple(n + 1 - s for s in word)
    assert kink_count(History(word)) == kink_count(History(mirrored))


def test_kink_count_monotone_sweeps_have_no_extra_kinks():
    for n in range(1, 41):
        ascending = tuple(range(1, n + 1))
        assert kink_count(History(ascending)) == 0
        assert kink_count(History(ascending[::-1])) == 0


def test_tree_label_reference_words():
    assert tree_label(History((1, 2, 3, 4))) == TreeLabel(4, 0, 0)
    assert tree_label(History((1, 3, 4, 2))) == TreeLabel(3, 1, 0)
    assert tree_label(History((2, 1))) == TreeLabel(1, 0, 1)
    # max at position 2; 4 flips before 3; one fresh block (site 4 isolated)
    assert tree_label(History((1, 4, 3, 2))) == TreeLabel(2, 1, 1)


def test_tree_label_rejects_single_site():
    with pytest.raises(ValueError):
        tree_label(History((1,)))


def test_tree_label_kinks_match_kink_count():
    for n in range(2, 9):
        for word in permutations(range(1, n + 1)):
            h = History(word)
            assert tree_label(h).kinks == kink_count(h)


def test_history_validation():
    assert History([2, 1, 3]).word == (2, 1, 3)  # lists are coerced
    with pytest.raises(ValueError, match="^a history must flip at least one site$"):
        History(())
    with pytest.raises(ValueError, match=r"^word is not a permutation of 1\.\.3: \(1, 1, 2\)$"):
        History((1, 1, 2))
    with pytest.raises(ValueError):
        History((0, 1, 2))
    with pytest.raises(ValueError):
        History((2, 3, 4))
    with pytest.raises(ValueError):
        History((1, 2))._replace(word=(1, 1))
    assert History((1, 2))._replace(word=[2, 1]) == History((2, 1))


@pytest.mark.parametrize(
    "word",
    [
        (1.0, 2.0), (1, 2.0), (2.0, 1), (Fraction(1), 2), (2, 1, Fraction(3)), (Fraction(1),),
        (True, 2), (2, True), (2, True, 3),
    ],
)
def test_history_rejects_non_integer_sites(word):
    # each word equals a permutation of 1..n by value
    assert sorted(word) == list(range(1, len(word) + 1))
    with pytest.raises(ValueError, match=rf"^word is not a permutation of 1\.\.{len(word)}: "):
        History(word)


def test_history_equality_is_word_equality():
    assert History((1, 2)) == History([1, 2])
    assert hash(History((3, 1, 2))) == hash(History([3, 1, 2]))
    assert History((1, 2)) != History((2, 1))


def test_max_kinks_values():
    assert max_kinks(4) == 1
    assert max_kinks(10) == 4
    assert max_kinks(1) == 0
    with pytest.raises(ValueError):
        max_kinks(0)


def test_count_table_lookup_and_bounds():
    table = CountTable({1: (1,), 4: (8, 16)})
    assert table.count(4, 0) == 8
    assert table.count(4, 1) == 16
    assert table.count(4, 5) == 0  # beyond max_kinks(4): structurally zero
    assert table.row(4) == (8, 16)
    assert table.lengths() == [1, 4]
    assert len(table.row(4)) == max_kinks(4) + 1  # a whole row
    with pytest.raises(ValueError):
        table.count(4, -1)
    with pytest.raises(KeyError):
        table.count(3, 0)


def test_count_table_truncated_row_is_not_zero():
    table = CountTable({9: (256, 31616)})  # stored only d <= 1
    assert len(table.row(9)) < max_kinks(9) + 1  # a cut row
    assert table.count(9, 1) == 31616
    with pytest.raises(ValueError):
        table.count(9, 3)  # unknown, not zero
    assert table.count(9, 7) == 0  # above max_kinks(9): still zero
