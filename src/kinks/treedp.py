"""Polynomial-time exact counting via the generating tree of labels.

Every history of length n + 1 arises from exactly one history of length n
by inserting the new largest site into the flip schedule, and the label
(max_pos, kinks, max_first) of the child depends only on the label of the
parent and the insertion position.  Counting labels level by level with
big integers therefore counts histories without enumerating them.

The kink marginals of the tree need no labels: a node (j, k, 0) has j
children at k + 1 kinks, and over the level the max_pos j of the
max_first = 0 nodes with k kinks sums to (n - 1 - 2k) c(n, k), so

    c(n+1, k) = (2k + 2) c(n, k) + (n + 1 - 2k) c(n, k-1).

`dp_table` counts by that row recurrence; the label tree itself is the
verify suite's reference for the rows.  The tree is walked on packed
columns: for each max_first r and max_pos j one integer holds the counts
of every kink band, band k in the field of W bits at k W, so a level step
is two running sums over n + 1 integers, and "one kink more" is a shift
by W.  The walk (`_label_levels`) fixes W from (n_max + 1)!, which bounds
every count it reaches.  `advance_level` is its one-step adapter on
`LevelState`: the same step, `_label_step`, taken one kink band at a
time, with no fields and no width, the shift done by pairing band k
with band k - 1.  `tree_label_consistency` checks the succession rule
against the labels of the child words.  After t flips of a word, a few
numbers (the flipped set, the blocks opened with and without n + 1, the
partial child kinks, n's place) fix every child label, so a walk that
keeps only the distinct states of each depth judges the rule once per
distinct final state: once per label under a correct rule.
"""

from __future__ import annotations

from itertools import accumulate, chain, repeat, zip_longest
from math import factorial
from operator import add, lshift
from typing import Iterator, NamedTuple

from .core import CountTable, TreeLabel, _paired, check_int, max_kinks

__all__ = [
    "LevelState",
    "root_state",
    "succession_children",
    "advance_level",
    "dp_table",
    "tree_label_consistency",
    "LabelMismatch",
    "ConsistencyReport",
]


def succession_children(label: TreeLabel, n: int) -> list[TreeLabel]:
    """Ordered labels of the n + 1 children of a level-n node.

    Inserting the new largest site n + 1 at position m gives the child
    with max_pos = m, and its max_first is [m <= j] for the parent label
    (j, k, r): n + 1 flips before n exactly when it is inserted at or
    before n's position j.  Every site s <= n - 1 keeps its neighbours
    and the order of their flips, so it opens a block in the child iff it
    did in the parent.  Site n gains the neighbour n + 1, and n + 1 has
    no neighbour but n.  So n + 1 opens a block iff it flips before n,
    and n loses the block it opened (r = 1: n flipped before n - 1) iff
    n + 1 came first; the child has k + [m <= j] (1 - r) kinks, at every
    n.  The label's fields go through `check_int` as n does, and a field
    outside its range at level n raises ValueError.

    >>> succession_children(TreeLabel(2, 0, 0), 2)
    [TreeLabel(max_pos=1, kinks=1, max_first=1), TreeLabel(max_pos=2, kinks=1, max_first=1), TreeLabel(max_pos=3, kinks=0, max_first=0)]
    """
    j, k, r = label
    check_int(n, 2, "n")  # levels start at 2
    check_int(j, 1, "max_pos")
    check_int(k, 0, "kinks")
    check_int(r, 0, "max_first")
    if not 1 <= j <= n or not 0 <= k <= max_kinks(n) or r not in (0, 1):
        raise ValueError(f"label {label} cannot occur at level {n}")
    head_k = k + 1 if r == 0 else k
    make = TreeLabel._make  # one tuple of fields: a little cheaper than TreeLabel(...)
    head = [make((m, head_k, 1)) for m in range(1, j + 1)]
    tail = [make((m, k, 0)) for m in range(j + 1, n + 2)]
    return head + tail


class LevelState(NamedTuple):
    """Node counts of one generating-tree level, indexed by label.

    ``counts[r][k][j - 1]`` is the number of level-n nodes labelled
    (j, k, r).  The k axis is allocated up to floor(n/2); the band above
    max_kinks(n) is kept, and checked, identically zero.
    """

    n: int
    counts: tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]

    def total(self) -> int:
        """Number of nodes held; equals n! when the state is valid."""
        return sum(sum(row) for band in self.counts for row in band)


def root_state() -> LevelState:
    """Level 2: the words 12 and 21, labelled (2, 0, 0) and (1, 0, 1)."""
    return LevelState(
        n=2,
        counts=(
            ((0, 1), (0, 0)),  # max_first = 0
            ((1, 0), (0, 0)),  # max_first = 1
        ),
    )


def _label_step(col0: list[int], col1: list[int], width: int) -> tuple[list[int], list[int]]:
    # one level down on packed columns, col_r[j - 1] holding the nodes
    # (j, k, r) of every k in the field k of `width` bits.  The child at
    # position m with max_first = 0 collects every parent with max_pos < m;
    # with max_first = 1, the max_first = 1 parents with max_pos >= m at its
    # k and the max_first = 0 ones at k - 1, which the shift moves a field up.
    # With width 0 the columns hold one band and the caller does the shift
    new0 = [*accumulate(map(add, col0, col1), initial=0)]
    shifted = map(lshift, reversed(col0), repeat(width))
    new1 = [*accumulate(map(add, shifted, reversed(col1)), initial=0)]
    new1.reverse()
    return new0, new1


def _check_bands(packed: int, width: int, m: int) -> int:
    # the fields above max_kinks(m) must be empty: name the lowest that is not
    top = max_kinks(m)
    above = packed >> (top + 1) * width
    if above:
        k = top + 1 + ((above & -above).bit_length() - 1) // width
        raise ArithmeticError(f"nonzero count above max_kinks at (m, k) = ({m}, {k})")
    return top


def _label_levels(n_max: int) -> Iterator[tuple[int, ...]]:
    # the kink marginals of levels 2..n_max.  Level n's marginal is the last
    # max_first = 0 column of level n + 1, whose nodes are those of level n
    # with the new site inserted last.  Every field holds a count of some
    # nodes of one level up to n_max + 1, at most (n_max + 1)! < 2^(W - 1),
    # so no field carries into the next at any level the walk reaches
    width = factorial(n_max + 1).bit_length() + 1
    mask = (1 << width) - 1
    # the root's nodes are all in band 0, so its bands pack as band 0 alone
    col0, col1 = (list(bands[0]) for bands in root_state().counts)
    for n in range(2, n_max + 1):
        col0, col1 = _label_step(col0, col1, width)
        total = col0[-1]
        yield tuple(total >> k * width & mask for k in range(_check_bands(total, width, n) + 1))


def advance_level(state: LevelState) -> LevelState:
    """Push the node counts one level down the tree.

    Children with max_first = 0 at position m collect every parent with
    max_pos < m; children with max_first = 1 at position m collect the
    max_first = 1 parents with max_pos >= m at the same kink count plus
    the max_first = 0 parents with max_pos >= m at one kink less.  This
    is the label walk's own step (see the module docstring) taken one
    kink band at a time, with no fields and so no width: band k of the
    new max_first = 0 column reads band k of both old columns, band k of
    the new max_first = 1 column band k of max_first = 1 and band k - 1 of
    max_first = 0.  The counts are exact whatever their size.  A count in
    a band above max_kinks(n + 1) raises ArithmeticError.  The level n
    goes through `check_int`; counts not shaped as two max_first sides of
    floor(n/2) + 1 kink bands of n counts each, or a negative count, which
    no node count is, raise ValueError.
    """
    n = check_int(state.n, 2, "n")  # levels start at 2
    bands = n // 2 + 1
    if len(state.counts) != 2 or any(
        len(side) != bands or any(len(row) != n for row in side) for side in state.counts
    ):
        raise ValueError(f"a level-{n} state holds 2 x {bands} kink bands of {n} counts each")
    if min(map(min, chain(*state.counts))) < 0:
        raise ValueError("node counts cannot be negative")
    zero = (0,) * n
    old0, old1 = ([*bands, zero] for bands in state.counts)  # no node above the top band
    new0 = [_label_step(c0, c1, 0)[0] for c0, c1 in zip(old0, old1)]
    new1 = [_label_step(c0, c1, 0)[1] for c0, c1 in zip([zero, *old0], old1)]
    m = n + 1
    held = (k for k, bands in enumerate(zip(new0, new1)) if any(chain(*bands)))
    _check_bands(sum(1 << k for k in held), 1, m)  # bit k set: new band k holds a node
    return LevelState(m, tuple(tuple(map(tuple, new[: m // 2 + 1])) for new in (new0, new1)))


def _kink_rows(lengths: range, lo: int, top: int) -> Iterator[tuple[int, ...]]:
    # entries d = lo..min(top, max_kinks(n)) of the kink marginals for each n
    # of the ascending range `lengths`, every row from n = 1 on cut at that
    # top: a band needs only itself and the one below.  One list holds the
    # row, updated in place from the top band down, so c[k - 1] is still row
    # n - 1's when c[k] reads it; a zero is appended first when the cut
    # widens.  Row sums are the fault check: n! when whole, <= n! when cut.
    row = [1]
    fact = 1
    for n in range(1, lengths.stop):
        most = max_kinks(n)
        cut = min(top, most)
        if n > 1:
            fact *= n
            if len(row) <= cut:
                row.append(0)
            for k in range(cut, 0, -1):
                row[k] = (2 * k + 2) * row[k] + (n - 2 * k) * row[k - 1]
            row[0] *= 2
        total = sum(row)
        if total > fact or (cut == most and total != fact):
            raise ArithmeticError(f"recurrence row {n} fails its sum check against {n}!")
        if n in lengths:
            yield tuple(row[lo:])


def dp_table(n_max: int, d_max: int | None = None) -> CountTable:
    """Exact counts for every n up to n_max via the kink-marginal recurrence.

    Row 1 is the single one-site history, and row n + 1 follows from row n
    by the recurrence of the module docstring: about n * d products of a
    big integer by a small one, for rows of at most d + 1 entries.
    Entries are exact at any size (the arithmetic is big-integer
    throughout).  With `d_max`, row n is cut at min(d_max, max_kinks(n)),
    as `series_table` cuts at its v_order; the bands k <= d_max need no
    band above them.  A row that fails its sum check (n! when whole, at
    most n! when cut), or a row too few or too many, raises ArithmeticError.

    >>> dp_table(4).row(4)
    (8, 16)
    >>> dp_table(10, 2).row(10)
    (512, 128512, 1304832)
    """
    check_int(n_max, 1, "n_max")
    top = max_kinks(n_max) if d_max is None else check_int(d_max, 0, "d_max")
    lengths = range(1, n_max + 1)
    return CountTable(dict(_paired("dp_table", lengths, _kink_rows(lengths, 0, top))))


class LabelMismatch(NamedTuple):
    """One insertion child whose direct label differs from the rule's.

    ``expected`` is None where the rule gives fewer than n + 1 children
    and ``actual`` is None where it gives more.
    """

    n: int
    word: tuple[int, ...]
    position: int
    expected: TreeLabel | None
    actual: TreeLabel | None


class ConsistencyReport(NamedTuple):
    """Outcome of an exhaustive succession-rule cross-check."""

    checked: int
    mismatches: tuple[LabelMismatch, ...]

    @property
    def ok(self) -> bool:
        return not self.mismatches


def _level_codes(n: int, words: bool = False) -> dict:
    # The distinct final states of a walk over the words of 1..n, one flip
    # depth at a time, each with its number of words; with `words`, each
    # (word, final state), in permutations order.  Child c_i = word[:i] +
    # (top,) + word[i:], i = 0..n, top = n + 1, has its flips tested against
    # the set c_i flipped before them: word[t] sees P_t (the set of word[:t])
    # when t < i and P_t | {top} when t >= i, and top sees P_i.  So c_i has
    # K_i = d_i + ht_n - 1 kinks, d_i = head_i + [n not in P_i] - ht_i, where
    # head_t counts the flips of word[:t] that open a block on P_t and ht_t
    # the same flips on P_t | {top}.  After t flips the state (P_t, head_t,
    # ht_t, d_0..d_(t-1), n's place j and r) fixes all that follows, so
    # without `words` the word stays () and equal states merge, their counts
    # added; j = r = 0 until n flips.
    with_top = 1 << n + 1
    states = {((), 0, 0, 0, (), (0, 0)): 1}
    for t in range(n):
        step = {}
        for (word, flipped, head, ht, digits, jr), count in states.items():
            digits += (head + (not flipped >> n & 1) - ht,)
            for s in range(1, n + 1):
                if not flipped >> s & 1:
                    state = (word + (s,) if words else word, flipped | 1 << s,
                             head + (not flipped & 5 << s - 1),
                             ht + (not (flipped | with_top) & 5 << s - 1), digits,
                             (t + 1, 1 - (flipped >> n - 1 & 1)) if s == n else jr)
                    step[state] = step.get(state, 0) + count
        states = step
    # every site is flipped, so states stay distinct; n is flipped, so d_n = head - ht
    final = {(word, (head, ht, digits + (head - ht,), jr)): count
             for (word, _, head, ht, digits, jr), count in states.items()}
    return final if words else {state: count for (_, state), count in final.items()}


def tree_label_consistency(n_max: int) -> ConsistencyReport:
    """Cross-check the succession rules against directly computed labels.

    For every word w of length n = 2..n_max - 1 and every insertion
    position of the new largest site top = n + 1, compares the label of
    the child word with the label the rule predicts at that position.
    Each child label is read off the child word alone, every flip tested
    against what the child itself flipped before it, so the rule, whose
    only input is the parent's label, cannot vouch for itself.  A walk
    over the words of a level keeps only its distinct states, each with
    its number of words, and the rule is judged once per distinct final
    state; `checked` counts n + 1 children per word.  A level whose walk
    does not reach n! words raises ArithmeticError.  Only a level with a
    mismatch is walked again word by word, to list the words of each
    mismatching state in word order.  Mismatches are report content.
    """
    if check_int(n_max, 2, "n_max") > 9:
        raise ValueError("a failing level's re-walk reads all n! words; keep n_max <= 9")
    checked = 0
    mismatches: list[LabelMismatch] = []
    for n in range(2, n_max):
        level = _level_codes(n)
        words = sum(level.values())
        if words != factorial(n):
            raise ArithmeticError(f"the label walk of level {n} reaches {words} words, not {n}!")
        checked += (n + 1) * words
        # final state -> its mismatching positions
        wrong: dict[tuple, list[tuple]] = {}
        for state in level:
            head, ht, digits, (j, r) = state
            # child i as a plain (max_pos, kinks, max_first)
            direct = [(i, d + ht - 1, int(i <= j)) for i, d in enumerate(digits, 1)]
            children = succession_children(TreeLabel(j, head - 1, r), n)
            if children != direct:
                # position by position, a missing or extra rule child against None
                wrong[state] = [
                    (position, child, actual and TreeLabel(*actual))
                    for position, (child, actual) in enumerate(zip_longest(children, direct), 1)
                    if actual != child
                ]
        if wrong:
            for word, state in _level_codes(n, words=True):
                for bad in wrong.get(state, ()):
                    mismatches.append(LabelMismatch(n, word, *bad))
    return ConsistencyReport(checked, tuple(mismatches))
