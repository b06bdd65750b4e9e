"""Polynomial-time exact counting via the generating tree of labels.

Every history of length n + 1 arises from exactly one history of length n
by inserting the new largest site into the flip schedule, and the label
(max_pos, kinks, max_first) of the child depends only on the label of the
parent and the insertion position.  Counting labels level by level with
big integers therefore counts histories without enumerating them.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, permutations
from math import factorial
from operator import add

from .core import CountTable, History, TreeLabel, max_kinks, tree_label

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

    Inserting the new largest site at position m gives the child with
    max_pos = m.  Insertions at positions m <= max_pos put the new maximum
    before the old one (max_first = 1) and open a fresh block exactly when
    the parent had max_first = 0; insertions behind the old maximum leave
    the kink count alone and give max_first = 0.

    >>> succession_children(TreeLabel(2, 0, 0), 2)
    [TreeLabel(max_pos=1, kinks=1, max_first=1), TreeLabel(max_pos=2, kinks=1, max_first=1), TreeLabel(max_pos=3, kinks=0, max_first=0)]
    """
    j, k, r = label
    if n < 2:
        raise ValueError(f"levels start at 2, got {n}")
    if not 1 <= j <= n or not 0 <= k <= max_kinks(n) or r not in (0, 1):
        raise ValueError(f"label {label} cannot occur at level {n}")
    head_k = k + 1 if r == 0 else k
    head = [TreeLabel(m, head_k, 1) for m in range(1, j + 1)]
    tail = [TreeLabel(m, k, 0) for m in range(j + 1, n + 2)]
    return head + tail


@dataclass(frozen=True)
class LevelState:
    """Node counts of one generating-tree level, indexed by label.

    ``counts[r][k][j - 1]`` is the number of level-n nodes labelled
    (j, k, r).  The k axis is allocated up to floor(n/2); the band above
    max_kinks(n) is kept, and checked, identically zero.  A state advanced
    with a kink cap is cut: its k axis stops at the cap, and the bands it
    keeps are exact, since no child has fewer kinks than its parent.
    """

    n: int
    counts: tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]

    def label_count(self, label: TreeLabel) -> int:
        """Number of level nodes carrying the given label."""
        j, k, r = label
        if not 1 <= j <= self.n or r not in (0, 1) or k < 0:
            raise ValueError(f"label {label} cannot occur at level {self.n}")
        band = self.counts[r]
        return band[k][j - 1] if k < len(band) else 0

    @property
    def top(self) -> int:
        """Highest kink number held: max_kinks(n), or the cap of a cut state."""
        return min(max_kinks(self.n), len(self.counts[0]) - 1)

    def total(self) -> int:
        """Number of nodes held; equals n! when the state is valid and uncut."""
        return sum(sum(row) for band in self.counts for row in band)

    def kink_marginal(self) -> tuple[int, ...]:
        """Counts by kink number up to `top`, summed over max_pos and max_first."""
        return tuple(
            sum(self.counts[0][k]) + sum(self.counts[1][k]) for k in range(self.top + 1)
        )

    def validate(self) -> None:
        """Raise ValueError unless the level counts are consistent.

        An uncut state holds n! nodes; a cut one holds at most n!.
        """
        if any(c < 0 for band in self.counts for row in band for c in row):
            raise ValueError(f"negative node count at level {self.n}")
        total, whole = self.total(), factorial(self.n)
        if total > whole or (self.top == max_kinks(self.n) and total != whole):
            raise ValueError(f"level {self.n} holds {total} nodes, expected {self.n}!")


def root_state() -> LevelState:
    """Level 2: the words 12 and 21, labelled (2, 0, 0) and (1, 0, 1)."""
    return LevelState(
        n=2,
        counts=(
            ((0, 1), (0, 0)),  # max_first = 0
            ((1, 0), (0, 0)),  # max_first = 1
        ),
    )


def advance_level(state: LevelState, d_max: int | None = None) -> LevelState:
    """Push the node counts one level down the tree.

    Children with max_first = 0 at position m collect every parent with
    max_pos < m; children with max_first = 1 at position m collect the
    max_first = 1 parents with max_pos >= m at the same kink count plus
    the max_first = 0 parents with max_pos >= m at one kink less.  Prefix
    and suffix running sums keep the step at O(n * k) additions.  With
    `d_max`, only the bands k <= d_max are kept; they need no band above
    them, so a cut state advances exactly under its own cap or a lower one.
    """
    n = state.n
    if n < 2:
        raise ValueError("level states start at 2")
    m = n + 1
    alloc = m // 2 if d_max is None else min(m // 2, d_max)
    if alloc < 0:
        raise ValueError(f"d_max must be nonnegative, got {d_max}")
    if alloc > state.top < max_kinks(n):
        raise ValueError(f"a state cut at k = {state.top} cannot advance to k = {alloc}")
    zero = (0,) * n
    pad = [zero] * (alloc + 1)
    band0, band1 = [*state.counts[0], *pad], [*state.counts[1], *pad]
    below0 = [zero, *band0]
    new0 = [tuple(accumulate(map(add, band0[k], band1[k]), initial=0)) for k in range(alloc + 1)]
    new1 = [
        tuple(accumulate(map(add, reversed(below0[k]), reversed(band1[k])), initial=0))[::-1]
        for k in range(alloc + 1)
    ]
    top = max_kinks(m)
    for k in range(top + 1, alloc + 1):
        # the stated k bound is loose; the tight one must hold
        if any(new0[k]) or any(new1[k]):
            raise ArithmeticError(f"nonzero count above max_kinks at (m, k) = ({m}, {k})")
    return LevelState(n=m, counts=(tuple(new0), tuple(new1)))


def dp_table(n_max: int, d_max: int | None = None) -> CountTable:
    """Exact counts for every n up to n_max via the level recurrences.

    Row 1 is the single one-site history; rows from 2 are the kink
    marginals of the evolving level states.  Entries are exact at any
    size (the arithmetic is big-integer throughout).  With `d_max`, the
    levels keep only the bands k <= d_max, and row n is cut at
    min(d_max, max_kinks(n)), as `series_table` cuts at its v_order.

    >>> dp_table(4).row(4)
    (8, 16)
    >>> dp_table(10, 2).row(10)
    (512, 128512, 1304832)
    """
    if n_max < 1:
        raise ValueError(f"n_max must be at least 1, got {n_max}")
    if d_max is not None and d_max < 0:
        raise ValueError(f"d_max must be nonnegative, got {d_max}")
    rows: dict[int, tuple[int, ...]] = {1: (1,)}
    if n_max == 1:
        return CountTable(rows)
    state = root_state()
    rows[2] = state.kink_marginal()
    while state.n < n_max:
        state = advance_level(state, d_max)
        rows[state.n] = state.kink_marginal()
    return CountTable(rows)


@dataclass(frozen=True)
class LabelMismatch:
    """One insertion child whose direct label differs from the rule's."""

    n: int
    word: tuple[int, ...]
    position: int
    expected: TreeLabel
    actual: TreeLabel


@dataclass(frozen=True)
class ConsistencyReport:
    """Outcome of an exhaustive succession-rule cross-check."""

    checked: int
    mismatches: tuple[LabelMismatch, ...]

    @property
    def ok(self) -> bool:
        return not self.mismatches


def tree_label_consistency(n_max: int) -> ConsistencyReport:
    """Cross-check the succession rules against directly computed labels.

    For every word of length 2..n_max - 1 and every insertion position of
    the new largest site, compares the label of the child word (computed
    from scratch) with the label the rule predicts at that position.
    Mismatches are report content, not errors; a correct rule yields none.
    """
    if n_max > 9:
        raise ValueError("the cross-check scans (n+1)! children per level; keep n_max <= 9")
    checked = 0
    mismatches: list[LabelMismatch] = []
    for n in range(2, n_max):
        for word in permutations(range(1, n + 1)):
            children = succession_children(tree_label(History(word)), n)
            for pos in range(1, n + 2):
                child = word[: pos - 1] + (n + 1,) + word[pos - 1 :]
                actual = tree_label(History(child))
                checked += 1
                if actual != children[pos - 1]:
                    mismatches.append(
                        LabelMismatch(n, word, pos, children[pos - 1], actual)
                    )
    return ConsistencyReport(checked, tuple(mismatches))
