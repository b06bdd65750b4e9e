"""Shared test oracles and frozen reference data.

`naive_kink_count` is an independent formulation of the kink statistic:
it replays the flip schedule on an explicit configuration and counts the
steps where the number of maximal plus blocks grows.  The library never
computes it this way, so agreement is meaningful.  `naive_label_consistency`
is the succession-rule check written the plain way: it builds every child
word and reads its label from scratch.
"""

from __future__ import annotations

from itertools import permutations, zip_longest

import kinks.treedp
from kinks import History, tree_label
from kinks.treedp import ConsistencyReport, LabelMismatch

# Reference counts rows[n][d] for n = 2..10 (published table).
GOLDEN = {
    2: (2,),
    3: (4, 2),
    4: (8, 16),
    5: (16, 88, 16),
    6: (32, 416, 272),
    7: (64, 1824, 2880, 272),
    8: (128, 7680, 24576, 7936),
    9: (256, 31616, 185856, 137216, 7936),
    10: (512, 128512, 1304832, 1841152, 353792),
}

# The eight length-4 histories with no extra kink (published table).
F4_D0_WORDS = {
    (1, 2, 3, 4),
    (2, 1, 3, 4),
    (2, 3, 1, 4),
    (2, 3, 4, 1),
    (3, 2, 1, 4),
    (3, 2, 4, 1),
    (3, 4, 2, 1),
    (4, 3, 2, 1),
}

# The sixteen length-4 histories with exactly one extra kink (published table).
F4_D1_WORDS = {
    (1, 2, 4, 3),
    (1, 3, 2, 4),
    (1, 3, 4, 2),
    (1, 4, 2, 3),
    (1, 4, 3, 2),
    (2, 1, 4, 3),
    (2, 4, 1, 3),
    (2, 4, 3, 1),
    (3, 1, 2, 4),
    (3, 1, 4, 2),
    (3, 4, 1, 2),
    (4, 1, 2, 3),
    (4, 1, 3, 2),
    (4, 2, 1, 3),
    (4, 2, 3, 1),
    (4, 3, 1, 2),
}


def naive_kink_count(word) -> int:
    """Replay the schedule and count block creations beyond the first."""
    n = len(word)
    flipped = [False] * (n + 2)  # 1-based sites with sentinels

    def block_count() -> int:
        count = 0
        previous = False
        for site in range(1, n + 1):
            if flipped[site] and not previous:
                count += 1
            previous = flipped[site]
        return count

    created = 0
    for site in word:
        before = block_count()
        flipped[site] = True
        if block_count() == before + 1:
            created += 1
    return created - 1


def naive_table(n_max: int) -> dict[int, tuple[int, ...]]:
    """Count table built purely from the naive oracle."""
    rows = {}
    for n in range(1, n_max + 1):
        counts = [0] * ((n - 1) // 2 + 1)
        for word in permutations(range(1, n + 1)):
            counts[naive_kink_count(word)] += 1
        rows[n] = tuple(counts)
    return rows


def word_label(word: tuple[int, ...]) -> kinks.TreeLabel:
    """The generating-tree label of a word, read through `History`."""
    return tree_label(History(word))


def naive_label_consistency(n_max: int) -> ConsistencyReport:
    """The rule check built child word by child word, asking the rule per parent."""
    checked = 0
    mismatches = []
    for n in range(2, n_max):
        top = (n + 1,)
        for word in permutations(range(1, n + 1)):
            children = kinks.treedp.succession_children(word_label(word), n)
            direct = [word_label(word[:i] + top + word[i:]) for i in range(n + 1)]
            checked += n + 1
            # None stands for a child the rule lacks or a rule child too many
            for pos, (child, actual) in enumerate(zip_longest(children, direct), 1):
                if actual != child:
                    mismatches.append(LabelMismatch(n, word, pos, child, actual))
    return ConsistencyReport(checked, tuple(mismatches))
