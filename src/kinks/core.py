"""Domain model for flip histories on a chain of spin sites.

A chain of n sites starts all minus and ends all plus; a history is the
order in which the sites flip.  Each flip either grows an existing block
of plus sites or starts a new block somewhere else; every new block after
the first one is a kink.  Histories are classified by the number d of
kinks they create, and this module is the single source of truth for what
d means, of how a route's rows pair with chain lengths (`_paired`: one row
per length) and of how entry d is read off them (`_column`: one count, none
above max_kinks(n)), else ArithmeticError, in the library and the CLI.
"""

from __future__ import annotations

from itertools import zip_longest
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

__all__ = [
    "History",
    "TreeLabel",
    "CountTable",
    "kink_count",
    "tree_label",
    "max_kinks",
    "check_int",
]


def check_int(value: int, least: int, what: str) -> int:
    """Return `value` if it is exactly an int of at least `least`.

    Anything else, a bool, a float or a smaller int, raises a ValueError
    that names the argument `what`.  Every integer argument of the public
    entry points passes through here: equal values alone would let 5.0
    count in floats and True stand for 1.
    """
    if type(value) is not int or value < least:
        raise ValueError(f"{what} must be an int of at least {least}, got {value!r}")
    return value


def _paired(label: str, lengths: range, rows: Iterable[Sequence[int]]) -> Iterator[tuple[int, tuple[int, ...]]]:
    # (n, row) for each n of `lengths`, each row a tuple; too few or too many rows are a fault
    for n, row in zip_longest(lengths, rows):
        if n is None or row is None:
            got = f"no row for n = {n} of" if row is None else "more rows than"
            raise ArithmeticError(f"{label} gave {got} n = {lengths.start}..{lengths.stop - 1}")
        yield n, tuple(row)


def _column(label: str, rows: Callable, lengths: range, d: int) -> Iterator[int]:
    # entry d of each row of rows(lengths, d, d), paired by _paired: a row of
    # one count, or an empty one above max_kinks(n); any other width is a fault
    for n, row in _paired(label, lengths, rows(lengths, d, d)):
        if len(row) != 1 and (row or d <= max_kinks(n)):
            raise ArithmeticError(f"{label} gave {len(row)} counts for n = {n}, d = {d}")
        yield row[0] if row else 0


def max_kinks(n: int) -> int:
    """Largest kink count a history of length n can reach: floor((n-1)/2).

    New blocks need a site with both neighbours unflipped, so blocks
    beyond the first consume two sites each.

    >>> [max_kinks(n) for n in range(1, 8)]
    [0, 0, 1, 1, 2, 2, 3]
    """
    return (check_int(n, 1, "n") - 1) // 2


#: The exhaustive scan's default domain, n <= 11, read by the oracle's
#: `brute_force_table` and by the CLI's brute ceiling, which must not load
#: the oracle to learn it.  The pass over the flipped sets makes about
#: n 2^(n-1) big-integer additions: 0.55-0.89 ms at n = 9, 1.8-2.0 ms at
#: n = 10, 4.0-4.5 ms at n = 11 and 5.9-10 ms at n = 12 (best of 5, 2-core
#: VM, Python 3.11).  So `count --all-methods` prints a `brute:` line at
#: n <= 11 only; anything larger needs an explicit opt-in via `ceiling`.
DEFAULT_BRUTE_CEILING = 11


class _HistoryWord(NamedTuple):  # History's fields: a NamedTuple body may not define __new__
    word: tuple[int, ...]


class History(_HistoryWord):
    """A flip schedule: ``word[i]`` is the site flipped at time step i + 1.

    The word uses every site of the chain exactly once, i.e. it is a
    permutation of 1..n in one-line notation.  Histories are immutable
    values; two histories are equal iff their words are equal.  Every
    constructor checks the word, except the one for words that
    `enumerate_histories` builds: its walk checks each flip as it appends
    it (one new site of 1..n), so a finished word is not sorted again, and
    it wraps every completion of one head in one call.

    >>> History([2, 1, 3])
    History(word=(2, 1, 3))
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so that _replace validates too

    def __new__(cls, word: Iterable[int]) -> History:
        word = tuple(word)
        n = len(word)
        if n < 1:
            raise ValueError("a history must flip at least one site")
        # equal values alone would let 1.0, Fraction(1) or True stand for
        # site 1, so every site must be exactly an int
        if sorted(word) != list(range(1, n + 1)) or {*map(type, word)} != {int}:
            raise ValueError(f"word is not a permutation of 1..{n}: {word!r}")
        return super().__new__(cls, word)

    @classmethod
    def _proven(cls, head: tuple[int, ...], tails: Iterable[tuple[int, ...]]) -> list[History]:
        # unchecked: the caller must have proved each `head + tail` a tuple
        # of the int sites 1..n, each once (the enumeration walk does so
        # flip by flip)
        new = tuple.__new__
        return [new(cls, (head + tail,)) for tail in tails]


class TreeLabel(NamedTuple):
    """Label of a history as a node of the generating tree.

    ``max_pos``   position of the largest site in the word (1-based),
    ``kinks``     kink count of the word,
    ``max_first`` 1 if the largest site flips before the second largest.
    """

    max_pos: int
    kinks: int
    max_first: int


def _opened(seen: int, flips: Iterable[int]) -> tuple[int, int]:
    # Blocks opened by the flips, in order, after the sites in `seen`, and
    # the set flipped after them.  Bit s marks site s; `5 << (s - 1)`
    # probes its neighbours s - 1 and s + 1, and a flip with neither
    # flipped opens a block.
    opens = 0
    for s in flips:
        if not seen & (5 << (s - 1)):
            opens += 1
        seen |= 1 << s
    return opens, seen


def _word_kinks(word: Sequence[int]) -> int:
    # the first flip always opens a block and is not a kink
    return _opened(0, word)[0] - 1


def kink_count(h: History) -> int:
    """Number of kinks a history creates beyond the initial one.

    A time step creates a kink when the site it flips has no previously
    flipped neighbour, so the flip opens a new plus block instead of
    growing one.  The first step opens the initial block and never counts.

    >>> kink_count(History((1, 2, 3, 4)))
    0
    >>> kink_count(History((1, 3, 2, 4)))
    1
    """
    return _word_kinks(h.word)


def tree_label(h: History) -> TreeLabel:
    """Generating-tree label of a history of length at least 2.

    >>> tree_label(History((1, 3, 4, 2)))
    TreeLabel(max_pos=3, kinks=1, max_first=0)
    """
    word = h.word
    n = len(word)
    if n < 2:
        raise ValueError("labels need length >= 2: max_first is undefined at n = 1")
    pos_max = word.index(n)
    pos_second = word.index(n - 1)
    return TreeLabel(pos_max + 1, _word_kinks(word), 1 if pos_max < pos_second else 0)


class CountTable(NamedTuple):
    """Exact history counts indexed by chain length n and kink count d.

    ``rows[n][d]`` is the number of length-n histories creating exactly d
    kinks.  A full row runs over d = 0..max_kinks(n); tables produced from
    series expansions at a low truncation order may store only a prefix of
    a row.  Entries are exact big integers.
    """

    rows: dict[int, tuple[int, ...]]

    def lengths(self) -> list[int]:
        """Chain lengths covered by the table, ascending."""
        return sorted(self.rows)

    def row(self, n: int) -> tuple[int, ...]:
        """Stored counts for chain length n, indexed by d."""
        return self.rows[n]

    def count(self, n: int, d: int) -> int:
        """Exact count for (n, d); zero above max_kinks(n).

        Raises ValueError when the requested d lies in the truncated part
        of an incomplete row (the value is unknown, not zero).
        """
        check_int(d, 0, "d")
        row = self.rows[check_int(n, 1, "n")]
        if d < len(row):
            return row[d]
        if d <= max_kinks(n):
            raise ValueError(f"row {n} is truncated at d = {len(row) - 1}, asked for d = {d}")
        return 0
