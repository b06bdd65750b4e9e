"""Ground-truth enumeration of flip histories.

Two independent routes: an exhaustive scan that classifies every
permutation by kink count, and a backtracking generator that builds only
the histories with a prescribed kink count by growing plus blocks site by
site.  Whether a flip opens a block depends only on the set flipped
before it, so the scan sums over chains of flipped sets: one pass over
the sets carries the histogram of every order of each set to each set
with one more site, and the pass of the longest chain holds every
shorter row.  The backtracking counts on collapsed chains, where each
flipped block is one site: a flip opens a block only when no neighbour
is flipped, so collapsing a block changes neither the unflipped runs nor
what any later flip does, and one memo serves every length and kink
count of a table.  The enumeration is one walk with two renderings: it
yields each head with every completion of its state, memoized as tuples
of sites for `enumerate_histories` or as text for the CLI's lines.
"""

from __future__ import annotations

from functools import cache, lru_cache
from itertools import islice
from math import factorial
from typing import Callable, Iterable, Iterator, Sequence

from .core import DEFAULT_BRUTE_CEILING, CountTable, History, _column, _paired, check_int, max_kinks

__all__ = ["DEFAULT_BRUTE_CEILING", "brute_force_table", "backtrack_count", "enumerate_histories"]

#: Enumeration reads every completion of a state with at most _TAIL_SITES
#: free sites from a memo of _TAIL_MEMO states, least recently used
#: dropped first.  An entry holds at most 5! = 120 completions (10.6 KiB,
#: as tuples of five sites or as their text at six-digit sites), so the
#: memo never holds more than about 5.3 MiB; unbounded, it grows on.
_TAIL_SITES, _TAIL_MEMO = 5, 512


def brute_force_table(n_max: int, *, ceiling: int = DEFAULT_BRUTE_CEILING) -> CountTable:
    """Classify all n! histories by kink count for every n up to n_max.

    One pass over the 2^n_max sets of flipped sites gives every row, so
    every word counts once without being built.

    >>> brute_force_table(4).row(4)
    (8, 16)
    """
    if check_int(n_max, 1, "n_max") > check_int(ceiling, 1, "ceiling"):
        raise ValueError(
            f"n_max = {n_max} exceeds the exhaustive-scan ceiling {ceiling}; "
            "raise the ceiling explicitly to attempt it"
        )
    lengths = range(1, n_max + 1)
    rows = _brute_rows(lengths, 0, max_kinks(n_max))
    return CountTable(dict(_paired("brute_force_table", lengths, rows)))


def _brute_rows(lengths: Iterable[int], lo: int, top: int) -> Iterator[list[int]]:
    # The counts d = lo..min(top, max_kinks(n)) of each n in lengths, from
    # one pass over the flipped sets of the longest chain, each before
    # every set that holds it, since a subset is the smaller int.
    # hist[seen] is the histogram of blocks opened over every order of
    # `seen`, packed one digit of `width` bits per count of blocks: no
    # count exceeds the longest chain's n!, so no digit carries.  Each set
    # adds its histogram to every set with one more site, one digit up
    # when neither neighbour of that site is in the set.  Only the
    # unflipped sites are walked, lowest bit first, and `bit << 1 | bit >>
    # 1` probes a site's two neighbours.  Bit s marks site s, so the odd
    # entries of `hist` stay 0.  The subsets of sites 1..m are the ints
    # below 2^(m+1), so the pass meets them first, and site m + 1 stays
    # unflipped in each, as a chain of m sites has no site m + 1: the
    # entry of the set 1..m is row m.
    lengths = list(lengths)
    longest = max(lengths, default=0)
    width = factorial(longest).bit_length()
    full = ((1 << longest) - 1) << 1
    hist = [0] * (full + 1)
    hist[0] = 1
    for seen in range(0, full, 2):
        stay = hist[seen]
        opened = stay << width
        free = full ^ seen
        while free:
            bit = free & -free
            free ^= bit
            hist[seen | bit] += stay if seen & (bit << 1 | bit >> 1) else opened
    # the first flip opens the initial block, which is not a kink
    digit = (1 << width) - 1
    for n in lengths:
        packed = hist[((1 << n) - 1) << 1]
        counts = [packed >> (width * (d + 1)) & digit for d in range(max_kinks(n) + 1)]
        if sum(counts) != factorial(n):
            raise ArithmeticError(f"exhaustive scan of length {n} does not count {n}! words")
        yield counts[lo : top + 1]


def _check_kinks(n: int, d: int) -> None:
    # n first, so that a chain below length 1 gets n's error at any d
    top = max_kinks(n)
    if check_int(d, 0, "d") > top:
        raise ValueError(f"kink count {d} out of range 0..{top} for n = {n}")


def enumerate_histories(n: int, d: int, limit: int | None = None) -> Iterator[History]:
    """Yield the histories of length n with exactly d kinks, in word order.

    Histories are grown one flip at a time: a step either extends an
    existing plus block at one of its ends (free) or opens a new block at
    a site with both neighbours unflipped (spending one of the d kink
    credits).  Branches that can no longer spend exactly the remaining
    credits are pruned, so the stream holds precisely the wanted set, in
    lexicographic word order and free of duplicates.

    >>> ["".join(map(str, h.word)) for h in enumerate_histories(3, 1)]
    ['132', '312']
    """
    _check_kinks(n, d)
    if limit is not None:
        check_int(limit, 0, "limit")
    return islice(_emit_words(n, d), limit)


def _moves(seen: int, rem: int, cap: int, n: int, full: int) -> Iterator[tuple[int, int, int]]:
    """The flips that can follow `seen` without losing the wanted kinks.

    `rem` counts the blocks still to open and `cap` the most that the
    unflipped runs can still hold.  A flip next to a flipped site grows a
    block for free; any other flip spends one block.  Flips that leave
    more blocks to open than there is room for are pruned.  Yields one
    `(bit, rem, cap)` per kept flip, in ascending site order.  From
    `seen = 0`, with `rem = d + 1` and `cap = (n + 1) // 2`, the first
    flip opens the initial block, which is not a kink.  `cap` is tracked
    only while a block remains to open: a flip that leaves `rem = 0`
    always has a completion, by growth alone, so it is kept unchecked and
    carries `cap = 0`.  At `rem = 0` growth is the only move.  The flips
    come lazily, so a walk that takes the first kept flip pays for no
    others.  Taking every flip, `backtrack_count` runs within 2% of a list
    (rows 2..9 at every d, and (11, 3), best of 41, 2-core VM, Python 3.11).

    Room: a run of L unflipped sites that touches `ends` chain ends holds
    r // 2 new blocks, for its reach r = L - 1 + ends (the whole chain:
    (n + 1) // 2).  So a chain end counts as a flipped site one step past
    it, at -1 or n + 2, and a run's reach is the distance between the two
    flipped sites that bound it, less 2.  A flip splits its run of reach
    x + y + 2 into parts of reach x and y, where an empty part next to a
    flipped site has reach -1 and room 0, so it takes
    1 + (x & y & 1) - (x < 0) - (y < 0) from the room.
    """
    cand = (seen << 1 | seen >> 1) & ~seen & full
    fresh = ~(cand | seen) & full if rem else 0
    cand |= fresh
    while cand:
        low = cand & -cand
        cand ^= low
        rem2 = rem - 1 if low & fresh else rem
        if not rem2:
            yield low, 0, 0
            continue
        # the reaches left and right of site b - 1, up to the nearest
        # flipped site or chain end (the right end as a flipped n + 2)
        b = low.bit_length()
        x = b - 2 - (seen & (low - 1)).bit_length()
        y = (seen | 4 << n) & -(low << 1)  # the flipped sites above b - 1
        y = (y & -y).bit_length() - b - 2
        cap2 = cap - 1 + (x < 0) + (y < 0) - (x & y & 1)
        if cap2 >= rem2:
            yield low, rem2, cap2


def _emit_groups(
    n: int, d: int, unit: Callable[[int], Sequence], empty: Sequence
) -> Iterator[tuple[list[int], tuple[Sequence, ...]]]:
    # Yields each head with every completion of its state, in word order.
    # Depth-first with an explicit stack of one suspended `_moves` per
    # depth, so every group is yielded from this one frame.  Once at most
    # _TAIL_SITES sites are free, every completion of the state comes from
    # `tails`, shared by every head that leaves it, and built of `unit(s)`
    # per flip of site s, ending in `empty`: `(s,)` and `()` for the
    # library's words, a site's text and "" for the CLI's lines.  The head
    # is the walk's own list, valid until the next group is asked for.
    # `site` checks each flip as it is appended, to a head or to a
    # completion: a single bit, of a site of 1..n not yet flipped.  Each
    # word is then a permutation of 1..n by induction, and the check costs
    # one test per walk step, shared by every word that extends it.
    _check_kinks(n, d)
    full = ((1 << n) - 1) << 1

    def site(seen: int, bit: int) -> int:
        if bit & (bit - 1) or not bit & (full ^ seen):  # seen is a subset of full
            raise ArithmeticError(f"enumeration of length {n} flips {bit:#x} after {seen:#x}")
        return bit.bit_length() - 1

    @lru_cache(maxsize=_TAIL_MEMO)
    def tails(seen: int, rem: int, cap: int) -> tuple[Sequence, ...]:
        # keyed by rem too: it does not follow from seen, since a flip
        # that joins two blocks spends no credit
        if seen == full:
            return (empty,)
        words: list[Sequence] = []
        for bit, rem2, cap2 in _moves(seen, rem, cap, n, full):
            words += map(unit(site(seen, bit)).__add__, tails(seen | bit, rem2, cap2))
        return tuple(words)

    head: list[int] = []
    seen = 0
    pending = [iter(_moves(0, d + 1, (n + 1) // 2, n, full))]
    while pending:
        for bit, rem, cap in pending[-1]:
            head.append(site(seen, bit))
            seen |= bit
            if len(head) < n - _TAIL_SITES:
                pending.append(iter(_moves(seen, rem, cap, n, full)))
                break
            yield head, tails(seen, rem, cap)
            seen ^= bit
            head.pop()
        else:
            pending.pop()
            if head:
                seen ^= 1 << head.pop()


def _emit_words(n: int, d: int) -> Iterator[History]:
    # the walk's completions as tuples of sites; each word is proven a
    # permutation by the walk's checks, so `History._proven` wraps a head's
    # completions, all in one call, without sorting them again
    for head, tails in _emit_groups(n, d, lambda s: (s,), ()):
        yield from History._proven(tuple(head), tails)


def _backtrack_rows(lengths: Iterable[int], lo: int, top: int) -> Iterator[list[int]]:
    # backtrack_count(n, d) for d = lo..min(top, max_kinks(n)), each n in
    # lengths, from one memo that dies with the call: a walk on a collapsed
    # chain of m sites is keyed (seen, rem, cap, m), so every length and
    # kink count that collapses to it shares it
    @cache
    def walk(seen: int, rem: int, cap: int, m: int) -> int:
        full = ((1 << m) - 1) << 1
        if seen == full:
            return 1
        total = 0
        for bit, rem2, cap2 in _moves(seen, rem, cap, m, full):
            near = seen & (bit << 1 | bit >> 1)
            if near:
                # the flip and, if it joins two blocks, the upper one go:
                # the sites above them move down
                k = near.bit_count()
                total += walk(seen & bit - 1 | seen >> k & -bit, rem2, cap2, m - k)
            else:
                total += walk(seen | bit, rem2, cap2, m)
        return total

    for n in lengths:
        yield [walk(0, d + 1, (n + 1) // 2, n) for d in range(lo, min(top, max_kinks(n)) + 1)]


def backtrack_count(n: int, d: int) -> int:
    """Number of histories `enumerate_histories(n, d)` would yield.

    The same pruned search over `_moves`, counted instead of yielded: a
    walk returns 1 once every site is flipped and otherwise sums the
    walks after each kept flip.  The walk runs on collapsed chains: a
    flip that grows a block drops its own site, and one more when it joins
    two blocks, so each flipped block stays a single site.  That is exact,
    since a flip opens a block only when no neighbour is flipped, and
    collapsing keeps the unflipped runs, and so the credits and the room.
    Sub-walks from the same collapsed chain and credits are counted once.

    >>> backtrack_count(5, 1)
    88
    """
    _check_kinks(n, d)
    [count] = _column("backtrack_count", _backtrack_rows, range(n, n + 1), d)
    return count
