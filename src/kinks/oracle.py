"""Ground-truth enumeration of flip histories.

Two independent routes: an exhaustive scan that classifies every
permutation by kink count, and a backtracking generator that builds only
the histories with a prescribed kink count by growing plus blocks site by
site.  The scan splits each word into a head and a tail: whether a flip
opens a block depends only on the set flipped before it, and reflecting
the chain keeps the kinks, so the orders of one tail are scanned once for
every head that leaves the same set, or its mirror image, behind.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from functools import cache, lru_cache
from itertools import islice, permutations
from math import factorial
from typing import Iterator

from .core import CountTable, History, _opened, check_int, max_kinks

#: The head/tail scan of all 11! words takes about 0.07 s and of all 12!
#: about 0.32 s (2-core VM, Python 3.11), and the work grows
#: factorially; anything larger needs an explicit opt-in via `ceiling`.
DEFAULT_BRUTE_CEILING = 11

#: Enumeration reads every completion of a state with at most _TAIL_SITES
#: free sites from a memo of _TAIL_MEMO states, least recently used
#: dropped first.  An entry holds at most 5! = 120 completions (10.6 KiB),
#: so the memo never holds more than about 5.3 MiB; unbounded, it grows on.
_TAIL_SITES, _TAIL_MEMO = 5, 512


def brute_force_table(n_max: int, *, ceiling: int = DEFAULT_BRUTE_CEILING) -> CountTable:
    """Classify all n! histories by kink count for every n up to n_max.

    >>> brute_force_table(4).row(4)
    (8, 16)
    """
    if check_int(n_max, 1, "n_max") > ceiling:
        raise ValueError(
            f"n_max = {n_max} exceeds the exhaustive-scan ceiling {ceiling}; "
            "raise the ceiling explicitly to attempt it"
        )
    return CountTable({n: tuple(_brute_row(n)) for n in range(1, n_max + 1)})


def _brute_row(n: int) -> list[int]:
    # Each word is a head of n - n//2 flips and a tail of the rest.  Heads
    # are grouped by the mirror orbit of the set they leave flipped, and
    # every order of each orbit's tail is scanned once, so each of the n!
    # words counts once.
    counts = [0] * (max_kinks(n) + 1)
    for seen, head_kinks in _head_kinks(n).items():
        tail_kinks = _tail_kinks(seen, n)
        for d, c in head_kinks.items():
            for e, m in tail_kinks.items():
                counts[d + e] += c * m
    if sum(counts) != factorial(n):
        raise ArithmeticError(f"exhaustive scan of length {n} does not count {n}! words")
    return counts


def _head_kinks(n: int) -> defaultdict[int, Counter[int]]:
    # kink histogram of every head of n - n//2 flips, by the mirror orbit
    # of the set it leaves flipped.  Reflection s -> n + 1 - s keeps
    # adjacency and so kinks: only heads whose first flip s has
    # 2s <= n + 1 are walked, weighed 2 for the unwalked mirror image or 1
    # at the middle site (whose mirror images are walked too), and each
    # set is filed under min(set, mirror set), whose tails have the same
    # histogram.  A depth-first walk with an explicit stack of (flipped
    # set, opens, flips, weight) builds each prefix once for every head
    # that extends it, takes the last two flips in place and sums each
    # head's weight by its (flipped set, opens) pair.
    size = n - n // 2
    pairs: dict[tuple[int, int], int] = {}
    stack = [(1 << s, 1, 1, 1 if 2 * s == n + 1 else 2) for s in range(1, (n + 1) // 2 + 1)]
    while stack:
        seen, opens, depth, weight = stack.pop()
        if depth == size:  # a head of one or two flips, at n <= 4
            pairs[seen, opens] = pairs.get((seen, opens), 0) + weight
            continue
        free = [s for s in range(1, n + 1) if not seen >> s & 1]
        if depth != size - 2:  # more than two flips to go, or one at n <= 4
            stack.extend(
                (seen | 1 << s, opens + (not seen & (5 << (s - 1))), depth + 1, weight)
                for s in free
            )
            continue
        for s in free:
            once, once_opens = seen | 1 << s, opens + (not seen & (5 << (s - 1)))
            for t in free:
                if t != s:
                    pair = once | 1 << t, once_opens + (not once & (5 << (t - 1)))
                    pairs[pair] = pairs.get(pair, 0) + weight
    heads: defaultdict[int, Counter[int]] = defaultdict(Counter)
    for (seen, opens), c in pairs.items():
        mirror = int(f"{seen >> 1:0{n}b}"[::-1], 2) << 1
        heads[min(seen, mirror)][opens - 1] += c  # the first flip opens no kink
    return heads


def _tail_kinks(seen: int, n: int) -> Counter[int]:
    # kink histogram over every order of the sites of 1..n not in `seen`
    free = [s for s in range(1, n + 1) if not seen >> s & 1]
    return Counter(_opened(seen, tail)[0] for tail in permutations(free))


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


def _moves(seen: int, rem: int, cap: int, n: int, full: int) -> list[tuple[int, int, int]]:
    """The flips that can follow `seen` without losing the wanted kinks.

    `rem` counts the blocks still to open and `cap` the most that the
    unflipped runs can still hold.  A flip next to a flipped site grows a
    block for free; any other flip spends one block.  Flips that leave
    more blocks to open than there is room for are pruned.  Returns one
    `(bit, rem, cap)` per kept flip, in ascending site order.  From
    `seen = 0`, with `rem = d + 1` and `cap = (n + 1) // 2`, the first
    flip opens the initial block, which is not a kink.  `cap` is tracked
    only while a block remains to open: a flip that leaves `rem = 0`
    always has a completion, by growth alone, so it is kept unchecked and
    carries `cap = 0`.  At `rem = 0` growth is the only move.  The result
    is a list because a generator here slows `backtrack_count`.

    Room: a run of L unflipped sites that touches `ends` chain ends holds
    r // 2 new blocks, for its reach r = L - 1 + ends (the whole chain:
    (n + 1) // 2).  So a chain end counts as a flipped site one step past
    it, at -1 or n + 2, and a run's reach is the distance between the two
    flipped sites that bound it, less 2.  A flip splits its run of reach
    x + y + 2 into parts of reach x and y, where an empty part next to a
    flipped site has reach -1 and room 0, so it takes
    1 + (x & y & 1) - (x < 0) - (y < 0) from the room.
    """
    grown = (seen << 1) | (seen >> 1)
    fresh = ~grown & ~seen & full if rem else 0
    cand = (grown & ~seen & full) | fresh
    walls = seen | 4 << n  # with the chain's right end as a flipped n + 2
    moves = []
    while cand:
        low = cand & -cand
        cand ^= low
        rem2 = rem - 1 if low & fresh else rem
        if not rem2:
            moves.append((low, 0, 0))
            continue
        # the reaches left and right of site b - 1, up to the nearest
        # flipped site or chain end
        b = low.bit_length()
        x = b - 2 - (seen & (low - 1)).bit_length()
        up = walls & -(low << 1)
        y = (up & -up).bit_length() - b - 2
        cap2 = cap - 1 + (x < 0) + (y < 0) - (x & y & 1)
        if cap2 >= rem2:
            moves.append((low, rem2, cap2))
    return moves


def _emit_words(n: int, d: int) -> Iterator[History]:
    # depth-first over `_moves` with an explicit stack of the flips still
    # to try at each depth, so every word is yielded from this one frame.
    # Once at most _TAIL_SITES sites are free, every completion of the
    # state comes from `tails`, shared by every head that leaves it.
    # `site` checks each flip as it is appended, to a head or to a
    # completion: a single bit, of a site of 1..n not yet flipped.  Each
    # word is then a permutation of 1..n by induction, so `History._proven`
    # wraps a head's completions, all in one call, without sorting them
    # again, and the check costs one test per walk step, shared by every
    # word that extends it.
    full = ((1 << n) - 1) << 1
    proven = History._proven

    def site(seen: int, bit: int) -> int:
        if bit & (bit - 1) or not bit & (full ^ seen):  # seen is a subset of full
            raise ArithmeticError(f"enumeration of length {n} flips {bit:#x} after {seen:#x}")
        return bit.bit_length() - 1

    @lru_cache(maxsize=_TAIL_MEMO)
    def tails(seen: int, rem: int, cap: int) -> tuple[tuple[int, ...], ...]:
        # keyed like `backtrack_count`'s walk: rem does not follow from seen
        if seen == full:
            return ((),)
        words: list[tuple[int, ...]] = []
        for bit, rem2, cap2 in _moves(seen, rem, cap, n, full):
            s = site(seen, bit)
            words += [(s, *tail) for tail in tails(seen | bit, rem2, cap2)]
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
            yield from proven(tuple(head), tails(seen, rem, cap))
            seen ^= bit
            head.pop()
        else:
            pending.pop()
            if head:
                seen ^= 1 << head.pop()


def backtrack_count(n: int, d: int) -> int:
    """Number of histories `enumerate_histories(n, d)` would yield.

    The same pruned search over `_moves`, counted instead of yielded: a
    walk returns 1 once every site is flipped and otherwise sums the
    walks after each kept flip.  Sub-walks from the same flipped set and
    credits are counted once.

    >>> backtrack_count(5, 1)
    88
    """
    _check_kinks(n, d)
    full = ((1 << n) - 1) << 1

    @cache
    def walk(seen: int, rem: int, cap: int) -> int:
        # cap follows from seen while rem > 0 and is 0 after, so the key
        # is (seen, rem); rem does not follow from seen, since a flip
        # that joins two blocks spends no credit
        if seen == full:
            return 1
        total = 0
        for bit, rem2, cap2 in _moves(seen, rem, cap, n, full):
            total += walk(seen | bit, rem2, cap2)
        return total

    return walk(0, d + 1, (n + 1) // 2)
