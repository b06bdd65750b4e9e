"""Polynomial-time exact counting by the kink-marginal row recurrence.

Every history of length n + 1 arises from exactly one history of length n
by inserting the new largest site into the flip schedule.  In the
generating tree of labels (max_pos, kinks, max_first) that this builds
(`treedp`), a node (j, k, 0) has j children at k + 1 kinks, and over the
level the max_pos j of the max_first = 0 nodes with k kinks sums to
(n - 1 - 2k) c(n, k), so the kink marginals need no labels:

    c(n+1, k) = (2k + 2) c(n, k) + (n + 1 - 2k) c(n, k-1).

`dp_table` counts by that row recurrence with big integers, and the
label tree is the verify suite's reference for its rows.  This module
imports `core` alone, so a request that reads the recurrence compiles
no label tree.
"""

from __future__ import annotations

from typing import Iterator

from .core import CountTable, _paired, check_int, max_kinks

__all__ = ["dp_table"]


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
