"""The counting routes, each named once, and the scopes the CLI bounds.

`ROUTES` holds every method that `kinks count`, `kinks table` and
`kinks verify` read.  An entry names its evaluator's module as a string
and takes it from `sys.modules` when it runs; the entry's first call
imports it, so a request loads only the routes it reads.  This module
imports `core` alone.
"""

from __future__ import annotations

import sys
from types import ModuleType
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .core import _column, _paired, max_kinks

ENV_BRUTE_CEILING = "KINKS_BRUTE_CEILING"

#: The most that the environment variable KINKS_BRUTE_CEILING may ask of
#: both oracle routes, so that no CLI request runs unbounded.  In a child
#: process (2-core VM, Python 3.11, peak RSS): the scan of n = 16 takes
#: 0.30 s (21 MiB) and of n = 17 0.58 s (26 MiB); the backtracking rows
#: of n = 15 and 16 take 0.11 s (17 MiB) and 0.20 s (20 MiB), and
#: `table --max-n 16 --method backtrack`, one memo for all its rows,
#: 0.26-0.40 s (20 MiB) with the interpreter's start (1.1 s, 2.2 s and
#: 3.0-3.7 s at 32, 60 and 105 MiB with a memo per count).  At 60 the
#: scan's table ran for 1 min 51 s and reached 1.08 GiB before it was
#: killed.
#: The library's `ceiling` argument is not bounded.
MAX_BRUTE_CEILING = 16

#: The scope of `run_verification` and of `kinks verify` when none is given.
VERIFY_DEFAULTS = {"max_n_brute": 9, "max_n_dp": 60, "t_order": 20, "v_order": 6}


def _module(name: str) -> ModuleType:
    # the module `name`, read from sys.modules; the first reader imports it
    if name not in sys.modules:
        __import__(name)
    return sys.modules[name]


class Route(NamedTuple):
    """One counting method: its name, the word verify's row details use for
    it, its rows and its domain.

    `rows(lengths, lo, top)` yields, for each n of the range `lengths`, the
    counts d = lo..min(top, max_kinks(n)): every evaluator cuts its own
    rows, so each entry is one call of it.  `table` and `verify` pair them
    with `lengths` in `core._paired` (`pairs`), and `count` reads entry d in
    `core._column`, as the library does.  The domain is n >= least_n,
    and n <= the brute ceiling if `bounded`, and d <= max_kinks(n) if `capped`."""

    name: str
    word: str
    rows: Callable[[range, int, int], Iterable[Sequence[int]]]
    least_n: int = 1
    bounded: bool = False
    capped: bool = False

    def covers(self, n: int, d: int, ceiling: int) -> bool:
        """Whether (n, d) lies in the domain under the brute ceiling."""
        return (
            n >= self.least_n
            and not (self.bounded and n > ceiling)
            and not (self.capped and d > max_kinks(n))
        )

    def domain(self, ceiling: int) -> str:
        """The domain in words, as the CLI's range errors print it."""
        parts = [f"n >= {self.least_n}"] if self.least_n > 1 else []
        parts += [f"n <= {ENV_BRUTE_CEILING} = {ceiling}"] if self.bounded else []
        parts += ["d <= (n - 1) // 2"] if self.capped else []
        return " and ".join(parts) or "every n and d"

    def pairs(self, lengths: range, lo: int, top: int) -> Iterator[tuple[int, tuple[int, ...]]]:
        """(n, row) for each n of `lengths`; too few or too many rows raise ArithmeticError."""
        return _paired(f"the {self.name} route", lengths, self.rows(lengths, lo, top))

    def count(self, n: int, d: int) -> int:
        """The count at (n, d), entry d of row n read by `core._column`."""
        [count] = _column(f"the {self.name} route", self.rows, range(n, n + 1), d)
        return count


#: Every method, named once.  Each entry looks its evaluator up in the
#: evaluator's own module when it runs, so rebinding it there reaches
#: `count`, `table` and `verify` alike.
ROUTES = {route.name: route for route in (
    Route(
        "brute",
        "scan",
        lambda lengths, lo, top: _module("kinks.oracle")._brute_rows(lengths, lo, top),
        bounded=True,
    ),
    Route(
        "backtrack",
        "backtracking",
        lambda lengths, lo, top: _module("kinks.oracle")._backtrack_rows(lengths, lo, top),
        bounded=True,
        capped=True,
    ),
    Route(
        "dp",
        "recurrence",
        lambda lengths, lo, top: _module("kinks.recurrence")._kink_rows(lengths, lo, top),
    ),
    Route(
        "gf",
        "series",
        lambda lengths, lo, top: _module("kinks.genfunc")._series_rows(lengths, lo, top),
        least_n=2,
    ),
    Route(
        "closed",
        "closed form",
        lambda lengths, lo, top: _module("kinks.genfunc")._closed_rows(lengths, lo, top),
    ),
)}
