"""A fixed CPU kernel that tells how fast the machine runs at the moment.

On a shared machine the same request can take 1.5 times longer from one
minute to the next, while the kernel below slows down with it: it does
the same kinds of work as the library (big-integer prefix sums, Fraction
sums, bit tests over permutations) in plain Python. The benchmark runs
it between requests, outside the timed calls, and scales each round's
latencies by REFERENCE_S over the kernel's mean time in that round. The
kernel is the benchmark's own code, so no change to the library moves it.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations
from time import perf_counter

#: Nominal seconds of one kernel call; scaled times read as if every
#: kernel call had taken exactly this long.
REFERENCE_S = 0.0006


def kernel() -> int:
    row = [1 << 500] * 48
    for _ in range(12):
        acc = 0
        for i in range(48):
            acc += row[i]
            row[i] = acc
    total = Fraction(0)
    for k in range(1, 40):
        total += Fraction(1, k)
    opened = 0
    for word in permutations(range(1, 7)):
        seen = 0
        for site in word:
            if not seen & (5 << (site - 1)):
                opened += 1
            seen |= 1 << site
    return opened + total.denominator % 7 + row[-1] % 7


def calibrate(budget_s: float) -> tuple[int, float]:
    """Run the kernel at least once and until budget_s has passed.

    Returns the number of calls and the seconds they took.
    """
    calls = 0
    start = perf_counter()
    while True:
        kernel()
        calls += 1
        elapsed = perf_counter() - start
        if elapsed >= budget_s:
            return calls, elapsed
