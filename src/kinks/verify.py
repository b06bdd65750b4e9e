"""Cross-validation suite tying all counting routes together.

Every route to the counts (exhaustive scan, pruned backtracking, level
recurrences, series expansion, explicit formulas) must agree with the
published reference rows and with each other; the suite also exercises
the structural identities (partition into kink classes, succession-rule
consistency, the label tree's marginals against the recurrence rows,
growth-estimate decay, exact series arithmetic).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import zip_longest
from math import factorial
from time import perf_counter

from . import genfunc
from .algebra import TruncPoly
from .core import check_int, max_kinks
from .genfunc import convergence_report, fixed_kinks_series, series_table
from .oracle import DEFAULT_BRUTE_CEILING, backtrack_count, brute_force_table
from .treedp import _label_levels, dp_table, tree_label_consistency

__all__ = ["GOLDEN_ROWS", "CheckResult", "run_verification"]

#: Reference counts by (n, d) for n = 2..10, the published table the
#: implementation must reproduce exactly.
GOLDEN_ROWS: dict[int, tuple[int, ...]] = {
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


class CheckResult:
    """One named verification outcome; detail holds the counterexample.

    `seconds` is the check's wall time and `traceback` the full trace of a
    check that crashed ("" otherwise).  Neither takes part in equality, the
    hash or the repr, which stay deterministic.  Results are immutable.
    """

    __slots__ = ("name", "passed", "detail", "seconds", "traceback")

    def __init__(self, name: str, passed: bool, detail="", seconds=0.0, traceback=""):
        for slot, value in zip(self.__slots__, (name, passed, detail, seconds, traceback)):
            object.__setattr__(self, slot, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __reduce__(self):
        return CheckResult, tuple(getattr(self, slot) for slot in self.__slots__)

    def _key(self) -> tuple[str, bool, str]:
        return self.name, self.passed, self.detail

    def __eq__(self, other):
        return self._key() == other._key() if type(other) is CheckResult else NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return "CheckResult(name={!r}, passed={!r}, detail={!r})".format(*self._key())


class _Unbuilt:
    """A shared table whose build has not succeeded; any read of it fails."""

    def __init__(self, table: str, check: str):
        self.missing = f"{table} is missing: {check} did not build it"

    def __getattr__(self, name):
        raise LookupError(self.missing)


def run_verification(
    *,
    max_n_brute: int = 9,
    max_n_dp: int = 60,
    t_order: int = 20,
    v_order: int = 6,
    brute_ceiling: int = DEFAULT_BRUTE_CEILING,
    golden_rows: dict[int, tuple[int, ...]] | None = None,
) -> list[CheckResult]:
    """Run every cross-check and return one result per named check.

    Scopes: the exhaustive scan and backtracking run to max_n_brute; the
    kink-marginal recurrence runs to max_n_dp, or as far as the scan if
    that is further, and the label tree whose marginals must equal its
    rows level by level (`tree_labels`) runs to max_n_dp, and so does the
    explicit formula (`closed_forms`) at every d; the
    series expansion runs to (t_order, v_order), its rows compared with the
    recurrence's up to max_n_dp (`series_partition`), and the integer
    identities behind it (`exact_algebra`) to v_order, with the root powers
    s^p at p = t_order - 1 and t_order.  `golden_rows` overrides the
    reference table (to prove the suite notices corruption).  A row
    comparison fails at its first differing entry, with the detail
    "{label} row {n} at d = {d}: {value}, {against} {expected}" (None for
    an entry that one row lacks).  `golden_dp` and `golden_brute` build
    the shared tables and are charged for them, so the seconds sum to the
    run; if a build fails, that check fails and so does every later reader
    of the table, with a detail that names it.
    """
    check_int(max_n_brute, 2, "max_n_brute")
    check_int(max_n_dp, 2, "max_n_dp")
    check_int(t_order, 2, "t_order")
    check_int(v_order, 0, "v_order")
    check_int(brute_ceiling, 1, "brute_ceiling")
    golden = GOLDEN_ROWS if golden_rows is None else golden_rows
    results: list[CheckResult] = []

    def run(name, func):
        start = perf_counter()
        try:
            detail = func()
        except Exception as exc:  # a crashed check is a failed check
            from traceback import format_exc  # imported by a crash only: start-up pays nothing

            passed, detail, trace = False, f"{type(exc).__name__}: {exc}", format_exc()
        else:
            passed, detail, trace = detail is None, detail or "", ""
        results.append(CheckResult(name, passed, detail, perf_counter() - start, trace))

    def differ(label, rows, against, reference):
        # the first entry of the (n, row) pairs that is not reference(n)'s,
        # None standing in for an entry that one of the two rows lacks
        for n, row in rows:
            for d, (value, expected) in enumerate(zip_longest(row, reference(n))):
                if value != expected:
                    return f"{label} row {n} at d = {d}: {value}, {against} {expected}"
        return None

    def golden_match(label, table, stop=None):
        # rows n = 2..10 against the reference, cut before d = stop for a truncated table
        rows = ((n, table.row(n)) for n in range(2, min(10, table.max_n) + 1))
        return differ(label, rows, "reference", lambda n: golden[n][:stop])

    def method_agreement():
        scanned = ((n, brute.row(n)) for n in range(2, brute.max_n + 1))
        walked = (
            (n, [backtrack_count(n, d) for d in range(max_kinks(n) + 1)])
            for n in range(2, min(brute.max_n, 9) + 1)
        )
        return differ("scan", scanned, "recurrence", dp.row) or differ(
            "backtracking", walked, "recurrence", dp.row
        )

    def partition_identity():
        for n in dp.lengths():
            total = sum(dp.row(n))
            if total != factorial(n):
                return f"row {n} sums to {total}, not {n}!"
        return None

    def series_partition():
        # every series row, cut or whole, against the recurrence's, summed to n! above
        rows = series_table(min(t_order, max_n_dp), v_order).rows.items()
        return differ("series", rows, "recurrence", lambda n: dp.row(n)[: v_order + 1])

    def rational_forms():
        top = min(20, max_n_dp)
        for d in range(4):
            seq = fixed_kinks_series(d, top)
            for n in range(2, top + 1):
                if seq[n - 2] != dp.count(n, d):
                    return f"rational form differs at (n={n}, d={d})"
        for n in range(1, max_n_dp + 1):
            if dp.count(n, 0) != 2 ** (n - 1):
                return f"kinkless count at n = {n} is not 2^(n-1)"
        return None

    def closed_forms():
        # whole rows of the formula, every d, as the closed table reads them
        rows = genfunc._closed_rows(range(1, max_n_dp + 1), 0, max_n_dp)
        return differ("closed form", enumerate(rows, 1), "recurrence", dp.row)

    def tree_labels():
        # the succession rule against direct labels, then the label tree
        # it generates against the recurrence rows
        report = tree_label_consistency(min(8, max_n_brute))
        if not report.ok:
            first = report.mismatches[0]
            return (
                f"word {first.word} at position {first.position}: "
                f"rule {first.expected}, direct {first.actual}"
            )
        return differ("label tree", enumerate(_label_levels(max_n_dp), 2), "recurrence", dp.row)

    def growth_estimate():
        convergence_report(0, min(30, max_n_dp), table=dp)
        # |c(n, 1) / 2^(2n-3) - 1| = 2n/2^n, multiplied through by 2^(2n-3)
        for n in range(2, min(40, max_n_dp) + 1):
            gap = abs(2 ** (2 * n - 3) - dp.count(n, 1))
            if gap != n * 2 ** (n - 2):
                return f"single-kink count at n = {n} is {gap} off 2^(2n-3), not n 2^(n-2)"
        # thresholds known to hold at n = 60: ~3.2e-9 (d=2), ~3.7e-6 (d=3)
        thresholds = {2: Fraction(1, 10**6), 3: Fraction(1, 10**5)}
        for d in (2, 3):
            if max_n_dp >= 4 * d + 5:
                convergence_report(
                    d,
                    max_n_dp,
                    table=dp,
                    threshold=thresholds[d] if max_n_dp >= 60 else None,
                )
        return None

    def exact_algebra():
        # the integer pieces of bivariate_series: the Catalan series C = 1 + w C^2
        # gives s = 1 - 2w C, which squares to 1 - 4w, and C^m s^p at
        # p = t_order - 1 and t_order has the series route's Lagrange form
        # [w^k] C^m s^p = [z^k] (1+z)^(m-p+2k-1) (1-z)^(p+1)
        one, w = TruncPoly.one(v_order), TruncPoly((0, 1), v_order)
        catalan = one
        for _ in range(v_order):  # each pass fixes one more coefficient
            catalan = one + w * catalan * catalan
        root = one - 2 * w * catalan
        if root * root != TruncPoly((1, -4), v_order):
            return f"s = 1 - 2w C(w) does not square to 1 - 4w at order {v_order}"
        roots = [one]
        for _ in range(t_order):
            roots.append(roots[-1] * root)
        power = catalan
        for m in range(1, 2 * v_order + 2, 2):
            for p in (t_order - 1, t_order):
                for k, x in enumerate((power * roots[p]).coeffs):
                    if x != genfunc._binomial_product(m - p + 2 * k - 1, p + 1, k)[k]:
                        return f"[w^{k}] C(w)^{m} s^{p} differs from its Lagrange form"
            power = power * catalan * catalan
        return None

    def golden_dp():
        nonlocal dp
        dp = dp_table(dp_top)
        return golden_match("recurrence", dp)

    def golden_brute():
        nonlocal brute
        brute = brute_force_table(scan, ceiling=brute_ceiling)
        return golden_match("scan", brute)

    # the shared tables are built by their first readers; until then, and
    # for good if a build fails, every read of one fails and names it
    scan = min(max_n_brute, brute_ceiling)
    dp_top = max(max_n_dp, scan)  # every scanned row has its recurrence row
    dp = _Unbuilt(f"dp_table({dp_top})", "golden_dp")
    brute = _Unbuilt(f"brute_force_table({scan})", "golden_brute")
    run("golden_dp", golden_dp)
    run("golden_brute", golden_brute)
    run(
        "golden_series",
        lambda: golden_match("series", series_table(min(10, t_order), v_order), v_order + 1),
    )
    run("method_agreement", method_agreement)
    run("partition_identity", partition_identity)
    run("series_partition", series_partition)
    run("rational_forms", rational_forms)
    run("closed_forms", closed_forms)
    run("tree_labels", tree_labels)
    run("growth_estimate", growth_estimate)
    run("exact_algebra", exact_algebra)
    return results

