"""Cross-validation suite tying all counting routes together.

Every route to the counts (exhaustive scan, pruned backtracking, level
recurrences, series expansion, explicit formulas) must agree with the
published reference rows and with each other; the suite also exercises
the structural identities (partition into kink classes, succession-rule
consistency, the label tree's marginals against the recurrence rows,
growth-estimate decay, exact series arithmetic).  Every route is read
through its one entry of `routes.ROUTES`, as `kinks count` and `kinks
table` do.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import zip_longest
from math import factorial
from time import perf_counter
from typing import NamedTuple

from .algebra import TruncPoly
from .core import CountTable, _paired, check_int, max_kinks
from .genfunc import convergence_report, fixed_kinks_series
from .routes import ROUTES, VERIFY_DEFAULTS, VERIFY_LEAST
from .treedp import tree_label_consistency
# after the lines that load them: `from . import` asks the package first,
# and a name it lacks loads the package's whole surface
from . import genfunc, treedp

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


class CheckResult(NamedTuple):
    """One named verification outcome; detail holds the counterexample.

    `seconds` is the check's wall time and `traceback` the full trace of a
    check that crashed ("" otherwise).  Neither takes part in equality, the
    hash or the repr, which stay deterministic.
    """

    name: str
    passed: bool
    detail: str = ""
    seconds: float = 0.0
    traceback: str = ""

    def __eq__(self, other):
        return self[:3] == other[:3] if type(other) is CheckResult else NotImplemented

    def __ne__(self, other):  # tuple's own != reads all five fields
        return self[:3] != other[:3] if type(other) is CheckResult else NotImplemented

    def __hash__(self):
        return hash(self[:3])

    def __repr__(self):
        return "CheckResult(name={!r}, passed={!r}, detail={!r})".format(*self[:3])


def run_verification(
    *,
    max_n_brute: int = VERIFY_DEFAULTS["max_n_brute"],
    max_n_dp: int = VERIFY_DEFAULTS["max_n_dp"],
    t_order: int = VERIFY_DEFAULTS["t_order"],
    v_order: int = VERIFY_DEFAULTS["v_order"],
    golden_rows: dict[int, tuple[int, ...]] | None = None,
) -> list[CheckResult]:
    """Run every cross-check and return one result per named check, in the
    order of `checks` below.

    `golden_rows` overrides the reference table (to prove the suite
    notices corruption).  A row comparison fails at its first differing
    entry, with the detail "{word} row {n} at d = {d}: {value}, {against}
    {expected}" (None for an entry that one row lacks).  Each route's rows
    are one table of whole rows at its scope in `scopes`, the scan's and
    the backtracking's n = 2..max_n_brute unclipped, built once and charged
    to its first reader, so the seconds sum to the run; if a build fails,
    that check fails and so does every later reader.  `v_order` scopes
    `exact_algebra` alone.
    """
    check_int(max_n_brute, VERIFY_LEAST["max_n_brute"], "max_n_brute")
    check_int(max_n_dp, VERIFY_LEAST["max_n_dp"], "max_n_dp")
    check_int(t_order, VERIFY_LEAST["t_order"], "t_order")
    check_int(v_order, VERIFY_LEAST["v_order"], "v_order")
    golden = GOLDEN_ROWS if golden_rows is None else golden_rows

    # the lengths each route's checks read, every row whole
    scopes = {
        "brute": range(2, max_n_brute + 1),
        "backtrack": range(2, max_n_brute + 1),
        "dp": range(1, max(max_n_dp, max_n_brute) + 1),  # every scanned row has its recurrence row
        "gf": range(2, min(t_order, max(10, max_n_dp)) + 1),  # golden_series reads to 10
        "closed": range(1, max_n_dp + 1),
    }
    tables: dict[str, CountTable | str] = {}  # each table, or why it is missing

    def route_table(method):
        # built by its first reader; if the build fails, every later read
        # fails too, with a detail that names the route and its scope
        if method not in tables:
            lengths = scopes[method]
            top = max_kinks(lengths.stop - 1)
            scope = f"n = {lengths.start}..{lengths.stop - 1}, d <= {top}"
            tables[method] = f"{method} table {scope} is missing: {reader} did not build it"
            tables[method] = CountTable(dict(ROUTES[method].pairs(lengths, 0, top)))
        if isinstance(tables[method], str):
            raise LookupError(tables[method])
        return tables[method]

    def differ(label, rows, against, reference):
        # the first entry of the (n, row) pairs that is not reference(n)'s,
        # None standing in for an entry that one of the two rows lacks;
        # each row is compared whole with its reference, read once, and
        # its entries are scanned only if the two differ
        for n, row in rows:
            ref = reference(n)
            if row == ref:
                continue
            for d, (value, expected) in enumerate(zip_longest(row, ref)):
                if value != expected:
                    return f"{label} row {n} at d = {d}: {value}, {against} {expected}"
        return None

    def agree(method, against, reference, within=None):
        # the route's rows, of the n in `within` alone if given, against reference(n)
        rows = route_table(method).rows.items()
        rows = ((n, row) for n, row in rows if within is None or n in within)
        return differ(ROUTES[method].word, rows, against, reference)

    def recurrence(n):
        return route_table("dp").row(n)

    def partition_identity():
        dp = route_table("dp")
        for n in dp.lengths():
            total = sum(dp.row(n))
            if total != factorial(n):
                return f"row {n} sums to {total}, not {n}!"
        return None

    def rational_forms():
        dp, top = route_table("dp"), min(20, max_n_dp)
        for d in range(4):
            seq = fixed_kinks_series(d, top)
            for n in range(2, top + 1):
                if seq[n - 2] != dp.count(n, d):
                    return f"rational form differs at (n={n}, d={d})"
        for n in range(1, max_n_dp + 1):
            if dp.count(n, 0) != 2 ** (n - 1):
                return f"kinkless count at n = {n} is not 2^(n-1)"
        return None

    def tree_labels():
        # the succession rule against direct labels, then the label tree
        # it generates against the recurrence rows
        report = tree_label_consistency(max(3, min(8, max_n_brute)))  # level 2 at least
        if not report.ok:
            first = report.mismatches[0]
            return (
                f"word {first.word} at position {first.position}: "
                f"rule {first.expected}, direct {first.actual}"
            )
        walk = _paired("the label walk", range(2, max_n_dp + 1), treedp._label_levels(max_n_dp))
        return differ("label tree", walk, "recurrence", recurrence)

    def growth_estimate():
        dp = route_table("dp")
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

    published = range(2, 11)
    checks = {  # run in this order; each returns None or the first mismatch
        "golden_dp": lambda: agree("dp", "reference", golden.__getitem__, published),
        "golden_brute": lambda: agree("brute", "reference", golden.__getitem__, published),
        "golden_series": lambda: agree("gf", "reference", golden.__getitem__, published),
        "method_agreement": lambda: (
            agree("brute", "recurrence", recurrence) or agree("backtrack", "recurrence", recurrence)
        ),
        "partition_identity": partition_identity,
        "series_partition": lambda: agree(
            "gf", "recurrence", recurrence, range(2, min(t_order, max_n_dp) + 1)
        ),
        "rational_forms": rational_forms,
        "closed_forms": lambda: agree("closed", "recurrence", recurrence),
        "tree_labels": tree_labels,
        "growth_estimate": growth_estimate,
        "exact_algebra": exact_algebra,
    }
    results = []
    for reader, check in checks.items():  # route_table names the running check
        start = perf_counter()
        try:
            detail = check()
        except Exception as exc:  # a crashed check is a failed check
            from traceback import format_exc  # imported by a crash only: start-up pays nothing

            passed, detail, trace = False, f"{type(exc).__name__}: {exc}", format_exc()
        else:
            passed, detail, trace = detail is None, detail or "", ""
        results.append(CheckResult(reader, passed, detail, perf_counter() - start, trace))
    return results
