"""Counting through the closed-form generating functions.

The bivariate generating function of the counts (v marks kinks, t marks
chain length) has a closed form as a sum of algebraic terms indexed by
j >= 0, each carrying a v^j prefactor.  Every denominator in it is a
power of 2, so the substitution v = 4w turns each term into integer
series (Catalan series for sqrt(1-4w) and its reciprocals), and the
count table is read off with plain int arithmetic: no Fraction and no
series inverse, and `series_count` extracts a single count in O(d^2)
operations at any n.  Fixing the kink number gives a rational function of t
for every d, derived here from that series, with explicit formulas for
d <= 3, and the counts grow like 2^(n-2d-1) (d+1)^n, which this module
also evaluates and checks.  Every count is computed in plain ints;
Fraction remains only in the growth estimate, whose value is rational.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .algebra import TruncPoly, TSeries
from .core import CountTable, max_kinks
from .treedp import dp_table

__all__ = [
    "CoefficientError",
    "bivariate_series",
    "series_table",
    "series_count",
    "fixed_kinks_series",
    "closed_form",
    "asymptotic_estimate",
    "convergence_report",
    "ConvergenceRow",
]


class CoefficientError(ArithmeticError):
    """An extracted coefficient failed to be a nonnegative integer.

    Count extraction is an internal consistency gate.  The series route
    works over the integers in w = v/4, so each coefficient of t^n w^d
    must be 4^d times a nonnegative count; the d = 2, 3 formulas are
    integer numerators over 32 and 384 that must divide exactly, and the
    fixed-d rational forms must fit their denominators.
    """


def _exact_count(numer: int, denom: int, where: str) -> int:
    count, rest = divmod(numer, denom)
    if rest or count < 0:
        raise CoefficientError(f"{where} is {numer}, not {denom} times a count")
    return count


def _catalan_power(m: int, order: int) -> list[int]:
    # [w^k] C(w)^m = m/(2k+m) binom(2k+m, k) for k = 0..order, m >= 1
    return [m * comb(2 * k + m, k) // (2 * k + m) for k in range(order + 1)]


def _pair_coefficients(j: int, top: int) -> list[int]:
    # c_m = [x^m] 1/((1 - 2j x)^2 (1 - 2(j+1) x)^2) for m = 0..top, which is
    # sum_i (i+1)(m-i+1) (2j)^i (2j+2)^(m-i).  The denominator is
    # (1 - e x + f x^2)^2 with e = 4j+2, f = 4j(j+1), so the c_m obey
    # c_m = 2e c_(m-1) - (e^2+2f) c_(m-2) + 2ef c_(m-3) - f^2 c_(m-4).
    e, f = 4 * j + 2, 4 * j * (j + 1)
    steps = (2 * e, -(e * e + 2 * f), 2 * e * f, -f * f)
    c = [1]
    for m in range(1, top + 1):
        c.append(sum(q * c[m - i] for i, q in enumerate(steps, 1) if i <= m))
    return c


def _pair_coefficient(j: int, m: int) -> int:
    # c_m of _pair_coefficients in partial fractions, with a = 2j, b = 2j+2:
    # c_m = ((m+1)(b^(m+2) + a^(m+2)) - ab(b^(m+1) - a^(m+1))) / 4, exact, and 0 at m = -1
    a, b = 2 * j, 2 * j + 2
    return ((m + 1) * (b ** (m + 2) + a ** (m + 2)) - a * b * (b ** (m + 1) - a ** (m + 1))) // 4


def _root_power(m: int, order: int) -> list[int]:
    # [w^k] s^m = [w^k] (1 - 4w)^(m/2) for k = 0..order; each division is exact
    e = [1]
    for k in range(order):
        e.append(-2 * (m - 2 * k) * e[k] // (k + 1))
    return e


def bivariate_series(t_order: int, v_order: int) -> TSeries:
    """Expansion of the closed-form count series to the given orders.

    The closed form is a sum over j >= 0 of

        4 t^2 s (1 - (1+2j) s t - t (1-v)) v^j
        / ((1+s)^(1+2j) (1 - 2j s t)^2 (1 - 2(j+1) s t)^2),   s = sqrt(1-v).

    It is expanded in w = v/4, where every piece is an integer series:
    s = sqrt(1-4w) = 1 - 2 sum_k Cat(k-1) w^k, and (1+s)/2 = 1/C(w) for
    the Catalan series C, so the prefactor 4 v^j / (1+s)^(1+2j) becomes
    2 w^j C^(1+2j), with [w^k] C^m = m/(2k+m) binom(2k+m, k).  The squared
    t-factors expand as sum_m c_m s^m t^m with integer c_m, and s^2 = 1-4w
    folds the (1-v) factor into one more power of s, so

        [t^n] term_j = 2 w^j C^(1+2j) (a s^(n-1) - b s^n),
        a = c_(n-2) - (1+2j) c_(n-3),   b = c_(n-3).

    Terms with j > v_order vanish under the truncation because of their
    w^j factor, so the sum stops at j = v_order.  The counts come back as
    [t^n v^d] = [t^n w^d] / 4^d; a nonzero remainder or a negative value
    raises CoefficientError.  Every coefficient of the result is an int.
    """
    if t_order < 2:
        raise ValueError("the series starts at t^2; need t_order >= 2")
    if v_order < 0:
        raise ValueError("v_order must be nonnegative")
    d_top = v_order
    root = TruncPoly([1] + [-2 * x for x in _catalan_power(1, d_top - 1)], d_top)
    pairs = [_pair_coefficients(j, t_order - 2) for j in range(d_top + 1)]
    prefactors = [_catalan_power(1 + 2 * j, d_top - j) for j in range(d_top + 1)]
    rows = [TruncPoly.zero(d_top)] * 2
    power = TruncPoly.one(d_top)  # s^(n-1)
    for n in range(2, t_order + 1):
        power = power * root
        # weight the prefactors by a and b first, so that each row takes
        # two products in w instead of two per j
        lead = [0] * (d_top + 1)
        tail = [0] * (d_top + 1)
        for j, (c, pre) in enumerate(zip(pairs, prefactors)):
            b = c[n - 3] if n >= 3 else 0
            a = c[n - 2] - (1 + 2 * j) * b
            for k, p in enumerate(pre, j):
                lead[k] += a * p
                tail[k] += b * p
        rows.append((TruncPoly(lead, d_top) - TruncPoly(tail, d_top) * root) * power * 2)
    counts = []
    for n, poly in enumerate(rows):
        row = [
            _exact_count(x, 4**d, f"coefficient of t^{n} w^{d}")
            for d, x in enumerate(poly.coeffs)
        ]
        counts.append(TruncPoly(row, d_top))
    return TSeries(counts, t_order, d_top)


def series_table(t_order: int, v_order: int) -> CountTable:
    """Count table read off the expanded closed-form series.

    Rows cover n = 2..t_order; each row stores d up to
    min(v_order, max_kinks(n)), so rows are complete whenever v_order
    reaches max_kinks(n).  bivariate_series has already checked every
    coefficient to be a nonnegative integer.

    >>> series_table(4, 1).row(4)
    (8, 16)
    """
    series = bivariate_series(t_order, v_order)
    return CountTable(
        {
            n: series.coefficient(n).coeffs[: min(v_order, max_kinks(n)) + 1]
            for n in range(2, t_order + 1)
        }
    )


def series_count(n: int, d: int) -> int:
    """One count of the closed-form series, extracted directly.

    By the identity in `bivariate_series`, [t^n w^d] is the sum over
    j <= d of 2 [w^(d-j)] C^(1+2j) (a_j s^(n-1) - b_j s^n).  The small
    products [w^(d-j)] C^(1+2j) s^m are taken first and weighted by the
    big a_j, b_j after, so the cost is O(d^2) operations at any n; the
    result must be 4^d times a nonnegative count, else CoefficientError.

    >>> series_count(10, 3)
    1841152
    """
    if n < 2:
        raise ValueError("the series starts at t^2; need n >= 2")
    if d < 0:
        raise ValueError("kink count cannot be negative")
    lead, tail = _root_power(n - 1, d), _root_power(n, d)
    total = 0
    for j in range(d + 1):
        pre = _catalan_power(1 + 2 * j, d - j)
        b = _pair_coefficient(j, n - 3)
        a = _pair_coefficient(j, n - 2) - (1 + 2 * j) * b
        total += a * sum(p * lead[d - j - k] for k, p in enumerate(pre))
        total -= b * sum(p * tail[d - j - k] for k, p in enumerate(pre))
    return _exact_count(2 * total, 4**d, f"coefficient of t^{n} w^{d}")


def fixed_kinks_series(d: int, n_max: int) -> tuple[int, ...]:
    """Counts at fixed kink number d for n = 2..n_max, from the rational form.

    Column d of the counts has a rational generating function in t with
    denominator Q = prod_(i=1..d+1) (1 - 2i t)^(d+2-i), of degree
    D = (d+1)(d+2)/2.  The numerator is Q times the column of
    `series_table`, cut at t^E with E = max(D, 2) (the t^2 term carries
    d = 0); the product must vanish on t^(E+1)..t^(E+D), else
    CoefficientError.  The counts then follow from the order-D integer
    recurrence.  The entry at index i is the count for n = i + 2.

    >>> fixed_kinks_series(1, 5)
    (0, 2, 16, 88)
    >>> fixed_kinks_series(4, 11)[-2:]
    (353792, 9061376)
    """
    if d < 0:
        raise ValueError("kink count cannot be negative")
    if n_max < 2:
        raise ValueError("the series starts at n = 2")
    denom = [1]
    for i in range(1, d + 2):
        for _ in range(d + 2 - i):
            denom = [a - 2 * i * b for a, b in zip(denom + [0], [0] + denom)]
    top = max(len(denom) - 1, 2)
    table = series_table(top + len(denom) - 1, d)
    column = [0, 0] + [table.count(n, d) for n in range(2, table.max_n + 1)]
    numer = [
        sum(q * column[n - i] for i, q in enumerate(denom[: n + 1])) for n in range(len(column))
    ]
    if any(numer[top + 1 :]):
        raise CoefficientError(f"column d = {d} of the series does not fit its denominator")
    numer = numer[: top + 1] + [0] * (n_max - top)
    counts: list[int] = []
    for n in range(n_max + 1):
        recur = sum(q * counts[n - i] for i, q in enumerate(denom[1 : n + 1], 1))
        counts.append(numer[n] - recur)
    if min(counts) < 0:
        raise CoefficientError(f"the rational form gives a negative count at d = {d}")
    return tuple(counts[2:])


def closed_form(n: int, d: int) -> int:
    """Exact count from the explicit formulas, valid for d = 0..3.

    Below n = 2d + 1 there is no room for d extra blocks and the count is
    zero.  The d = 2, 3 formulas are evaluated as one integer numerator
    over 32 and 384; exact divisibility is checked before returning.

    >>> closed_form(5, 1)
    88
    """
    if n < 1:
        raise ValueError(f"chain length must be at least 1, got {n}")
    if d < 0 or d > 3:
        raise ValueError(f"closed forms cover d = 0..3, got {d}")
    if d == 0:
        return 2 ** (n - 1)
    if n < 2 * d + 1:
        return 0
    if d == 1:
        return 2 ** (n - 2) * (2 ** (n - 1) - n)
    if d == 2:
        return _exact_count(
            6**n - 2 * (n - 1) * 4**n + (2 * n * n - 4 * n - 1) * 2**n,
            32,
            f"closed form at n={n}, d={d}",
        )
    return _exact_count(
        3 * 8**n
        - 6 * (n - 2) * 6**n
        + 6 * (n * n - 4 * n + 2) * 4**n
        - 2 * (2 * n**3 - 12 * n * n + 13 * n + 6) * 2**n,
        384,
        f"closed form at n={n}, d={d}",
    )


def asymptotic_estimate(n: int, d: int) -> Fraction:
    """Leading-order growth 2^(n-2d-1) (d+1)^n, as an exact rational.

    The power of two is fractional when n < 2d + 1; the value is exact
    (not rounded) so deviations from true counts can be compared without
    floating-point tolerances.  At d = 0 the estimate equals the count.
    """
    if n < 1:
        raise ValueError(f"chain length must be at least 1, got {n}")
    if d < 0:
        raise ValueError("kink count cannot be negative")
    return Fraction(2) ** (n - 2 * d - 1) * (d + 1) ** n


@dataclass(frozen=True)
class ConvergenceRow:
    """Exact count against its growth estimate at one chain length."""

    n: int
    exact: int
    estimate: Fraction
    deviation: Fraction  # |exact / estimate - 1|


def convergence_report(
    d: int,
    n_max: int,
    *,
    threshold: Fraction | None = None,
    table: CountTable | None = None,
) -> tuple[ConvergenceRow, ...]:
    """Tabulate |count/estimate - 1| for n up to n_max, checking its decay.

    Rows start at the first nonzero count (n = 2d + 1, or n = 1 at d = 0).
    Once n clears the pre-asymptotic window (n >= 4d + 4) the deviation
    must shrink strictly at every step, except at d = 0 where it is
    identically zero; when a threshold is supplied, the final deviation
    must not exceed it.  Violations raise ValueError.  `table` supplies
    precomputed exact counts, else they come from the level recurrences.
    """
    if d < 0:
        raise ValueError("kink count cannot be negative")
    start = 2 * d + 1 if d else 1
    if n_max < start:
        raise ValueError(f"no nonzero counts below n = {start}")
    if table is None:
        table = dp_table(n_max)
    rows = []
    for n in range(start, n_max + 1):
        exact = table.count(n, d)
        estimate = asymptotic_estimate(n, d)
        rows.append(ConvergenceRow(n, exact, estimate, abs(Fraction(exact) / estimate - 1)))
    if d == 0:
        off = next((r for r in rows if r.deviation != 0), None)
        if off is not None:
            raise ValueError(f"estimate is not exact at d = 0, n = {off.n}")
    else:
        window = [r for r in rows if r.n >= 4 * d + 4]
        for prev, cur in zip(window, window[1:]):
            if not cur.deviation < prev.deviation:
                raise ValueError(f"deviation fails to shrink at n = {cur.n} for d = {d}")
    if threshold is not None and rows[-1].deviation > threshold:
        raise ValueError(
            f"deviation {float(rows[-1].deviation):.3e} at n = {n_max} "
            f"exceeds the threshold for d = {d}"
        )
    return tuple(rows)
