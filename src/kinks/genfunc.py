"""Counting through the closed-form generating functions.

The bivariate generating function of the counts (v marks kinks, t marks
chain length) has a closed form as a sum of algebraic terms indexed by
j >= 0, each carrying a v^j prefactor.  Every denominator in it is a
power of 2, so the substitution v = 4w turns each term into integer
series (Catalan series for sqrt(1-4w) and its reciprocals).  One
generator, `_series_rows`, reads the coefficients of t^n w^k off that
identity, through one binomial product per entry after Lagrange
inversion at w = z/(1+z)^2, in plain ints, gates each as 4^k times a
count and, like every evaluator, cuts row n at max_kinks(n):
`bivariate_series` and `series_table` take whole rows, O(D^2) operations
per row at v-order D, and `series_count` one entry, O(d) operations at
any n.  Fixing the kink number gives a rational function of t for every
d, derived here from that series, one explicit formula gives every count
as a sum of d + 1 powers i^n with polynomial weights (`closed_form`),
and the counts grow like 2^(n-2d-1) (d+1)^n, the formula's top term,
which this module also evaluates and checks.  Every count is computed
in plain ints; Fraction remains only in the growth estimate and its
deviations, whose values are rational.
"""

from __future__ import annotations

from operator import mul
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple

from .core import CountTable, _column, _paired, check_int, max_kinks

if TYPE_CHECKING:  # for the annotations: each is imported where one is built, by no count
    from fractions import Fraction

    from .algebra import TSeries

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
    must be 4^d times a nonnegative count; the power sum of the
    explicit formula must be 2^d times a nonnegative integer, and the
    fixed-d rational forms must fit their denominators.
    """


def _exact_count(numer: int, denom: int, where: str, *at: int) -> int:
    # `where` is formatted with `at` only on failure, not once per count
    count, rest = divmod(numer, denom)
    if rest or count < 0:
        raise CoefficientError(f"{where.format(*at)} is {numer}, not {denom} times a count")
    return count


def _powers(e: int, top: int) -> list[int]:
    # i^e for i = 0..top, e >= 1, the even ones as shifts (2i)^e = i^e << e
    p = [0, 1]
    for i in range(2, top + 1):
        p.append(p[i // 2] << e if i % 2 == 0 else i**e)
    return p


def _binomial_product(a: int, b: int, top: int) -> list[int]:
    # [z^k] (1+z)^a (1-z)^b for k = 0..top, a or b negative too: with f that product,
    # (1-z^2) f' = ((a-b) - (a+b) z) f, which makes each division below exact
    e = [1, a - b]
    for k in range(1, top):
        e.append(((a - b) * e[k] + (k - 1 - a - b) * e[k - 1]) // (k + 1))
    return e[: top + 1]


def _series_weights(n: int, q: list[int]) -> list[int]:
    # u_j = (a_j - b~_j) / 2^(n-3) for j = 0..len(q) - 2, row n's weights
    # (bivariate_series): with q_i = i^(n-1), 4 a_j / 2^(n-1) = n (q_(j+1) - q_j)
    # and 4 b_j / 2^(n-1) = (n-2-2j) q_(j+1) + (n+2j) q_j
    u, b, tilde = [], 0, 0
    for j in range(len(q) - 1):
        last, b = b, (n - 2 - 2 * j) * q[j + 1] + (n + 2 * j) * q[j]
        tilde = b - last - tilde
        u.append(n * (q[j + 1] - q[j]) - tilde)
    return u


def _series_rows(lengths: Iterable[int], lo: int, top: int) -> Iterator[list[int]]:
    # [t^n v^k] = [t^n w^k] / 4^k for k = lo..min(top, max_kinks(n)), n in lengths, with
    # [t^n w^k] = 2^(n-2) sum_j u_j [z^(k-j)] (1+z)^(2k-n+1) (1-z)^n (bivariate_series);
    # u once per row, then one dot product per entry, each through the 4^k gate.
    # In _series_weights' units U = A - B (1-z)/(1+z), with A = sum_j n (q_(j+1) -
    # q_j) z^j and B = sum_j b_j z^j, so [z^j] (1+z) U for j >= 1 is
    # n (q_(j+1) - q_(j-1)) - (n-2-2j) q_(j+1) - 4j q_j + (n+2j-2) q_(j-1)
    # = 2 ((j+1) q_(j+1) - 2j q_j + (j-1) q_(j-1)), the n's cancelling, and at
    # j = 0 it is 2 q_1 - 2n q_0 = 2 q_1, as q_0 = 0^(n-1) = 0 for n >= 2.  So
    # (1+z) U = 2 (1-z)^2 Q' with Q = sum_i q_i z^i, and since i q_i = i^n the
    # entry is 2^(n-1) sum_i i^n [z^(k+1-i)] (1+z)^(2k-n) (1-z)^(n+2): 4^k times
    # closed_form's power sum at every (n, k), which is 0 above max_kinks(n)
    for n in lengths:
        cut = min(top, max_kinks(n))
        u = _series_weights(n, _powers(n - 1, cut + 1)) if lo <= cut else []
        row = []
        for k in range(lo, cut + 1):
            numer = sum(map(mul, u, reversed(_binomial_product(2 * k - n + 1, n, k)))) << (n - 2)
            row.append(_exact_count(numer, 4**k, "coefficient of t^{} w^{}", n, k))
        yield row


def _whole_rows(label: str, t_order: int, v_order: int) -> Iterator[tuple[int, tuple[int, ...]]]:
    # (n, row) for n = 2..t_order, d = 0..min(v_order, max_kinks(n)): the series starts at t^2
    check_int(t_order, 2, "t_order")
    check_int(v_order, 0, "v_order")
    lengths = range(2, t_order + 1)
    return _paired(label, lengths, _series_rows(lengths, 0, v_order))


def bivariate_series(t_order: int, v_order: int) -> TSeries:
    """Expansion of the closed-form count series to the given orders.

    The closed form is a sum over j >= 0 of

        4 t^2 s (1 - (1+2j) s t - t (1-v)) v^j
        / ((1+s)^(1+2j) (1 - 2j s t)^2 (1 - 2(j+1) s t)^2),   s = sqrt(1-v).

    In w = v/4 every piece is an integer series: (1+s)/2 = 1/C(w) for the
    Catalan series C, so 4 v^j / (1+s)^(1+2j) becomes 2 w^j C^(1+2j).  The
    squared t-factors expand as sum_m c_m s^m t^m, where
    4 c_m = (m+1-2j) (2j+2)^(m+2) + (m+3+2j) (2j)^(m+2), and s^2 = 1-4w
    folds the (1-v) factor into one more power of s:

        [t^n] term_j = 2 w^j C^(1+2j) (a_j s^(n-1) - b_j s^n),
        a_j = c_(n-2) - (1+2j) c_(n-3),   b_j = c_(n-3).

    At w = z/(1+z)^2, C = 1+z and s = (1-z)/(1+z), and Lagrange inversion
    gives [w^k] C^m s^p = [z^k] (1+z)^(m-p+2k-1) (1-z)^(p+1).  At m = 1+2j,
    k = d-j every j <= d then reads from one polynomial:

        [t^n w^d] = 2 sum_(j=0..d) (a_j - b~_j) [z^(d-j)] (1+z)^(2d-n+1) (1-z)^n,

    where b~_j = b_j - b_(j-1) - b~_(j-1), the coefficients of
    B (1-z)/(1+z), absorb the extra factor of s^n.  A row builds these
    weights once from the powers i^(n-1); each entry then costs a
    three-term recurrence and one dot product, O(v_order^2) operations per
    row.  The counts are [t^n w^d] / 4^d; a nonzero remainder or a
    negative value raises CoefficientError.  The rows end at max_kinks(n),
    above which the sum vanishes.  Every coefficient is an int.
    """
    from .algebra import TruncPoly, TSeries

    rows = _whole_rows("bivariate_series", t_order, v_order)
    counts = [TruncPoly.zero(v_order)] * 2 + [TruncPoly(row, v_order) for _, row in rows]
    return TSeries(counts, t_order, v_order)


def series_table(t_order: int, v_order: int) -> CountTable:
    """Count table read off the expanded closed-form series.

    Rows cover n = 2..t_order; each row stores d up to
    min(v_order, max_kinks(n)), so rows are complete whenever v_order
    reaches max_kinks(n).  The rows are those of `bivariate_series`, kept
    as the generator cuts them, each entry gated as 4^d times a
    nonnegative count.

    >>> series_table(4, 1).row(4)
    (8, 16)
    """
    return CountTable(dict(_whole_rows("series_table", t_order, v_order)))


def series_count(n: int, d: int) -> int:
    """One count of the closed-form series, extracted directly.

    The entry d of row n of the generator behind `bivariate_series`: the
    powers i^(n-1) for i <= d + 1, the weights for j <= d, the binomial
    product to z^d and one dot product, so the cost is O(d) operations at
    any n.  The result must be 4^d times a nonnegative count, else
    CoefficientError.  Above max_kinks(n) the row is empty: the count is 0.

    >>> series_count(10, 3)
    1841152
    """
    check_int(n, 2, "n")  # the series starts at t^2
    check_int(d, 0, "d")
    [count] = _column("series_count", _series_rows, range(n, n + 1), d)
    return count


def fixed_kinks_series(d: int, n_max: int) -> tuple[int, ...]:
    """Counts at fixed kink number d for n = 2..n_max, from the rational form.

    Column d of the counts has a rational generating function in t with
    denominator Q = prod_(i=1..d+1) (1 - 2i t)^(d+2-i), of degree
    D = (d+1)(d+2)/2.  The numerator is Q times column d of the series,
    read alone off the generator behind `series_table` to t^(E+D) with
    E = max(D, 2) (the t^2 term carries d = 0); the product must vanish
    on t^(E+1)..t^(E+D), else CoefficientError.  The counts then follow
    from the order-D integer recurrence.  The entry at index i is the
    count for n = i + 2.

    >>> fixed_kinks_series(1, 5)
    (0, 2, 16, 88)
    >>> fixed_kinks_series(4, 11)[-2:]
    (353792, 9061376)
    """
    check_int(d, 0, "d")
    check_int(n_max, 2, "n_max")
    denom = [1]
    for i in range(1, d + 2):
        for _ in range(d + 2 - i):
            denom = [a - 2 * i * b for a, b in zip(denom + [0], [0] + denom)]
    top = max(len(denom) - 1, 2)
    column = [0, 0, *_column("fixed_kinks_series", _series_rows, range(2, top + len(denom)), d)]
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


def _closed_rows(lengths: Iterable[int], lo: int, top: int) -> Iterator[tuple[int, ...]]:
    # count(n, k) for k = lo..cut, cut = min(top, max_kinks(n)), and each n in
    # lengths, by closed_form's sum.  A row builds the powers i^n, i >= 1, and
    # one binomial product, the weights [x^j] (1-x)^(n+2) (1+x)^(2k-n) at
    # k = cut; each lower k's weights are those of k + 1 divided by (1+x)^2,
    # cut at x^k, in place: f_j = e_j - 2 f_(j-1) - f_(j-2), no big products.
    # The sums run down from the top, one dot product each, and are gated
    # up from lo, so a row fails at its lowest bad entry.  A single entry
    # costs one product and one sum; a row with lo > cut computes nothing
    for n in lengths:
        cut = min(top, max_kinks(n))
        if lo > cut:
            yield ()
            continue
        powers = _powers(n, cut + 1)[1:]
        e = _binomial_product(2 * cut - n, n + 2, cut)
        sums = [sum(map(mul, reversed(e), powers))]
        for k in range(cut - 1, lo - 1, -1):
            f, g = 0, 1  # f_(j-2) and f_(j-1), from f_(-1) = 0 and f_0 = e_0 = 1
            for j in range(1, k + 1):
                f, g = g, e[j] - 2 * g - f
                e[j] = g
            del e[k + 1 :]
            sums.append(sum(map(mul, reversed(e), powers)))
        yield tuple(
            _exact_count(total, 2**k, "power sum at n={}, d={}", n, k) << (n - 1 - k)
            for k, total in zip(range(lo, cut + 1), reversed(sums))
        )


def closed_form(n: int, d: int) -> int:
    """Exact count from one explicit formula, valid at every (n, d).

    The counts are the interior-peak numbers (OEIS A008303).  Stembridge's
    identity A_n(t) = ((1+t)/2)^(n-1) W_n(4t/(1+t)^2) ties the Eulerian
    polynomial A_n(t) = sum_m A(n, m) t^m to W_n(x) = sum_d count(n, d) x^d,
    and Lagrange inversion at t = w (1+t)^2 reads count(n, d) off it as
    2^(n-1-2d) sum_(m=0..d) A(n, m) [t^(d-m)] (1-t)(1+t)^(2d-n).  Writing
    A(n, m) = sum_j (-1)^j C(n+1, j) (m+1-j)^n and collecting the powers
    i = m+1-j folds the alternating binomials into the weights:

        count(n, d) = 2^(n-1-2d) sum_(i=1..d+1) e_(d+1-i) i^n,
        e_k = [x^k] (1-x)^(n+2) (1+x)^(2d-n),

    where e_0 = 1, e_1 = 2d-2n-2 and (k+1) e_(k+1) = e_1 e_k + (k-3-2d) e_(k-1),
    each division exact.  The sum equals the Eulerian one, a gamma
    coefficient of A_n(t), which is 2^d times a nonnegative integer
    (Foata-Strehl), so it must divide by 2^d exactly, else
    CoefficientError.  The cost is O(d) big powers and products at any n:
    the d + 1 powers i^n, the even ones as shifts, and one product of each
    with its e_k; above max_kinks(n) the count is zero at once.  A whole
    row of the `closed` route builds its e_k with one product at its top
    d and reaches each lower d by one division by (1+x)^2, which takes
    only sums; a single entry, as here, still costs one product.

    >>> closed_form(5, 1)
    88
    >>> closed_form(12, 5)
    22368256
    """
    check_int(n, 1, "n")  # first, so that n < 1 raises n's error at any d
    check_int(d, 0, "d")
    [count] = _column("closed_form", _closed_rows, range(n, n + 1), d)
    return count


def asymptotic_estimate(n: int, d: int) -> Fraction:
    """Leading-order growth 2^(n-2d-1) (d+1)^n, as an exact rational.

    The power of two is fractional when n < 2d + 1; the value is exact
    (not rounded) so deviations from true counts can be compared without
    floating-point tolerances.  At d = 0 the estimate equals the count.
    """
    from fractions import Fraction

    check_int(n, 1, "n")
    shift = n - 2 * check_int(d, 0, "d") - 1
    power = (d + 1) ** n
    return Fraction(power << shift) if shift >= 0 else Fraction(power, 1 << -shift)


class ConvergenceRow(NamedTuple):
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
    table: CountTable,
) -> tuple[ConvergenceRow, ...]:
    """Tabulate |count/estimate - 1| for n up to n_max, checking its decay.

    Rows start at the first nonzero count, n = 2d + 1.
    Once n clears the pre-asymptotic window (n >= 4d + 4) the deviation
    must shrink strictly at every step, except at d = 0 where it is
    identically zero; when a threshold is supplied, the final deviation
    must not exceed it.  Violations raise ValueError.  `table` supplies
    the exact counts of column d up to n_max, for example dp_table(n_max, d).
    """
    from fractions import Fraction

    start = 2 * check_int(d, 0, "d") + 1
    check_int(n_max, start, "n_max")
    rows = []
    for n in range(start, n_max + 1):
        exact = table.count(n, d)
        estimate = asymptotic_estimate(n, d)  # an int s from n = 2d + 1 on
        s = estimate.numerator
        rows.append(ConvergenceRow(n, exact, estimate, Fraction(abs(exact - s), s)))
    if d == 0:
        off = next((r for r in rows if r.deviation != 0), None)
        if off is not None:
            raise ValueError(f"estimate is not exact at d = 0, n = {off.n}")
    else:
        # from n = 4d + 5 on, the deviation at n is below its value at n - 1
        for before, row in zip(rows[4 * d + 4 - start :], rows[4 * d + 5 - start :]):
            if not row.deviation < before.deviation:
                raise ValueError(f"deviation fails to shrink at n = {row.n} for d = {d}")
    if threshold is not None and rows[-1].deviation > threshold:
        raise ValueError(
            f"deviation {float(rows[-1].deviation):.3e} at n = {n_max} "
            f"exceeds the threshold for d = {d}"
        )
    return tuple(rows)
