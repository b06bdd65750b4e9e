"""Series expansion, explicit formulas, and the growth estimate."""

import re
from fractions import Fraction
from math import comb, factorial
from operator import mul

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import kinks.genfunc
import kinks.verify
from kinks import (
    CoefficientError,
    CountTable,
    asymptotic_estimate,
    bivariate_series,
    closed_form,
    convergence_report,
    dp_table,
    fixed_kinks_series,
    max_kinks,
    series_count,
    series_table,
)
from kinks.genfunc import _binomial_product, _exact_count, _series_weights
from helpers import GOLDEN

#: Reference rows for the property tests, from the level recurrences.
DP40 = dp_table(40)
DP60 = dp_table(60)
DP150_12 = dp_table(150, 12)
DP200_12 = dp_table(200, 12)
DP120_20 = dp_table(120, 20)

#: The published rational generating functions at d <= 3: numerator
#: coefficients in t, and the denominator as (scale, multiplicity) pairs
#: for factors (1 - scale*t)^multiplicity.
PUBLISHED_FORMS = {
    0: ((0, 0, 2), ((2, 1),)),
    1: ((0, 0, 0, 2), ((2, 2), (4, 1))),
    2: ((0, 0, 0, 0, 0, 16, -48), ((2, 3), (4, 2), (6, 1))),
    3: ((0, 0, 0, 0, 0, 0, 0, 272, -2944, 10176, -11520), ((2, 4), (4, 3), (6, 2), (8, 1))),
}


def test_series_table_reference_coefficients():
    assert series_table(7, 3).count(7, 2) == 2880
    assert series_table(10, 4).row(10) == (512, 128512, 1304832, 1841152, 353792)


def test_series_table_reproduces_reference_rows():
    table = series_table(10, 4)
    for n in range(2, 11):
        assert table.row(n) == GOLDEN[n]


def test_series_vanishes_above_max_kinks():
    # the dot product _series_rows forms for [t^n w^k], 2^(n-2) sum_j u_j
    # [z^(k-j)] (1+z)^(2k-n+1) (1-z)^n, is 0 above max_kinks(n), where its
    # rows end and bivariate_series pads them with zeros
    for n in range(2, 41):
        for k in range(max_kinks(n) + 1, 13):
            u = _series_weights(n, [i ** (n - 1) for i in range(k + 2)])
            assert sum(map(mul, u, reversed(_binomial_product(2 * k - n + 1, n, k)))) == 0, (n, k)
    series = bivariate_series(9, 9)
    assert series.coeffs[9].coeffs[max_kinks(9) + 1 :] == (0,) * 5
    assert not series.coeffs[0]
    assert not series.coeffs[1]


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 40), d=st.integers(0, 12))
def test_series_table_matches_truncated_recurrence_rows(n, d):
    table = series_table(n, d)
    assert table.lengths() == list(range(2, n + 1))
    for m in range(2, n + 1):
        assert table.row(m) == DP40.row(m)[: d + 1], (m, n, d)


@settings(max_examples=40, deadline=None)
@given(t=st.integers(2, 30), v=st.integers(0, 10))
def test_bivariate_series_has_int_coefficients(t, v):
    series = bivariate_series(t, v)
    assert (series.t_order, series.v_order) == (t, v)
    for poly in series.coeffs:
        assert all(type(c) is int for c in poly.coeffs)
    assert not series.coeffs[0]
    assert not series.coeffs[1]


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 60), d=st.integers(0, 12))
def test_series_count_matches_the_series_table(n, d):
    # two extractions of one closed form: direct, and the whole expansion
    assert series_count(n, d) == series_table(n, d).count(n, d)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 150), d=st.integers(0, 12))
def test_series_count_matches_the_truncated_recurrences(n, d):
    assert series_count(n, d) == DP150_12.count(n, d)


def test_series_count_reference_values_and_guards():
    assert [series_count(10, d) for d in range(5)] == list(GOLDEN[10])
    assert series_count(9, 5) == series_count(4, 2) == 0  # above max_kinks
    assert series_count(400, 3) == closed_form(400, 3)
    assert series_count(10000, 5) == closed_form(10000, 5)
    with pytest.raises(ValueError):
        series_count(1, 0)
    with pytest.raises(ValueError):
        series_count(5, -1)


def test_pair_coefficients_match_their_convolution_sum():
    # c_m = [x^m] 1/((1 - 2j x)^2 (1 - (2j+2) x)^2), from the product of the two
    # series; a_j = c_(n-2) - (1+2j) c_(n-3), b_j = c_(n-3), and the row weights
    # are a_j - [z^j] B(z) (1-z)/(1+z), held as multiples of 2^(n-3)
    def pair(j, m):
        a, b = 2 * j, 2 * j + 2
        return sum((i + 1) * (m - i + 1) * a**i * b ** (m - i) for i in range(m + 1))

    ratio = [1] + [2 * (-1) ** k for k in range(1, 13)]  # (1-z)/(1+z)
    for n in range(2, 31):
        b = [pair(j, n - 3) for j in range(13)]
        a = [pair(j, n - 2) - (1 + 2 * j) * bj for j, bj in enumerate(b)]
        weights = [a[j] - sum(b[i] * ratio[j - i] for i in range(j + 1)) for j in range(13)]
        u = _series_weights(n, [i ** (n - 1) for i in range(14)])
        assert [x * 2**n for x in u] == [8 * c for c in weights], n


def test_binomial_product_matches_the_two_binomial_series():
    # [z^k] (1+z)^a (1-z)^b as the product of the two binomial series, with
    # a < 0 included: the series route reads a = 2d-n+1, negative for n > 2d+1
    def series(e, sign, top):
        coeffs = [1]  # C(e, k) sign^k, each step exact
        for k in range(top):
            coeffs.append(coeffs[-1] * (e - k) * sign // (k + 1))
        return coeffs

    for a in range(-45, 12):
        for b in range(0, 40, 3):
            upper, lower = series(a, 1, 15), series(b, -1, 15)
            expected = [sum(upper[i] * lower[k - i] for i in range(k + 1)) for k in range(16)]
            assert _binomial_product(a, b, 15) == expected, (a, b)
    assert _binomial_product(-7, 3, 0) == [1]


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 3000), d=st.integers(0, 60))
def test_series_count_matches_the_closed_form(n, d):
    assert series_count(n, d) == closed_form(n, d)


def test_series_count_matches_the_closed_form_at_20000_200():
    assert series_count(20000, 200) == closed_form(20000, 200)


def test_series_table_matches_the_recurrence_rows_to_120():
    table = series_table(120, 20)
    for n in range(2, 121):
        assert table.row(n) == DP120_20.row(n), n


def test_series_table_matches_recurrences_and_partitions():
    table = series_table(12, 5)
    dp = dp_table(12)
    for n in range(2, 13):
        assert table.row(n) == dp.row(n)
        assert sum(table.row(n)) == factorial(n)


def test_series_table_truncated_rows():
    table = series_table(9, 2)
    assert table.row(9) == (256, 31616, 185856)  # d <= 2 only
    assert len(table.row(9)) < max_kinks(9) + 1  # cut
    assert len(table.row(5)) == max_kinks(5) + 1  # whole


def test_series_table_guards():
    with pytest.raises(ValueError):
        series_table(1, 3)
    with pytest.raises(ValueError):
        series_table(5, -1)


def test_fixed_kinks_series_reference_values():
    assert fixed_kinks_series(0, 6) == (2, 4, 8, 16, 32)
    assert fixed_kinks_series(1, 5)[-1] == 88
    assert fixed_kinks_series(3, 7)[-1] == 272
    assert fixed_kinks_series(1, 4) == (0, 2, 16)


def test_fixed_kinks_series_matches_recurrence_columns():
    dp = dp_table(20)
    for d in range(4):
        sequence = fixed_kinks_series(d, 20)
        for n in range(2, 21):
            assert sequence[n - 2] == dp.count(n, d), (n, d)


@settings(max_examples=30, deadline=None)
@given(d=st.integers(0, 8), n_max=st.integers(2, 60))
def test_fixed_kinks_series_matches_recurrence_columns_to_d8(d, n_max):
    expected = tuple(DP60.count(n, d) for n in range(2, n_max + 1))
    assert fixed_kinks_series(d, n_max) == expected


def test_fixed_kinks_series_reproduces_the_published_rational_forms():
    for d, (numer, factors) in PUBLISHED_FORMS.items():
        denom = [1]
        for scale, mult in factors:
            for _ in range(mult):
                denom = [a - scale * b for a, b in zip(denom + [0], [0] + denom)]
        counts = []
        for n in range(101):
            lead = numer[n] if n < len(numer) else 0
            counts.append(lead - sum(q * counts[n - i] for i, q in enumerate(denom[1 : n + 1], 1)))
        assert fixed_kinks_series(d, 100) == tuple(counts[2:]), d


def test_fixed_kinks_series_rejects_a_corrupted_column(monkeypatch):
    exact = kinks.genfunc._series_rows

    def bumped(lengths, lo, top):
        # the entry of row 8 one too large; the rows below n = 2d + 1 are empty
        for n, row in zip(lengths, exact(lengths, lo, top)):
            yield [c + (n == 8) for c in row]

    monkeypatch.setattr(kinks.genfunc, "_series_rows", bumped)
    with pytest.raises(CoefficientError, match="d = 2 of the series does not fit"):
        fixed_kinks_series(2, 30)


def test_fixed_kinks_series_rejects_a_negative_count(monkeypatch):
    # a negated column still fits the denominator: only the sign gate sees it
    exact = kinks.genfunc._series_rows

    def negated(lengths, lo, top):
        return ([-c for c in row] for row in exact(lengths, lo, top))

    monkeypatch.setattr(kinks.genfunc, "_series_rows", negated)
    with pytest.raises(CoefficientError, match="negative count at d = 1$"):
        fixed_kinks_series(1, 10)


def test_fixed_kinks_series_guards():
    with pytest.raises(ValueError):
        fixed_kinks_series(-1, 10)
    with pytest.raises(ValueError):
        fixed_kinks_series(1, 1)


def test_closed_form_reference_values():
    assert closed_form(5, 1) == 88  # 2^3 * (2^4 - 5)
    assert closed_form(9, 3) == 137216
    assert closed_form(5, 2) == 16
    assert closed_form(2, 0) == 2


def test_closed_form_below_validity_is_zero():
    assert closed_form(2, 1) == 0
    assert closed_form(4, 2) == 0
    assert closed_form(6, 3) == 0
    assert closed_form(1, 0) == 1  # the one-site history
    assert closed_form(5, 4) == closed_form(3, 10**9) == 0  # at once, whatever d


def test_closed_form_guards():
    # n < 1 gets n's error at any d, a negative d included
    for n, d in ((0, 0), (-3, 0), (0, -1), (-3, -1), (0, 5)):
        with pytest.raises(ValueError, match=f"n must be an int of at least 1, got {n}$"):
            closed_form(n, d)


@pytest.mark.parametrize("count", [series_count, closed_form])
def test_single_counts_take_only_ints(count):
    # 5.0 would count in floats (series_count(5.0, 1) gave 88.0) and True
    # would pass as n = 1 (closed_form(True, 0) gave 1); with both bad, n is named
    n_least = 2 if count is series_count else 1
    for args, message in [
        ((5.0, 1), f"n must be an int of at least {n_least}, got 5.0"),
        ((True, 0), f"n must be an int of at least {n_least}, got True"),
        ((5, 1.0), "d must be an int of at least 0, got 1.0"),
        ((5, True), "d must be an int of at least 0, got True"),
        ((5.0, 1.0), f"n must be an int of at least {n_least}, got 5.0"),
    ]:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            count(*args)
    assert count(5, 1) == 88


def test_closed_form_matches_recurrences():
    dp = dp_table(30)
    for d in range(9):
        for n in range(2 * d + 1, 31):
            assert closed_form(n, d) == dp.count(n, d), (n, d)


def test_closed_form_matches_the_rational_forms_to_400():
    for d in range(9):
        column = fixed_kinks_series(d, 399)
        for n in range(2, 400):
            assert closed_form(n, d) == column[n - 2], (n, d)


@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 200), d=st.integers(0, 12))
def test_closed_form_matches_the_truncated_recurrences(n, d):
    # zeros above max_kinks(n) included
    assert closed_form(n, d) == DP200_12.count(n, d)


@st.composite
def _closed_scopes(draw):
    # a range of lengths inside 1..120 and a band lo..top of kinks, top at
    # or above lo, either of them above some rows' max_kinks
    start = draw(st.integers(1, 120))
    stop = draw(st.integers(start, 120))
    lo = draw(st.integers(0, 62))
    return range(start, stop + 1), lo, draw(st.integers(lo, 64))


@settings(max_examples=60, deadline=None)
@given(_closed_scopes())
@example((range(1, 121), 0, 59))  # every whole row to 120
@example((range(90, 121), 7, 7))  # lo = top: one entry per row
@example((range(1, 41), 3, 64))  # top above every max_kinks
@example((range(1, 31), 20, 25))  # lo above max_kinks(n) for n <= 40: empty rows
def test_closed_rows_step_down_to_the_entries_of_closed_form(scope):
    # a row's weights are built once at its top d and divided down by
    # (1+x)^2; each entry must still be closed_form's own single entry
    lengths, lo, top = scope
    rows = list(kinks.genfunc._closed_rows(lengths, lo, top))
    assert rows == [
        tuple(closed_form(n, d) for d in range(lo, min(top, max_kinks(n)) + 1)) for n in lengths
    ]


def test_verify_closed_forms_names_the_row_of_a_moved_top_weight(monkeypatch):
    # row 37's top product, (1+x)^-1 (1-x)^39 to x^18, with e_1 one too big:
    # every lower weight of the row is stepped from it, so the sum at d = 1
    # moves by 1^37 and fails its gate; no other check reads that product
    exact = kinks.genfunc._binomial_product

    def moved(a, b, top):
        e = exact(a, b, top)
        if (a, b, top) == (-1, 39, 18):
            e[1] += 1
        return e

    monkeypatch.setattr(kinks.genfunc, "_binomial_product", moved)
    failed = {r.name: r.detail for r in kinks.verify.run_verification() if not r.passed}
    assert list(failed) == ["closed_forms"]
    assert re.fullmatch(
        r"CoefficientError: power sum at n=37, d=1 is \d+, not 2 times a count", failed["closed_forms"]
    )


def test_closed_form_gate_rejects_a_corrupted_power_sum_weight(monkeypatch):
    exact = kinks.genfunc._binomial_product

    def off_by_one(a, b, top):
        e = exact(a, b, top)
        if (a, b, top) == (-8, 14, 2):  # the weights at n = 12, d = 2
            e[2] += 1  # the weight of 1^12: the sum moves by 1, off the multiples of 4
        return e

    monkeypatch.setattr(kinks.genfunc, "_binomial_product", off_by_one)
    with pytest.raises(CoefficientError, match="power sum at n=12, d=2"):
        closed_form(12, 2)


def test_closed_weights_are_the_product_coefficients():
    # e_k = [x^k] (1-x)^(n+2) (1+x)^(2d-n), with the binomial series for 2d - n < 0
    for d in range(9):
        for n in range(1, 30):
            upper = [1]  # C(2d - n, k), each step exact
            for k in range(d):
                upper.append(upper[-1] * (2 * d - n - k) // (k + 1))
            lower = [(-1) ** i * comb(n + 2, i) for i in range(d + 1)]
            expected = [sum(lower[i] * upper[k - i] for i in range(k + 1)) for k in range(d + 1)]
            assert _binomial_product(2 * d - n, n + 2, d) == expected, (n, d)


def test_the_power_sum_vanishes_below_the_first_count():
    # without the cut at max_kinks(n) the sum is still 0 for 1 <= n <= 2d,
    # so the cut only saves time
    for d in range(1, 41):
        for n in range(1, 2 * d + 1):
            e = _binomial_product(2 * d - n, n + 2, d)
            assert sum(e[d + 1 - i] * i**n for i in range(1, d + 2)) == 0, (n, d)


def _poly_add(*polys):
    # int polynomials as {exponents: coefficient}, here in (x, n, d) as
    # {(i, j, k): coefficient of x^i n^j d^k}
    out = {}
    for p in polys:
        for e, c in p.items():
            out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def _poly_mul(out, *polys):
    for p in polys:
        terms = ({tuple(map(sum, zip(e, f))): a * b} for e, a in out.items() for f, b in p.items())
        out = _poly_add(*terms)
    return out


def _linear(one, x, n, d):
    # one + x X + n N + d D
    return _poly_add({(0, 0, 0): one, (1, 0, 0): x, (0, 1, 0): n, (0, 0, 1): d})


def test_the_closed_weights_obey_the_recurrence_as_an_identity():
    # the closed form's weights are those of f_(d,n) = (1-x)^(n+2) (1+x)^(2d-n),
    # and c(n+1, d) = (2d+2) c(n, d) + (n+1-2d) c(n, d-1) holds term by term
    # in i^n iff, with g = f (1-x)/(1+x), 2(d+1) g - 2x g' = (2d+2) f +
    # 4(n+1-2d) x f/(1+x)^2; over f, times (1+x)^2, that is this identity in
    # Z[x, n, d].  With the vanishing below the first count and row 1 = (1),
    # induction gives closed_form = dp_table at every (n, d)
    minus, plus, x = _linear(1, -1, 0, 0), _linear(1, 1, 0, 0), _linear(0, 1, 0, 0)
    left = _poly_add(
        _poly_mul(_linear(2, 0, 0, 2), minus, plus),  # 2(d+1)(1-x)(1+x)
        _poly_mul(_linear(0, 2, 0, 0), _linear(3, 0, 1, 0), plus),  # 2x(n+3)(1+x)
        _poly_mul(_linear(0, -2, 0, 0), _linear(-1, 0, -1, 2), minus),  # -2x(2d-n-1)(1-x)
    )
    right = _poly_add(
        _poly_mul(_linear(2, 0, 0, 2), plus, plus),  # (2d+2)(1+x)^2
        _poly_mul(_linear(4, 0, 4, -8), x),  # 4(n+1-2d)x
    )
    assert left and _poly_add(left, _poly_mul(_linear(-1, 0, 0, 0), right)) == {}


class _Formal(dict):
    """An int polynomial in n and q_0..q_21, keyed as `_poly_add` keys it by
    the exponents of (n, q_0, ..., q_21): just the arithmetic that
    `_series_weights` does on n and on the powers q_i = i^(n-1)."""

    def __add__(self, other):
        return _Formal(_poly_add(self, _lift(other)))

    def __mul__(self, other):
        return _Formal(_poly_mul(self, _lift(other)))

    def __sub__(self, other):
        return self + _Formal(_lift(other)) * -1

    __rmul__ = __mul__


def _lift(value):
    # an int as a constant polynomial
    return value if isinstance(value, dict) else _poly_add({(0,) * 23: value})


def _formal(position):
    # n at position 0, q_i at position i + 1
    return _Formal({tuple(int(k == position) for k in range(23)): 1})


def test_series_weights_fold_into_the_closed_form_weights_at_every_n():
    # _series_weights run on a formal n and formal q_i gives each u_j as a
    # linear form in the q with coefficients in Z[n]; (1+z) U = 2 (1-z)^2 Q'
    # then holds at every z^j, j >= 1, identically in n, and at z^0 up to
    # -2n q_0, which is 0 because q_0 = 0^(n-1) = 0 for n >= 2.  _series_rows
    # passes the powers q_i = i^(n-1), so the entries d + 1 - i then fold
    # into closed_form's power sum, 4^d times it at every (n, d)
    n, q = _formal(0), [_formal(i + 1) for i in range(22)]
    u = _series_weights(n, q)
    assert len(u) == 21
    for j in range(1, 21):
        assert u[j] + u[j - 1] == 2 * ((j + 1) * q[j + 1] - 2 * j * q[j] + (j - 1) * q[j - 1]), j
    assert u[0] - 2 * q[1] == -2 * n * q[0]


def test_the_closed_weights_obey_the_recurrence_coefficientwise():
    # 2(d+1-K) [x^K] f_(d,n+1) = (2d+2) [x^K] f_(d,n) + 4(n+1-2d) [x^(K-1)] f_(d-1,n)
    # for K = d+1-i, i = 1..d+1: the identity above read off the code's weights
    for d in range(30):
        for n in range(1, 60):
            up = _binomial_product(2 * d - n - 1, n + 3, d)
            here = _binomial_product(2 * d - n, n + 2, d)
            below = [0] + _binomial_product(2 * d - 2 - n, n + 2, d - 1) if d else [0]
            for k in range(d + 1):
                lhs = 2 * (d + 1 - k) * up[k]
                assert lhs == (2 * d + 2) * here[k] + 4 * (n + 1 - 2 * d) * below[k], (n, d, k)


def test_the_d3_weights_give_the_d3_deviation_law():
    # the i = d+1 term is the growth estimate, so 1 - count/estimate is
    # -sum_k e_k ((d+1-k)/(d+1))^n; at d = 3 that is criterion 07b's law
    table = dp_table(65, 3)
    for n in range(7, 66):
        e = _binomial_product(6 - n, n + 2, 3)
        assert e[1:3] == [4 - 2 * n, 2 * n * n - 8 * n + 4], n
        deviation = -sum(e[k] * Fraction(4 - k, 4) ** n for k in range(1, 4))
        law = (
            2 * (n - 2) * Fraction(3, 4) ** n
            - 2 * (n * n - 4 * n + 2) * Fraction(1, 2) ** n
            + Fraction(2, 3) * (2 * n**3 - 12 * n * n + 13 * n + 6) * Fraction(1, 4) ** n
        )
        assert deviation == law == 1 - table.count(n, 3) / asymptotic_estimate(n, 3), n


def test_closed_form_matches_the_series_at_large_n():
    assert closed_form(20000, 40) == series_count(20000, 40)


def test_extraction_gate_rejects_non_counts():
    with pytest.raises(CoefficientError):
        _exact_count(1, 2, "probe")
    with pytest.raises(CoefficientError):
        _exact_count(-3, 1, "probe")
    assert _exact_count(8, 2, "probe") == 4


def test_series_gate_rejects_a_corrupted_expansion(monkeypatch):
    exact = kinks.genfunc._series_weights

    def off_by_one(n, q):
        u = exact(n, q)
        d = {2: 2, 7: 3}.get(n, len(u))
        if d < len(u):
            # u_d meets [z^0] = 1, so entry d moves by 2^(n-2): by 1 at (2, 2)
            # and by 32 at (7, 3), off the multiples of 4^2 and 4^3
            u[d] += 1
        return u

    monkeypatch.setattr(kinks.genfunc, "_series_weights", off_by_one)
    # row 2 ends at max_kinks(2) = 0, so its weights stop at u_0 and never
    # meet the fault at (2, 2): the first bad entry is t^7 w^3
    with pytest.raises(CoefficientError, match=r"t\^7 w\^3"):
        bivariate_series(8, 3)
    with pytest.raises(CoefficientError, match=r"t\^7 w\^3"):
        series_count(7, 3)


def test_asymptotic_estimate_values():
    for n in (1, 5, 12):
        assert asymptotic_estimate(n, 0) == 2 ** (n - 1) == closed_form(n, 0)
    assert asymptotic_estimate(20, 1) == 137438953472
    assert closed_form(20, 1) == 137433710592
    deviation = abs(Fraction(closed_form(20, 1)) / asymptotic_estimate(20, 1) - 1)
    assert deviation == Fraction(2 * 20, 2**20)
    assert asymptotic_estimate(3, 1) == 8  # against an exact count of 2
    assert closed_form(3, 1) == 2
    assert asymptotic_estimate(1, 1) == Fraction(1, 2)  # fractional below n = 2d+1
    with pytest.raises(ValueError):
        asymptotic_estimate(0, 0)
    with pytest.raises(ValueError):
        asymptotic_estimate(3, -1)


def test_convergence_report_zero_kinks_is_exact():
    rows = convergence_report(0, 25, table=DP40)
    assert all(r.deviation == 0 for r in rows)
    assert rows[0].n == 1


def test_convergence_report_single_kink_identity():
    rows = convergence_report(1, 30, table=DP40)
    assert rows[0].n == 3
    for r in rows:
        assert r.deviation == Fraction(2 * r.n, 2**r.n)


def test_convergence_report_two_kinks_shrinks():
    rows = convergence_report(2, 40, threshold=Fraction(1, 10**4), table=DP40)
    window = [r for r in rows if r.n >= 12]
    assert all(b.deviation < a.deviation for a, b in zip(window, window[1:]))


def test_convergence_report_threshold_violation():
    with pytest.raises(ValueError):
        convergence_report(1, 10, threshold=Fraction(1, 10**9), table=DP40)
    # a final deviation equal to the threshold does not exceed it
    last = convergence_report(1, 10, table=DP40)[-1].deviation
    assert convergence_report(1, 10, threshold=last, table=DP40)[-1].deviation == last


def test_convergence_report_notices_a_deviation_that_stops_shrinking():
    # c(9, 1) moved onto the estimate's double: deviation 1 at n = 9, past
    # the window's start at n = 8
    rows = {n: DP40.row(n) for n in range(1, 13)}
    rows[9] = (rows[9][0], 2 * 2**15, *rows[9][2:])
    with pytest.raises(ValueError, match="deviation fails to shrink at n = 9 for d = 1"):
        convergence_report(1, 12, table=CountTable(rows))
    # c(10, 1) moved to 2^17 - 4 * 1152: the deviation 1152 / 2^15 of n = 9
    # again, which is not strictly smaller
    rows = {n: DP40.row(n) for n in range(1, 13)}
    rows[10] = (rows[10][0], 2**17 - 4 * 1152, *rows[10][2:])
    with pytest.raises(ValueError, match="deviation fails to shrink at n = 10 for d = 1"):
        convergence_report(1, 12, table=CountTable(rows))


def test_convergence_report_accepts_precomputed_table():
    table = dp_table(15)
    rows = convergence_report(1, 15, table=table)
    assert rows[-1].exact == table.count(15, 1)


def test_convergence_report_guards():
    with pytest.raises(ValueError):
        convergence_report(2, 4, table=DP40)  # counts start at n = 5
    with pytest.raises(ValueError):
        convergence_report(-1, 10, table=DP40)
