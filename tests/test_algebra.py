"""Exact truncated polynomial and series arithmetic."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kinks import TruncPoly, TSeries, sqrt_one_minus_v

COEFF = st.fractions(-6, 6, max_denominator=3)


def polys(order, unit=False):
    lead = COEFF.filter(bool) if unit else COEFF
    return st.tuples(lead, *[COEFF] * order).map(lambda c: TruncPoly(c, order))


def series(t_order, v_order, unit=False):
    rest = [polys(v_order)] * t_order
    return st.tuples(polys(v_order, unit), *rest).map(lambda p: TSeries(p, t_order, v_order))


def triples(make, *orders):
    # three independent draws at one shared truncation
    return st.tuples(*orders).flatmap(lambda o: st.tuples(*[make(*o)] * 3))


def test_poly_mul_truncates():
    one_plus = TruncPoly((1, 1), 2)
    one_minus = TruncPoly((1, -1), 2)
    assert one_plus * one_minus == TruncPoly((1, 0, -1), 2)
    squared_low = TruncPoly((1, 1), 1) * TruncPoly((1, 1), 1)
    assert squared_low == TruncPoly((1, 2), 1)  # the v^2 term falls away
    v = TruncPoly((0, 1), 1)
    assert v * v == TruncPoly.zero(1)


def test_poly_mul_rejects_mixed_orders():
    with pytest.raises(ValueError):
        TruncPoly((1,), 1) * TruncPoly((1,), 2)


def test_poly_inverse_geometric():
    assert TruncPoly((1, -1), 3).inverse() == TruncPoly((1, 1, 1, 1), 3)
    assert TruncPoly((2,), 2).inverse() == TruncPoly((Fraction(1, 2),), 2)
    with pytest.raises(ZeroDivisionError):
        TruncPoly((0, 1), 2).inverse()


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 8).flatmap(lambda order: polys(order, unit=True)))
def test_poly_inverse_round_trip(p):
    assert p * p.inverse() == TruncPoly.one(p.order)


def test_sqrt_one_minus_v_low_order_coefficients():
    root = sqrt_one_minus_v(3)
    assert root.coeffs == (1, Fraction(-1, 2), Fraction(-1, 8), Fraction(-1, 16))
    assert sqrt_one_minus_v(0) == TruncPoly((1,), 0)


def test_sqrt_squares_back_exactly():
    for order in (0, 1, 2, 6, 11, 16):
        root = sqrt_one_minus_v(order)
        assert root * root == TruncPoly((1, -1), order)


def test_sqrt_truncation_stability():
    full = sqrt_one_minus_v(12)
    for order in range(13):
        assert full.coeffs[: order + 1] == sqrt_one_minus_v(order).coeffs


@settings(max_examples=40, deadline=None)
@given(triples(polys, st.integers(0, 6)))
def test_poly_ring_axioms_on_random_instances(abc):
    a, b, c = abc
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a - a == TruncPoly.zero(a.order)


def test_tseries_geometric_inverse():
    for constant in (1, 2, 5):
        linear = TSeries(
            (TruncPoly.one(0), TruncPoly((-constant,), 0)), 8, 0
        )
        geometric = linear.inverse()
        for m in range(9):
            assert geometric.coeffs[m].coeffs[0] == constant**m


@settings(max_examples=20, deadline=None)
@given(
    st.tuples(st.integers(0, 6), st.integers(0, 4)).flatmap(lambda o: series(*o, unit=True))
)
def test_tseries_inverse_round_trip_seeded(s):
    assert s * s.inverse() == TSeries.one(s.t_order, s.v_order)


def test_tseries_inverse_requires_unit_lead():
    lead_v = TSeries((TruncPoly((0, 1), 1),), 3, 1)
    with pytest.raises(ZeroDivisionError):
        lead_v.inverse()


@settings(max_examples=25, deadline=None)
@given(triples(series, st.integers(0, 5), st.integers(0, 3)))
def test_tseries_ring_axioms_on_random_instances(abc):
    a, b, c = abc
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


def test_tseries_shape_guards():
    with pytest.raises(ValueError):
        TSeries.one(3, 1) * TSeries.one(3, 2)
    with pytest.raises(ValueError):
        TSeries.one(3, 1) * TSeries.one(4, 1)
    with pytest.raises(ValueError):
        TSeries((TruncPoly.one(2),), 3, 1)  # coefficient order mismatch


def test_tseries_repr_names_both_orders():
    assert repr(TSeries.one(3, 2)) == "TSeries(t_order=3, v_order=2)"


def test_zero_serves_both_classes():
    # TSeries inherits zero, which takes each class's own orders
    assert TSeries.zero(3, 2) == TSeries((), 3, 2)
    assert type(TSeries.zero(3, 2)) is TSeries and not TSeries.zero(3, 2)
    assert TruncPoly.zero(2) == TruncPoly((0, 0, 0), 2)
    assert type(TruncPoly.zero(2)) is TruncPoly


@settings(max_examples=10, deadline=None)
@given(series(4, 3, unit=True))
def test_everything_stays_exact(s):
    product = s * s.inverse()
    for poly in product.coeffs:
        for coefficient in poly.coeffs:
            assert isinstance(coefficient, (int, Fraction))


LEADS = st.sampled_from((1, -1, 2, -2, Fraction(1, 3)))


def sparse_series(t_order, v_order):
    # zero polynomials mixed in, and a t^0 v^0 lead from LEADS
    zero = TruncPoly.zero(v_order)
    poly = st.one_of(st.just(zero), polys(v_order))
    lead = st.tuples(LEADS, poly).map(lambda lp: TruncPoly((lp[0],) + lp[1].coeffs[1:], v_order))
    return st.tuples(lead, *[poly] * t_order).map(lambda p: TSeries(p, t_order, v_order))


@settings(max_examples=40, deadline=None)
@given(
    st.tuples(st.integers(0, 5), st.integers(0, 3)).flatmap(
        lambda o: st.tuples(sparse_series(*o), sparse_series(*o))
    )
)
def test_tseries_product_is_the_double_convolution(ab):
    a, b = ab
    product = a * b
    for n in range(a.t_order + 1):
        for k in range(a.v_order + 1):
            expected = 0
            for i in range(n + 1):
                for j in range(k + 1):
                    expected += a.coeffs[i].coeffs[j] * b.coeffs[n - i].coeffs[k - j]
            assert product.coeffs[n].coeffs[k] == expected, (n, k)


def test_tseries_never_equals_a_truncpoly_of_its_coefficients():
    series = TSeries.one(2, 1)
    poly = TruncPoly(series.coeffs, 2)
    assert series != poly
    assert poly != series


NUMBER = st.one_of(st.integers(-9, 9), st.fractions(-9, 9, max_denominator=7))
#: Units other than +-1 and +-2, whose inverses and products need Fraction.
OTHER_LEADS = NUMBER.filter(lambda x: x not in (0, 1, -1, 2, -2))


def fraction_sum(terms):
    return sum(terms, Fraction(0))


def fraction_product(a, b):
    # term m of the truncated product, one Fraction operation at a time
    return [fraction_sum(Fraction(a[i]) * b[m - i] for i in range(m + 1)) for m in range(len(a))]


def fraction_inverse(a):
    out = [1 / Fraction(a[0])]
    for m in range(1, len(a)):
        out.append(-fraction_sum(Fraction(a[i]) * out[m - i] for i in range(1, m + 1)) / a[0])
    return out


def rational_polys(order):
    # a unit lead other than +-1 and +-2, ints and fractions mixed after it
    return st.tuples(OTHER_LEADS, *[NUMBER] * order).map(lambda c: TruncPoly(c, order))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 7).flatmap(lambda o: st.tuples(rational_polys(o), rational_polys(o))))
def test_poly_products_and_inverses_match_fraction_arithmetic(ab):
    a, b = ab
    assert list((a * b).coeffs) == fraction_product(a.coeffs, b.coeffs)
    assert list(a.inverse().coeffs) == fraction_inverse(a.coeffs)


def rational_series(t_order, v_order):
    rest = [polys(v_order)] * t_order
    return st.tuples(rational_polys(v_order), *rest).map(lambda p: TSeries(p, t_order, v_order))


def fraction_series_product(a, b):
    # the double convolution on the (t, v) grid, one Fraction operation at a time
    x, y = [p.coeffs for p in a.coeffs], [p.coeffs for p in b.coeffs]
    return [
        [
            fraction_sum(
                Fraction(x[i][j]) * y[n - i][k - j] for i in range(n + 1) for j in range(k + 1)
            )
            for k in range(a.v_order + 1)
        ]
        for n in range(a.t_order + 1)
    ]


@settings(max_examples=25, deadline=None)
@given(
    st.tuples(st.integers(0, 4), st.integers(0, 3)).flatmap(
        lambda o: st.tuples(rational_series(*o), rational_series(*o))
    )
)
def test_tseries_products_and_inverses_match_fraction_arithmetic(ab):
    # the inverse is checked by its product with a, formed in Fraction
    a, b = ab
    one = [list(p.coeffs) for p in TSeries.one(a.t_order, a.v_order).coeffs]
    assert [list(p.coeffs) for p in (a * b).coeffs] == fraction_series_product(a, b)
    assert fraction_series_product(a, a.inverse()) == one
