"""Exact truncated polynomial and series arithmetic."""

import random
from fractions import Fraction

import pytest

from kinks import TruncPoly, TSeries, sqrt_one_minus_v


def rand_poly(rng, order, unit=False):
    coeffs = [Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2, 3))) for _ in range(order + 1)]
    if unit:
        coeffs[0] = rng.choice((1, -1, 2, Fraction(1, 2), Fraction(-2, 3)))
    return TruncPoly(coeffs, order)


def rand_series(rng, t_order, v_order, unit=False):
    polys = [rand_poly(rng, v_order, unit=unit and i == 0) for i in range(t_order + 1)]
    return TSeries(polys, t_order, v_order)


def test_poly_mul_truncates():
    one_plus = TruncPoly((1, 1), 2)
    one_minus = TruncPoly((1, -1), 2)
    assert one_plus * one_minus == TruncPoly((1, 0, -1), 2)
    squared_low = TruncPoly((1, 1), 1) * TruncPoly((1, 1), 1)
    assert squared_low == TruncPoly((1, 2), 1)  # the v^2 term falls away


def test_poly_mul_rejects_mixed_orders():
    with pytest.raises(ValueError):
        TruncPoly((1,), 1) * TruncPoly((1,), 2)


def test_poly_inverse_geometric():
    assert TruncPoly((1, -1), 3).inverse() == TruncPoly((1, 1, 1, 1), 3)
    assert TruncPoly((2,), 2).inverse() == TruncPoly((Fraction(1, 2),), 2)
    with pytest.raises(ZeroDivisionError):
        TruncPoly((0, 1), 2).inverse()


def test_poly_inverse_round_trip():
    rng = random.Random(7)
    for _ in range(50):
        order = rng.randint(0, 8)
        p = rand_poly(rng, order, unit=True)
        assert p * p.inverse() == TruncPoly.one(order)


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
        assert full.truncate(order) == sqrt_one_minus_v(order)


def test_poly_ring_axioms_on_random_instances():
    rng = random.Random(11)
    for _ in range(40):
        order = rng.randint(0, 6)
        a, b, c = (rand_poly(rng, order) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a - a == TruncPoly.zero(order)


def test_poly_powers_and_shift():
    p = TruncPoly((1, 1), 3)
    assert p**0 == TruncPoly.one(3)
    assert p**3 == TruncPoly((1, 3, 3, 1), 3)
    v = TruncPoly((0, 1), 1)
    assert v * v == TruncPoly.zero(1)
    assert TruncPoly((5, 7), 3).shift(2) == TruncPoly((0, 0, 5, 7), 3)


def test_tseries_geometric_inverse():
    for constant in (1, 2, 5):
        linear = TSeries(
            (TruncPoly.one(0), TruncPoly((-constant,), 0)), 8, 0
        )
        geometric = linear.inverse()
        for m in range(9):
            assert geometric.coefficient(m).coefficient(0) == constant**m


def test_tseries_inverse_round_trip_seeded():
    rng = random.Random(123)
    for _ in range(20):
        t_order = rng.randint(0, 6)
        v_order = rng.randint(0, 4)
        series = rand_series(rng, t_order, v_order, unit=True)
        product = series * series.inverse()
        assert product == TSeries.one(t_order, v_order)


def test_tseries_inverse_requires_unit_lead():
    lead_v = TSeries((TruncPoly((0, 1), 1),), 3, 1)
    with pytest.raises(ZeroDivisionError):
        lead_v.inverse()


def test_tseries_ring_axioms_on_random_instances():
    rng = random.Random(17)
    for _ in range(25):
        t_order = rng.randint(0, 5)
        v_order = rng.randint(0, 3)
        a, b, c = (rand_series(rng, t_order, v_order) for _ in range(3))
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


def test_tseries_shift_and_scale():
    base = TSeries.one(3, 1)
    shifted = base.shift(2)
    assert shifted.coefficient(0) == TruncPoly.zero(1)
    assert shifted.coefficient(2) == TruncPoly.one(1)
    scaled = base.scale(TruncPoly((3, 1), 1))
    assert scaled.coefficient(0) == TruncPoly((3, 1), 1)


def test_everything_stays_exact():
    rng = random.Random(29)
    series = rand_series(rng, 4, 3, unit=True)
    product = series * series.inverse()
    for poly in product.coeffs:
        for coefficient in poly.coeffs:
            assert isinstance(coefficient, (int, Fraction))
