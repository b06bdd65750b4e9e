"""Exact truncated-series arithmetic over rational coefficients.

One ring construction, applied twice.  TruncPoly is the truncated
polynomial ring R[x]/(x^(order+1)) over a coefficient ring R: over the
rationals it is Q[v]/(v^(D+1)), and TSeries is the same construction
over TruncPoly, the power series in t cut at t^(N+1) with coefficients
in Q[v]/(v^(D+1)).  Both levels share one product kernel and one inverse
kernel, which only ever add, multiply, negate and test their
coefficients for zero.

Coefficients are Python ints or fractions.Fraction and every operation
is exact; nothing in this module touches floating point.  Integer inputs
stay ints: a Fraction appears only in sqrt_one_minus_v and in the
inverse of a unit whose rational lead is not +-1.  A product of rational
polynomials convolves in ints, each factor scaled by the lcm of its
denominators, and builds one Fraction per output term.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import add, attrgetter, neg, sub
from typing import Any, Iterable, Sequence

from .core import check_int

__all__ = ["TruncPoly", "TSeries", "sqrt_one_minus_v"]

Coeff = int | Fraction
_denominator = attrgetter("denominator")  # 1 for an int


def _mul_coeffs(a: Sequence[Any], b: Sequence[Any], order: int) -> list[Any]:
    # over any ring: its zero is a[0] * 0, 0 for numbers, a zero TruncPoly for a TSeries
    out = [a[0] * 0] * (order + 1)
    for i, ai in enumerate(a):
        if ai:
            top = order + 1 - i
            for j, bj in enumerate(b[:top]):
                if bj:
                    out[i + j] += ai * bj
    return out


def _product(a: Sequence[Any], b: Sequence[Any], order: int) -> list[Any]:
    # ints and TruncPolys convolve as they are; rationals as ints over one common
    # denominator per factor, so a Fraction is built once per output term
    if Fraction not in {*map(type, a), *map(type, b)}:
        return _mul_coeffs(a, b, order)
    da = lcm(*map(_denominator, a))
    db = lcm(*map(_denominator, b))
    na = [x.numerator * (da // x.denominator) for x in a]
    nb = [x.numerator * (db // x.denominator) for x in b]
    den = da * db
    return [Fraction(c, den) for c in _mul_coeffs(na, nb, order)]


def _inv_coeffs(a: Sequence[Any], order: int, inv0: Any) -> list[Any]:
    # a[0] * inv0 == 1; each later term cancels the convolution below it
    zero = a[0] * 0
    out = [inv0] + [zero] * order
    for m in range(1, order + 1):
        acc = zero
        for i in range(1, m + 1):
            ai = a[i]
            if ai:
                acc += ai * out[m - i]
        out[m] = -inv0 * acc
    return out


class TruncPoly:
    """Polynomial in v modulo v^(order+1), with exact coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Coeff], order: int):
        c = list(coeffs)[: check_int(order, 0, "order") + 1]
        c.extend([0] * (order + 1 - len(c)))
        self.coeffs = tuple(c)

    def _new(self, coeffs: Iterable[Any]) -> TruncPoly:
        return TruncPoly(coeffs, self.order)

    @staticmethod
    def _lead_inverse(lead: Coeff) -> Coeff:
        # keep integer arithmetic integer: 1/lead only needs Fraction beyond +-1
        return lead if lead == 1 or lead == -1 else Fraction(1) / lead

    @classmethod
    def zero(cls, *orders: int) -> TruncPoly:
        # the one zero of both classes: a TSeries takes (t_order, v_order)
        return cls((), *orders)

    @classmethod
    def one(cls, order: int) -> TruncPoly:
        return cls((1,), order)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def _check(self, other: TruncPoly) -> None:
        if self.order != other.order:
            raise ValueError(f"mixed truncation orders {self.order} and {other.order}")

    def __bool__(self) -> bool:
        return any(self.coeffs)

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"TruncPoly({list(self.coeffs)!r}, order={self.order})"

    def __add__(self, other: TruncPoly) -> TruncPoly:
        self._check(other)
        return self._new(map(add, self.coeffs, other.coeffs))

    def __sub__(self, other: TruncPoly) -> TruncPoly:
        self._check(other)
        return self._new(map(sub, self.coeffs, other.coeffs))

    def __neg__(self) -> TruncPoly:
        return self._new(map(neg, self.coeffs))

    def __mul__(self, other: Any) -> TruncPoly:
        if type(other) is type(self):
            self._check(other)
            return self._new(_product(self.coeffs, other.coeffs, self.order))
        return self._new(a * other for a in self.coeffs)

    __rmul__ = __mul__

    def inverse(self) -> TruncPoly:
        """Multiplicative inverse; requires a unit constant term."""
        lead = self.coeffs[0]
        if not lead:
            raise ZeroDivisionError("constant term is zero: not a unit")
        inv0 = self._lead_inverse(lead)
        return self._new(_inv_coeffs(self.coeffs, self.order, inv0))


def sqrt_one_minus_v(order: int) -> TruncPoly:
    """The square root of 1 - v with constant term +1, as a TruncPoly.

    Built from the binomial series for (1 - v)^(1/2); squaring it gives
    back exactly 1 - v at any truncation order.

    >>> sqrt_one_minus_v(3)
    TruncPoly([Fraction(1, 1), Fraction(-1, 2), Fraction(-1, 8), Fraction(-1, 16)], order=3)
    """
    coeffs = [Fraction(1)]
    binom = Fraction(1)
    for k in range(1, check_int(order, 0, "order") + 1):
        binom = binom * (Fraction(1, 2) - (k - 1)) / k
        coeffs.append(binom if k % 2 == 0 else -binom)
    return TruncPoly(coeffs, order)


class TSeries(TruncPoly):
    """Power series in t modulo t^(t_order+1) with TruncPoly coefficients.

    The truncated-polynomial ring over TruncPoly: every operation is
    TruncPoly's, with polynomials in v where TruncPoly has numbers.  All
    coefficients share one v truncation order; arithmetic never mixes
    truncations, and a TSeries never equals a TruncPoly.
    """

    __slots__ = ("v_order",)

    def __init__(self, polys: Iterable[TruncPoly], t_order: int, v_order: int):
        ps = list(polys)[: check_int(t_order, 0, "t_order") + 1]
        check_int(v_order, 0, "v_order")
        for p in ps:
            if p.order != v_order:
                raise ValueError(f"coefficient at v order {p.order}, expected {v_order}")
        ps.extend([TruncPoly.zero(v_order)] * (t_order + 1 - len(ps)))
        self.coeffs = tuple(ps)
        self.v_order = v_order

    def _new(self, polys: Iterable[TruncPoly]) -> TSeries:
        return TSeries(polys, self.t_order, self.v_order)

    @staticmethod
    def _lead_inverse(lead: TruncPoly) -> TruncPoly:
        return lead.inverse()

    @classmethod
    def one(cls, t_order: int, v_order: int) -> TSeries:
        return cls((TruncPoly.one(v_order),), t_order, v_order)

    t_order = TruncPoly.order

    def _check(self, other: TSeries) -> None:
        if self.t_order != other.t_order or self.v_order != other.v_order:
            raise ValueError(
                f"mixed truncation orders ({self.t_order}, {self.v_order}) "
                f"and ({other.t_order}, {other.v_order})"
            )

    def __repr__(self) -> str:
        return f"TSeries(t_order={self.t_order}, v_order={self.v_order})"
