"""Exact truncated-series arithmetic over rational coefficients.

TruncPoly is the quotient ring Q[v]/(v^(D+1)); TSeries is the ring of
power series in t over it, cut at t^(N+1).  Coefficients are Python ints
or fractions.Fraction and every operation is exact; nothing in this
module touches floating point.  Integer inputs stay ints: a Fraction
appears only in sqrt_one_minus_v and in the inverse of a unit whose lead
is not +-1.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

__all__ = ["TruncPoly", "TSeries", "sqrt_one_minus_v"]

Coeff = int | Fraction


def _mul_coeffs(a: Sequence[Coeff], b: Sequence[Coeff], order: int) -> list[Coeff]:
    out: list[Coeff] = [0] * (order + 1)
    for i, ai in enumerate(a):
        if ai:
            top = order + 1 - i
            for j, bj in enumerate(b[:top]):
                if bj:
                    out[i + j] += ai * bj
    return out


def _inv_coeffs(a: Sequence[Coeff], order: int) -> list[Coeff]:
    lead = a[0]
    if not lead:
        raise ZeroDivisionError("constant term is zero: not a unit")
    # keep integer arithmetic integer: 1/lead only needs Fraction beyond +-1
    inv0 = lead if lead == 1 or lead == -1 else Fraction(1) / lead
    out: list[Coeff] = [inv0] + [0] * order
    for m in range(1, order + 1):
        acc: Coeff = 0
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
        if order < 0:
            raise ValueError("truncation order must be nonnegative")
        c = list(coeffs)[: order + 1]
        c.extend([0] * (order + 1 - len(c)))
        self.coeffs = tuple(c)

    @classmethod
    def zero(cls, order: int) -> TruncPoly:
        return cls((), order)

    @classmethod
    def one(cls, order: int) -> TruncPoly:
        return cls((1,), order)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, k: int) -> Coeff:
        """Coefficient of v^k."""
        return self.coeffs[k]

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def _check(self, other: TruncPoly) -> None:
        if self.order != other.order:
            raise ValueError(f"mixed truncation orders {self.order} and {other.order}")

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, TruncPoly)
            and self.order == other.order
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.order, self.coeffs))

    def __repr__(self) -> str:
        return f"TruncPoly({list(self.coeffs)!r}, order={self.order})"

    def __add__(self, other: TruncPoly) -> TruncPoly:
        self._check(other)
        return TruncPoly((a + b for a, b in zip(self.coeffs, other.coeffs)), self.order)

    def __sub__(self, other: TruncPoly) -> TruncPoly:
        self._check(other)
        return TruncPoly((a - b for a, b in zip(self.coeffs, other.coeffs)), self.order)

    def __neg__(self) -> TruncPoly:
        return TruncPoly((-a for a in self.coeffs), self.order)

    def __mul__(self, other: TruncPoly | Coeff) -> TruncPoly:
        if isinstance(other, TruncPoly):
            self._check(other)
            return TruncPoly(_mul_coeffs(self.coeffs, other.coeffs, self.order), self.order)
        return TruncPoly((a * other for a in self.coeffs), self.order)

    __rmul__ = __mul__

    def inverse(self) -> TruncPoly:
        """Multiplicative inverse; requires a nonzero constant term."""
        return TruncPoly(_inv_coeffs(self.coeffs, self.order), self.order)


def sqrt_one_minus_v(order: int) -> TruncPoly:
    """The square root of 1 - v with constant term +1, as a TruncPoly.

    Built from the binomial series for (1 - v)^(1/2); squaring it gives
    back exactly 1 - v at any truncation order.

    >>> sqrt_one_minus_v(3)
    TruncPoly([Fraction(1, 1), Fraction(-1, 2), Fraction(-1, 8), Fraction(-1, 16)], order=3)
    """
    coeffs = [Fraction(1)]
    binom = Fraction(1)
    for k in range(1, order + 1):
        binom = binom * (Fraction(1, 2) - (k - 1)) / k
        coeffs.append(binom if k % 2 == 0 else -binom)
    return TruncPoly(coeffs, order)


class TSeries:
    """Power series in t modulo t^(t_order+1) with TruncPoly coefficients.

    All coefficients share one v truncation order; arithmetic never mixes
    truncations.
    """

    __slots__ = ("coeffs", "v_order")

    def __init__(self, polys: Iterable[TruncPoly], t_order: int, v_order: int):
        if t_order < 0 or v_order < 0:
            raise ValueError("truncation orders must be nonnegative")
        ps = list(polys)[: t_order + 1]
        for p in ps:
            if p.order != v_order:
                raise ValueError(f"coefficient at v order {p.order}, expected {v_order}")
        ps.extend(TruncPoly.zero(v_order) for _ in range(t_order + 1 - len(ps)))
        self.coeffs = tuple(ps)
        self.v_order = v_order

    @classmethod
    def one(cls, t_order: int, v_order: int) -> TSeries:
        return cls((TruncPoly.one(v_order),), t_order, v_order)

    @property
    def t_order(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, n: int) -> TruncPoly:
        """Coefficient of t^n, a TruncPoly in v."""
        return self.coeffs[n]

    def _check(self, other: TSeries) -> None:
        if self.t_order != other.t_order or self.v_order != other.v_order:
            raise ValueError(
                f"mixed truncation orders ({self.t_order}, {self.v_order}) "
                f"and ({other.t_order}, {other.v_order})"
            )

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, TSeries)
            and self.v_order == other.v_order
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.v_order, self.coeffs))

    def __repr__(self) -> str:
        return f"TSeries(t_order={self.t_order}, v_order={self.v_order})"

    def __add__(self, other: TSeries) -> TSeries:
        self._check(other)
        return TSeries(
            (a + b for a, b in zip(self.coeffs, other.coeffs)), self.t_order, self.v_order
        )

    def __sub__(self, other: TSeries) -> TSeries:
        self._check(other)
        return TSeries(
            (a - b for a, b in zip(self.coeffs, other.coeffs)), self.t_order, self.v_order
        )

    def __neg__(self) -> TSeries:
        return TSeries((-a for a in self.coeffs), self.t_order, self.v_order)

    def __mul__(self, other: TSeries) -> TSeries:
        self._check(other)
        n_top = self.t_order
        d = self.v_order
        acc: list[list[Coeff]] = [[0] * (d + 1) for _ in range(n_top + 1)]
        lhs = [(i, p.coeffs) for i, p in enumerate(self.coeffs) if not p.is_zero()]
        rhs = [(j, q.coeffs) for j, q in enumerate(other.coeffs) if not q.is_zero()]
        for i, a in lhs:
            for j, b in rhs:
                if i + j > n_top:
                    continue
                target = acc[i + j]
                for k, x in enumerate(_mul_coeffs(a, b, d)):
                    if x:
                        target[k] += x
        return TSeries(
            (TruncPoly(row, d) for row in acc), n_top, d
        )

    def inverse(self) -> TSeries:
        """Multiplicative inverse; the t^0 coefficient must be a unit."""
        n_top = self.t_order
        d = self.v_order
        inv0 = self.coeffs[0].inverse().coeffs
        rows: list[Sequence[Coeff]] = [inv0]
        for m in range(1, n_top + 1):
            conv: list[Coeff] = [0] * (d + 1)
            for i in range(1, m + 1):
                p = self.coeffs[i]
                if not p.is_zero():
                    for k, x in enumerate(_mul_coeffs(p.coeffs, rows[m - i], d)):
                        if x:
                            conv[k] += x
            rows.append([-x for x in _mul_coeffs(inv0, conv, d)])
        return TSeries((TruncPoly(row, d) for row in rows), n_top, d)
