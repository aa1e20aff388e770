"""Transform algebra on spectra: sums, products, derivatives, exponentials.

These are the coefficient-level counterparts of pointwise operations on the
underlying functions.  All operations are pure, exact, and preserve the
triangular truncation of their inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .spectrum import CoeffLike, DtmError, Spectrum2D, as_coeff

__all__ = [
    "ExpPrefactor",
    "dt_add",
    "dt_derivative",
    "dt_exp",
    "dt_exp_factored",
    "dt_monomial",
    "dt_monomial_exp",
    "dt_product",
    "dt_scale",
    "dt_sub",
]


def _check_compatible(u: Spectrum2D, v: Spectrum2D) -> None:
    if u.order != v.order:
        raise DtmError(f"order mismatch: {u.order} vs {v.order}")
    if u.origin != v.origin:
        raise DtmError(f"origin mismatch: {u.origin} vs {v.origin}")


def dt_add(u: Spectrum2D, v: Spectrum2D) -> Spectrum2D:
    """Entrywise sum; operands must share order and origin."""
    _check_compatible(u, v)
    table = dict(u.entries)
    for key, value in v.entries.items():
        prev = table.get(key)
        if prev is None:
            table[key] = value
        elif prev == -value:
            del table[key]
        else:
            table[key] = prev + value
    return Spectrum2D(u.order, u.origin, table)


def dt_sub(u: Spectrum2D, v: Spectrum2D) -> Spectrum2D:
    """Entrywise difference."""
    return dt_add(u, dt_scale(-1, v))


def dt_scale(a: CoeffLike, v: Spectrum2D) -> Spectrum2D:
    """Multiply every entry by the scalar a; a = 0 yields the empty spectrum."""
    a = as_coeff(a)
    if a == 0:
        return Spectrum2D(v.order, v.origin, {})
    return Spectrum2D(v.order, v.origin, {k: a * c for k, c in v.entries.items()})


def dt_product(v: Spectrum2D, w: Spectrum2D) -> Spectrum2D:
    """Coefficient table of the pointwise product v*w, truncated to the order.

    Computes U(m,n) = sum_{k=0..m} sum_{l=0..n} V(k, n-l) W(m-k, l) for every
    (m, n) in the triangle; terms beyond the shared order are never formed.
    """
    _check_compatible(v, w)
    order = v.order
    ve = v.entries
    we = w.entries
    table: dict[tuple[int, int], Fraction] = {}
    for m in range(order + 1):
        for n in range(order + 1 - m):
            acc = Fraction(0)
            for k in range(m + 1):
                for l in range(n + 1):
                    vc = ve.get((k, n - l))
                    if vc:
                        wc = we.get((m - k, l))
                        if wc:
                            acc += vc * wc
            if acc != 0:
                table[(m, n)] = acc
    return Spectrum2D(order, v.origin, table)


def dt_derivative(v: Spectrum2D, r: int, s: int) -> Spectrum2D:
    """Spectrum of the mixed partial d^(r+s) v / dx^r dy^s at order - r - s."""
    if r < 0 or s < 0:
        raise DtmError(f"derivative orders must be non-negative, got ({r},{s})")
    if r + s > v.order:
        raise DtmError(f"derivative order {r}+{s} exceeds spectrum order {v.order}")
    new_order = v.order - r - s
    table: dict[tuple[int, int], Fraction] = {}
    for (m, n), c in v.entries.items():
        if m < r or n < s:
            continue
        table[(m - r, n - s)] = math.perm(m, r) * math.perm(n, s) * c
    return Spectrum2D(new_order, v.origin, table)


@dataclass(frozen=True)
class ExpPrefactor:
    """Scalar e**exponent kept symbolic so the exact layer stays rational."""

    exponent: Fraction

    def to_float(self) -> float:
        return math.exp(self.exponent)

    def __str__(self) -> str:
        return f"exp({self.exponent})"


def dt_exp_factored(v: Spectrum2D, a: CoeffLike) -> tuple[Spectrum2D, ExpPrefactor]:
    """Spectrum of e**(a*v) split as prefactor e**(a*v(0,0)) times an exact part.

    The returned spectrum is that of e**(a*(v - v(0,0))), whose constant term
    is exactly 1; the caller decides when to project the prefactor to float.
    """
    a = as_coeff(a)
    if v.origin != (0, 0):
        raise DtmError("dt_exp_factored requires expansion at the origin")
    v00 = v.get(0, 0)
    if v00 != 0:
        shifted = dict(v.entries)
        del shifted[(0, 0)]
        v = Spectrum2D(v.order, v.origin, shifted)
    return _exp_zero_base(v, a), ExpPrefactor(a * v00)


def dt_exp(v: Spectrum2D, a: CoeffLike) -> Spectrum2D:
    """Spectrum of e**(a*v) for v with v(0,0) = 0 (exact-arithmetic path).

    For v(0,0) != 0 the constant term e**(a*v(0,0)) is irrational in general;
    use :func:`dt_exp_factored`, which carries it as a symbolic prefactor.
    """
    a = as_coeff(a)
    if v.get(0, 0) != 0:
        raise DtmError(
            "dt_exp requires v(0,0) = 0; use dt_exp_factored for the general case"
        )
    if v.origin != (0, 0):
        raise DtmError("dt_exp requires expansion at the origin")
    return _exp_zero_base(v, a)


def _exp_zero_base(v: Spectrum2D, a: Fraction) -> Spectrum2D:
    """Exponential recurrence.  Branch policy: the m-recurrence whenever
    m >= 1, the n-recurrence only on the m = 0 column.  The two agree on the
    overlap (property-tested)."""
    order = v.order
    u: dict[tuple[int, int], Fraction] = {(0, 0): Fraction(1)}
    for d in range(1, order + 1):
        for m in range(d, -1, -1):
            n = d - m
            if m >= 1:
                acc = Fraction(0)
                for (mk, l), vc in v.entries.items():
                    # term V(m-k, l) U(k, n-l) with m-k = mk >= 1
                    k = m - mk
                    if k < 0 or mk < 1 or l > n:
                        continue
                    uc = u.get((k, n - l))
                    if uc:
                        acc += Fraction(mk, m) * vc * uc
            else:
                acc = Fraction(0)
                for (k, nl), vc in v.entries.items():
                    # term V(k, n-l) U(m-k, l) with n-l = nl >= 1
                    if k > m or nl < 1 or nl > n:
                        continue
                    uc = u.get((m - k, n - nl))
                    if uc:
                        acc += Fraction(nl, n) * vc * uc
            value = a * acc
            if value != 0:
                u[(m, n)] = value
    return Spectrum2D(order, v.origin, u)


def dt_monomial(k: int, h: int, order: int) -> Spectrum2D:
    """Spectrum of x**k * y**h: a single unit entry at (k, h)."""
    if k < 0 or h < 0:
        raise DtmError(f"monomial exponents must be non-negative, got ({k},{h})")
    if k + h > order:
        raise DtmError(f"monomial degree {k}+{h} exceeds order {order}")
    return Spectrum2D(order, (Fraction(0), Fraction(0)), {(k, h): Fraction(1)})


def dt_monomial_exp(k: int, a: CoeffLike, order: int) -> Spectrum2D:
    """Spectrum of x**k * e**(a*y): U(k, n) = a**n / n! for k + n <= order."""
    a = as_coeff(a)
    if k < 0:
        raise DtmError(f"monomial exponent must be non-negative, got {k}")
    if k > order:
        raise DtmError(f"monomial degree {k} exceeds order {order}")
    table: dict[tuple[int, int], Fraction] = {}
    for n in range(order - k + 1):
        value = a**n / math.factorial(n)
        if value != 0:
            table[(k, n)] = value
    return Spectrum2D(order, (Fraction(0), Fraction(0)), table)
