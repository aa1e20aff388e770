"""Transform algebra on spectra: sums, products, derivatives, exponentials.

These are the coefficient-level counterparts of pointwise operations on the
underlying functions.  All operations are pure, exact, and preserve the
triangular truncation of their inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .spectrum import CoeffLike, DtmError, Spectrum2D, _check_index, as_coeff, to_float

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


def dt_add(u: Spectrum2D, v: Spectrum2D) -> Spectrum2D:
    """Entrywise sum; operands must share their order."""
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
    return Spectrum2D(u.order, entries=table)


def dt_sub(u: Spectrum2D, v: Spectrum2D) -> Spectrum2D:
    """Entrywise difference."""
    return dt_add(u, dt_scale(-1, v))


def dt_scale(a: CoeffLike, v: Spectrum2D) -> Spectrum2D:
    """Multiply every entry by the scalar a; a = 0 yields the empty spectrum."""
    a = as_coeff(a)
    if a == 0:
        return Spectrum2D(v.order)
    return Spectrum2D(v.order, entries={k: a * c for k, c in v.entries.items()})


def dt_product(v: Spectrum2D, w: Spectrum2D) -> Spectrum2D:
    """Coefficient table of the pointwise product v*w, truncated to the order.

    U(m,n) = sum V(k,j) W(p,q) over k+p = m, j+q = n, formed as a sparse
    convolution in integers: each operand is written as integer numerators
    over one common denominator (the lcm of its entries' denominators), the
    pairs of nonzero entries are walked in total-degree order and cut off
    once k+j+p+q exceeds the order, and each output entry is reduced to
    lowest terms once.  The result equals the Fraction-by-Fraction sum.

    Trade-off: operands whose entries have many unrelated large denominators
    make the common denominator, and so every numerator, huge; at order 28
    with hundreds of distinct primes per operand this is several times
    slower than pairwise Fraction arithmetic.  Traces from
    :func:`~dtm2d.taylor.taylor_coeffs` share factorial denominators and do
    not hit this.
    """
    _check_compatible(v, w)
    order = v.order
    dv, vs = _integer_entries(v)
    dw, ws = _integer_entries(w)
    acc: dict[tuple[int, int], int] = {}
    for d, k, j, a in vs:
        for e, p, q, b in ws:
            if d + e > order:
                break
            key = (k + p, j + q)
            acc[key] = acc.get(key, 0) + a * b
    scale = dv * dw
    table = {key: Fraction(s, scale) for key, s in sorted(acc.items()) if s}
    return Spectrum2D(order, entries=table)


def _integer_entries(v: Spectrum2D) -> tuple[int, list[tuple[int, int, int, int]]]:
    """Common denominator D of v's entries and (m+n, m, n, D*V(m,n)) by degree."""
    denom = math.lcm(*(c.denominator for c in v.entries.values()))
    return denom, sorted(
        (m + n, m, n, c.numerator * (denom // c.denominator))
        for (m, n), c in v.entries.items()
    )


def dt_derivative(v: Spectrum2D, r: int, s: int) -> Spectrum2D:
    """Spectrum of the mixed partial d^(r+s) v / dx^r dy^s at order - r - s;
    (r, s) is checked as an index of v's triangle."""
    _check_index(r, s, v.order)
    new_order = v.order - r - s
    table: dict[tuple[int, int], Fraction] = {}
    for (m, n), c in v.entries.items():
        if m < r or n < s:
            continue
        table[(m - r, n - s)] = math.perm(m, r) * math.perm(n, s) * c
    return Spectrum2D(new_order, entries=table)


@dataclass(frozen=True)
class ExpPrefactor:
    """Scalar e**exponent kept symbolic so the exact layer stays rational."""

    exponent: Fraction

    def to_float(self) -> float:
        """e**exponent, or 0.0 and inf where it leaves the float range."""
        try:
            return math.exp(to_float(*self.exponent.as_integer_ratio()))
        except OverflowError:
            return math.inf

    def __str__(self) -> str:
        return f"exp({self.exponent})"


def dt_exp_factored(v: Spectrum2D, a: CoeffLike) -> tuple[Spectrum2D, ExpPrefactor]:
    """Spectrum of e**(a*v) split as prefactor e**(a*v(0,0)) times an exact part.

    The returned spectrum is that of e**(a*(v - v(0,0))), whose constant term
    is exactly 1; the caller decides when to project the prefactor to float.
    """
    a = as_coeff(a)
    v00 = v.get(0, 0)
    if v00 != 0:
        shifted = dict(v.entries)
        del shifted[(0, 0)]
        v = Spectrum2D(v.order, entries=shifted)
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
    return _exp_zero_base(v, a)


def _exp_zero_base(v: Spectrum2D, a: Fraction) -> Spectrum2D:
    """Exponential recurrence.  Branch policy: the m-recurrence whenever
    m >= 1, the n-recurrence only on the m = 0 column.  The two agree on the
    overlap (property-tested).

    U(m,n) = (a/m) sum mk V(mk,l) U(m-mk, n-l) over mk >= 1, and on the
    m = 0 column (a/n) sum nl V(k,nl) U(m-k, n-nl) over nl >= 1; the weights
    mk V and nl V are formed once per call, the division once per entry."""
    order = v.order
    by_m = [(mk, l, mk * vc) for (mk, l), vc in v.entries.items() if mk >= 1]
    by_n = [(k, nl, nl * vc) for (k, nl), vc in v.entries.items() if nl >= 1]
    u: dict[tuple[int, int], Fraction] = {(0, 0): Fraction(1)}
    for d in range(1, order + 1):
        for m in range(d, -1, -1):
            n = d - m
            acc = Fraction(0)
            if m >= 1:
                for mk, l, wc in by_m:
                    k = m - mk
                    if k < 0 or l > n:
                        continue
                    uc = u.get((k, n - l))
                    if uc:
                        acc += wc * uc
                value = a * acc / m
            else:
                for k, nl, wc in by_n:
                    if k > m or nl > n:
                        continue
                    uc = u.get((m - k, n - nl))
                    if uc:
                        acc += wc * uc
                value = a * acc / n
            if value != 0:
                u[(m, n)] = value
    return Spectrum2D(order, entries=u)


def dt_monomial(k: int, h: int, order: int) -> Spectrum2D:
    """Spectrum of x**k * y**h: a single unit entry at (k, h)."""
    Spectrum2D(order)  # refuses a bad order before the index is compared with it
    _check_index(k, h, order)
    return Spectrum2D(order, entries={(k, h): Fraction(1)})


def dt_monomial_exp(k: int, a: CoeffLike, order: int) -> Spectrum2D:
    """Spectrum of x**k * e**(a*y): U(k, n) = a**n / n! for k + n <= order."""
    a = as_coeff(a)
    Spectrum2D(order)  # refuses a bad order before the index is compared with it
    _check_index(k, 0, order)
    table: dict[tuple[int, int], Fraction] = {}
    for n in range(order - k + 1):
        value = a**n / math.factorial(n)
        if value != 0:
            table[(k, n)] = value
    return Spectrum2D(order, entries=table)
