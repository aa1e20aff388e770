"""Boundary-trace descriptors, exact 1D Taylor coefficient generation, and
float trace values with a bound on their rounding.

A trace is a closed-form function of one variable built from a small library
(sin, cos, sinh, cosh, exp, polynomials, zero), an exact rational argument
scale and amplitude, an optional symbolic amplitude token for the
transcendental constants of boundary data (sinh(pi) and friends), and
optional summation of such terms.  A token is itself a trace taken at t = pi,
so exact inference expands it as ``taylor_coeffs(token, N)`` in powers of pi
and the float layer resolves it as ``trace_value(token, pi)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property
from fractions import Fraction
from typing import Mapping, Optional, Sequence

from .spectrum import CoeffLike, DtmError, Spectrum2D, as_coeff, to_float

KINDS = ("sin", "cos", "sinh", "cosh", "exp", "polynomial", "zero")
# A token's pi-series must have one parity: the exact inference route matches
# it against the unknown seed layer's pi-parity block.
TOKEN_KINDS = ("sin", "cos", "sinh", "cosh")

__all__ = [
    "FuncSpec",
    "KINDS",
    "TOKEN_KINDS",
    "funcspec_from_json",
    "outer_product",
    "taylor_coeffs",
    "trace_value",
]


@dataclass(frozen=True)
class FuncSpec:
    """Symbolic descriptor of a 1D boundary trace: amplitude * f(scale * t).

    ``sym_amp`` multiplies the whole term by a constant that the exact layer
    keeps symbolic: None or a token, a :data:`TOKEN_KINDS` trace of amplitude
    1 standing for its value at t = pi.  A sum of terms is expressed with
    ``terms`` set and every other field at its default, or it is refused.
    """

    kind: str = "zero"
    arg_scale: Fraction = Fraction(1)
    amplitude: Fraction = Fraction(1)
    sym_amp: Optional["FuncSpec"] = None
    poly_coeffs: Optional[tuple[Fraction, ...]] = None
    terms: Optional[tuple["FuncSpec", ...]] = None

    def __post_init__(self) -> None:
        if self.terms is not None:
            if not self.terms:
                raise DtmError("sum trace needs at least one term")
            for f in fields(self):
                if f.name != "terms" and getattr(self, f.name) != f.default:
                    raise DtmError(f"a sum trace takes terms alone; its {f.name} is set")
            for t in self.terms:
                if t.terms is not None:
                    raise DtmError("nested sum traces are not supported")
            return
        if self.kind not in KINDS:
            raise DtmError(f"unknown trace kind {self.kind!r}")
        token = self.sym_amp
        if token is not None and not (
            isinstance(token, FuncSpec) and token.kind in TOKEN_KINDS
            and token.amplitude == 1 and token.sym_amp is None
        ):
            raise DtmError(
                f"a symbolic amplitude is null or one {TOKEN_KINDS} term of amplitude 1, "
                f'a trace object such as {{"kind": "sinh", "arg_scale": "2"}} for '
                f"sinh(2pi); got {token!r}"
            )
        object.__setattr__(self, "arg_scale", as_coeff(self.arg_scale))
        object.__setattr__(self, "amplitude", as_coeff(self.amplitude))
        if self.kind == "polynomial":
            if not self.poly_coeffs:
                raise DtmError("polynomial trace needs coefficients")
            object.__setattr__(
                self, "poly_coeffs", tuple(as_coeff(c) for c in self.poly_coeffs)
            )
        elif self.poly_coeffs is not None:
            raise DtmError(f"{self.kind} trace cannot carry poly_coeffs")

    def is_zero(self) -> bool:
        """True when the trace is identically zero."""
        if self.terms is not None:
            return all(t.is_zero() for t in self.terms)
        if self.kind == "zero" or self.amplitude == 0:
            return True
        if self.kind == "polynomial":
            return all(c == 0 for c in self.poly_coeffs)
        return False

    def flat_terms(self) -> tuple["FuncSpec", ...]:
        """The trace as a tuple of single-library terms."""
        return self.terms if self.terms is not None else (self,)

    @cached_property
    def _float_terms(self) -> tuple[tuple[float, float, object], ...]:
        """Per nonzero term, what :func:`trace_value` needs at every t: the
        float amplitude times the token's value at pi, the float argument
        scale, and the math function of the kind or, for a polynomial, its
        float coefficients highest first.  Computed on first use."""
        out = []
        for term in self.flat_terms():
            if term.kind == "zero" or term.amplitude == 0:
                continue
            token = 1.0 if term.sym_amp is None else trace_value(term.sym_amp, math.pi)
            if term.kind == "polynomial":
                base = tuple(to_float(*c.as_integer_ratio()) for c in reversed(term.poly_coeffs))
            else:  # the other kinds are named after their math functions
                base = getattr(math, term.kind)
            out.append((to_float(*term.amplitude.as_integer_ratio()) * token,
                        to_float(*term.arg_scale.as_integer_ratio()), base))
        return tuple(out)


# The series kinds, each named after its math function: (first k, step in k,
# sign factor per step) of its nonzero coefficients +-1 / k!, then its
# derivative d/dt f(t) = sign * f'(t) as (f', sign).
_SERIES = {"sin": (1, 2, -1, "cos", 1), "cos": (0, 2, -1, "sin", -1),
           "sinh": (1, 2, 1, "cosh", 1), "cosh": (0, 2, 1, "sinh", 1),
           "exp": (0, 1, 1, "exp", 1)}


def taylor_coeffs(f: FuncSpec, order: int) -> list[Fraction]:
    """Exact coefficients of the trace at t = 0, length order + 1.

    Coefficient k is f^(k)(0)/k!.  For a transcendental term it is
    amplitude * sign * scale**k / k!, stepped from k to the next nonzero k as
    an integer numerator and denominator, so each nonzero coefficient is one
    Fraction; a polynomial term scales its own coefficients.  Traces carrying
    a symbolic amplitude are rejected: the exact layer never multiplies
    tokens into rationals.
    """
    Spectrum2D(order)  # refuses a bool, non-integer or negative order
    out = [Fraction(0)] * (order + 1)
    for term in f.flat_terms():
        if term.sym_amp is not None:
            raise DtmError(
                "trace carries a symbolic amplitude; exact coefficients are "
                "not defined (use trace_value)"
            )
        if term.kind == "zero" or term.amplitude == 0:
            continue
        if term.kind == "polynomial":
            scale_pow = Fraction(1)
            for k, c in enumerate(term.poly_coeffs[: order + 1]):
                if c != 0:
                    out[k] += term.amplitude * scale_pow * c
                scale_pow *= term.arg_scale
            continue
        start, step, flip = _SERIES[term.kind][:3]
        p, q = term.arg_scale.numerator, term.arg_scale.denominator
        num = term.amplitude.numerator * p**start  # start! == 1
        den = term.amplitude.denominator * q**start
        for k in range(start, order + 1, step):
            if num:
                value = Fraction(num, den)
                out[k] = out[k] + value if out[k] else value
            num *= flip * p**step
            den *= q**step * math.perm(k + step, step)
    return out


def trace_value(f: FuncSpec, t: float) -> float:
    """Evaluate the trace at t using the platform's transcendental functions:
    the sum over terms of (amplitude * token) * base(scale * t), in term
    order, a polynomial base by Horner.  The constants come converted to
    floats once per trace (``FuncSpec._float_terms``).  A sinh, cosh or exp
    past the float range is +-inf, where math raises."""
    total = 0.0
    for weight, scale, base in f._float_terms:
        u = scale * t
        if isinstance(base, tuple):  # polynomial coefficients, highest first
            value = 0.0
            for c in base:
                value = value * u + c
        else:
            try:
                value = base(u)
            except OverflowError:  # only sinh changes sign with u
                value = math.copysign(math.inf, u) if base is math.sinh else math.inf
        total += weight * value
    return total


def _base_error(term: FuncSpec, t: float) -> tuple[float, float]:
    """|g(u)| for a term's base g at u = scale * t, and a first-order bound,
    in units of 2**-52, on the float error of g(u) against g at exact t: one
    rounding of the result plus three of the argument (scale, t and their
    product) times |u g'(u)|, or for polynomials Horner's 2n roundings plus
    the argument's (Higham, ch. 5)."""
    u = to_float(*term.arg_scale.as_integer_ratio()) * t
    if term.kind == "polynomial":
        n = len(term.poly_coeffs)
        value = size = 0.0
        for i, c in reversed(list(enumerate(term.poly_coeffs))):
            c = to_float(*c.as_integer_ratio())
            value = value * u + c
            size += (2 * n + 3 * i) * abs(c) * abs(u) ** i
        return abs(value), size
    value = abs(getattr(math, term.kind)(u))
    return value, value + 3 * abs(u * getattr(math, _SERIES[term.kind][3])(u))


def _trace_rounding(f: FuncSpec, t: float) -> float:
    """First-order bound on the float error of ``trace_value(f, t)`` against
    the trace at exact t, tokens at exact pi.  Per term amplitude * T * B
    the error is at most |amplitude| (dT |B| + |T| dB) plus three roundings
    of the product, and the sum of n terms adds n - 1 more (Higham, ch. 3),
    so (n + 3) * 2**-52 * sum |amplitude| (dT |B| + |T| dB) bounds it.

    The bound matters where a term vanishes at the corner but its factors do
    not: sin(6y) cosh(6 pi) at y = pi is about 6e-8 in floats, not 0.
    """
    terms = [x for x in f.flat_terms() if x.kind != "zero" and x.amplitude != 0]
    size = 0.0
    for term in terms:
        base, base_err = _base_error(term, t)
        token, token_err = (
            (1.0, 0.0) if term.sym_amp is None else _base_error(term.sym_amp, math.pi)
        )
        amplitude = to_float(*term.amplitude.as_integer_ratio())
        size += abs(amplitude) * (token_err * base + token * base_err)
    return (len(terms) + 3) * 2.0**-52 * size


def outer_product(
    f_coeffs: Sequence[CoeffLike], g_coeffs: Sequence[CoeffLike], order: int
) -> Spectrum2D:
    """Rank-one spectrum U(m, n) = F(m) G(n) over the triangle m + n <= order."""
    Spectrum2D(order)  # refuses a bad order before it is compared with the lengths
    if len(f_coeffs) < order + 1 or len(g_coeffs) < order + 1:
        raise DtmError(
            f"need at least {order + 1} coefficients per factor, got "
            f"{len(f_coeffs)} and {len(g_coeffs)}"
        )
    fs = [as_coeff(c) for c in f_coeffs[: order + 1]]
    gs = [as_coeff(c) for c in g_coeffs[: order + 1]]
    table: dict[tuple[int, int], Fraction] = {}
    for m, fm in enumerate(fs):
        if fm == 0:
            continue
        for n in range(order - m + 1):
            value = fm * gs[n]
            if value != 0:
                table[(m, n)] = value
    return Spectrum2D(order, entries=table)


_TERM_KEYS = ("kind", "arg_scale", "amplitude", "sym_amp", "poly_coeffs")


def funcspec_from_json(data: Mapping) -> FuncSpec:
    """A trace from its JSON object: ``kind``, ``arg_scale``, ``amplitude``,
    ``sym_amp`` (a token's own object) and ``poly_coeffs``, or ``terms``
    alone.  Any other key is an error."""
    if not isinstance(data, Mapping):
        raise DtmError(f"trace JSON must be an object, got {data!r}")
    terms, poly = data.get("terms"), data.get("poly_coeffs")
    keys = ("terms",) if terms is not None else _TERM_KEYS
    unknown = set(data) - {*keys, "terms"}  # a null "terms" reads as absent
    if unknown:
        raise DtmError(
            f"unknown trace key {min(unknown, key=str)!r}; "
            f"{'a sum' if terms is not None else 'a term'} takes {', '.join(keys)}"
        )
    for key, value in (("terms", terms), ("poly_coeffs", poly)):
        if value is not None and not isinstance(value, (list, tuple)):
            raise DtmError(f"trace JSON {key!r} must be a list, got {value!r}")
    if terms is not None:
        return FuncSpec(terms=tuple(funcspec_from_json(t) for t in terms))
    try:
        kind = data["kind"]
    except KeyError as exc:
        raise DtmError("trace JSON needs a 'kind' or 'terms' field") from exc
    token = data.get("sym_amp")
    return FuncSpec(
        kind=kind,
        arg_scale=as_coeff(data.get("arg_scale", 1)),
        amplitude=as_coeff(data.get("amplitude", 1)),
        sym_amp=funcspec_from_json(token) if isinstance(token, Mapping) else token,
        poly_coeffs=tuple(as_coeff(c) for c in poly) if poly is not None else None,
    )
