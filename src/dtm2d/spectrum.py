"""Core value types: exact rational coefficients and triangular 2D spectra.

A spectrum is a sparse table of scaled Taylor coefficients ``U(m, n)`` of a
bivariate function around an expansion point, kept in exact rational
arithmetic so that downstream algebra is loss-free.  Floats appear only when
a spectrum is evaluated (see :mod:`dtm2d.verify`), and every exact value
becomes one through :func:`to_float`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Union

CoeffLike = Union[Fraction, int, str]

__all__ = [
    "CoeffLike",
    "DtmError",
    "Spectrum2D",
    "as_coeff",
    "coeff_str",
    "make_spectrum",
    "spectrum_from_json",
    "spectrum_to_json",
    "to_float",
    "truncate",
]


class DtmError(ValueError):
    """Raised on contract violations (bad degrees, mismatched operands, ...)."""


def as_coeff(value: CoeffLike) -> Fraction:
    """Coerce an int, string ("3", "-1/6") or Fraction to an exact coefficient."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise DtmError(f"not a coefficient: {value!r}")
    if isinstance(value, (int, str)):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise DtmError(f"not a coefficient: {value!r}") from exc
    raise DtmError(f"not a coefficient: {value!r}")


def coeff_str(value: Fraction) -> str:
    """Render a coefficient as an explicit "p/q" fraction string."""
    return f"{value.numerator}/{value.denominator}"


def to_float(num: int, den: int) -> float:
    """num / den (den > 0) correctly rounded, or +-inf with the sign of num past
    the float range; a Fraction c converts as ``to_float(*c.as_integer_ratio())``."""
    try:
        return num / den
    except OverflowError:
        return math.inf if num > 0 else -math.inf


def _origin_coeff(value) -> Fraction:
    """Origins may be given as finite floats (exact binary rationals); entries
    may not."""
    if isinstance(value, float):
        if not math.isfinite(value):
            raise DtmError(f"origin must be finite, got {value!r}")
        return Fraction(value)
    return as_coeff(value)


@dataclass(frozen=True)
class Spectrum2D:
    """Triangular table of coefficients U(m, n) for m + n <= order.

    Entries are stored sparsely; a missing key reads as zero and zero values
    are never stored.  Instances are immutable values: the entries dict is
    private to the instance and must not be mutated after construction.
    """

    order: int
    origin: tuple[Fraction, Fraction] = (Fraction(0), Fraction(0))
    entries: Mapping[tuple[int, int], Fraction] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.order < 0:
            raise DtmError(f"order must be non-negative, got {self.order}")
        object.__setattr__(
            self, "origin", (_origin_coeff(self.origin[0]), _origin_coeff(self.origin[1]))
        )
        for (m, n), value in self.entries.items():
            if m < 0 or n < 0:
                raise DtmError(f"negative index ({m},{n})")
            if m + n > self.order:
                raise DtmError(
                    f"entry ({m},{n}) exceeds order {self.order}"
                )
            if not isinstance(value, Fraction) or value == 0:
                raise DtmError(f"non-canonical entry at ({m},{n}): {value!r}")

    def get(self, m: int, n: int) -> Fraction:
        """Coefficient at (m, n); zero when absent or outside the triangle."""
        if m < 0 or n < 0:
            raise DtmError(f"negative index ({m},{n})")
        return self.entries.get((m, n), Fraction(0))

    def is_zero(self) -> bool:
        return not self.entries

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Spectrum2D):
            return NotImplemented
        return (
            self.order == other.order
            and self.origin == other.origin
            and dict(self.entries) == dict(other.entries)
        )

    def __repr__(self) -> str:  # compact: only non-default origin shown
        parts = [f"order={self.order}"]
        if self.origin != (0, 0):
            parts.append(f"origin={self.origin}")
        body = ", ".join(
            f"({m},{n})={v}" for (m, n), v in sorted(self.entries.items())
        )
        return f"Spectrum2D({', '.join(parts)}, {{{body}}})"


def make_spectrum(
    order: int,
    entries: Iterable[tuple[int, int, CoeffLike]] = (),
    origin: tuple[Union[CoeffLike, float], Union[CoeffLike, float]] = (0, 0),
) -> Spectrum2D:
    """Build a canonical sparse spectrum from (m, n, coefficient) triples.

    Rejects duplicate keys and entries beyond the triangle; drops zeros.
    """
    if order < 0:
        raise DtmError(f"order must be non-negative, got {order}")
    table: dict[tuple[int, int], Fraction] = {}
    seen: set[tuple[int, int]] = set()
    for m, n, raw in entries:
        if m < 0 or n < 0:
            raise DtmError(f"negative index ({m},{n})")
        if m + n > order:
            raise DtmError(f"entry ({m},{n}) exceeds order {order}")
        if (m, n) in seen:
            raise DtmError(f"duplicate entry ({m},{n})")
        seen.add((m, n))
        value = as_coeff(raw)
        if value != 0:
            table[(m, n)] = value
    return Spectrum2D(order, (_origin_coeff(origin[0]), _origin_coeff(origin[1])), table)


def truncate(s: Spectrum2D, new_order: int) -> Spectrum2D:
    """Drop entries with m + n > new_order; kept entries are bit-identical."""
    if new_order < 0 or new_order > s.order:
        raise DtmError(
            f"truncation order {new_order} outside [0, {s.order}]"
        )
    kept = {k: v for k, v in s.entries.items() if k[0] + k[1] <= new_order}
    return Spectrum2D(new_order, s.origin, kept)


def _origin_json(value: Fraction) -> Union[float, str]:
    """A float when one represents the origin exactly, else a "p/q" string."""
    as_float = to_float(*value.as_integer_ratio())
    if math.isfinite(as_float) and Fraction(as_float) == value:
        return as_float
    return coeff_str(value)


def spectrum_to_json(s: Spectrum2D) -> dict:
    """JSON-ready dict with entries sorted by (m, n) and exact "p/q" strings."""
    return {
        "order": s.order,
        "origin": [_origin_json(s.origin[0]), _origin_json(s.origin[1])],
        "entries": [
            [m, n, coeff_str(v)] for (m, n), v in sorted(s.entries.items())
        ],
    }


def spectrum_from_json(data: Mapping) -> Spectrum2D:
    """Inverse of :func:`spectrum_to_json`.

    An origin coordinate is a float, read back as its exact binary rational
    (the rule :class:`Spectrum2D` applies), or a "p/q" string for a rational
    no float represents; either way the origin survives the round trip.  The
    order and the indices must be integers, and each entry a coefficient
    (:func:`as_coeff`), never a float.
    """
    try:
        order = data["order"]
        ox, oy = data.get("origin", [0, 0])
        triples = [(m, n, v) for m, n, v in data["entries"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise DtmError(f"malformed spectrum JSON: {exc}") from exc
    for index in (order, *(i for m, n, _ in triples for i in (m, n))):
        if not isinstance(index, int) or isinstance(index, bool):
            raise DtmError(f"malformed spectrum JSON: {index!r} is not an integer")
    return make_spectrum(order, triples, (ox, oy))
