"""Core value types: exact rational coefficients and triangular 2D spectra.

A spectrum is a sparse table of scaled Taylor coefficients ``U(m, n)`` of a
bivariate function at the corner (0, 0) of the square, kept in exact rational
arithmetic so that downstream algebra is loss-free.  Floats appear only when
a spectrum is evaluated (see :mod:`dtm2d.verify`), and every exact value
becomes one through :func:`to_float`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Union

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


@dataclass(frozen=True)
class Spectrum2D:
    """Triangular table of coefficients U(m, n) for m + n <= order.

    Entries are stored sparsely; a missing key reads as zero and zero values
    are never stored.  Instances are immutable values: the entries dict is
    private to the instance and must not be mutated after construction.
    The expansion point is always (0, 0): ``origin`` stays the second field so
    that ``Spectrum2D(order, (0, 0), entries)`` builds, and any other value is
    refused.  ``memo`` is not part of the value: :mod:`dtm2d.verify` keeps the
    float projections and row sums of this spectrum there, freed with it.
    """

    order: int
    origin: tuple[CoeffLike, CoeffLike] = (0, 0)
    entries: Mapping[tuple[int, int], Fraction] = field(default_factory=dict)
    memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if isinstance(self.order, bool) or not isinstance(self.order, int) or self.order < 0:
            raise DtmError(f"order must be a non-negative integer, got {self.order!r}")
        if self.origin != (0, 0):
            raise DtmError(f"origin must be (0, 0), got {self.origin!r}")
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
        _check_index(m, n)
        return self.entries.get((m, n), Fraction(0))

    def is_zero(self) -> bool:
        return not self.entries

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Spectrum2D):
            return NotImplemented
        return self.order == other.order and dict(self.entries) == dict(other.entries)

    def __repr__(self) -> str:
        body = ", ".join(
            f"({m},{n})={v}" for (m, n), v in sorted(self.entries.items())
        )
        return f"Spectrum2D(order={self.order}, {{{body}}})"


def _check_index(m: int, n: int, order: Optional[int] = None) -> None:
    """Raise DtmError unless m and n are non-negative integers, not bools,
    with m + n <= order when an order is given (one already checked)."""
    if any(isinstance(i, bool) or not isinstance(i, int) for i in (m, n)):
        raise DtmError(f"index ({m!r},{n!r}) is not a pair of integers")
    if m < 0 or n < 0:
        raise DtmError(f"negative index ({m},{n})")
    if order is not None and m + n > order:
        raise DtmError(f"index ({m},{n}) exceeds order {order}")


def make_spectrum(
    order: int,
    entries: Iterable[tuple[int, int, CoeffLike]] = (),
) -> Spectrum2D:
    """Build a canonical sparse spectrum from (m, n, coefficient) triples.

    Rejects a bad order (as :class:`Spectrum2D` does), a bad index (as
    :func:`_check_index` does) and duplicate keys; drops zeros.
    """
    Spectrum2D(order)  # refuses a bad order before any index is compared with it
    table: dict[tuple[int, int], Fraction] = {}
    seen: set[tuple[int, int]] = set()
    for m, n, raw in entries:
        _check_index(m, n, order)
        if (m, n) in seen:
            raise DtmError(f"duplicate entry ({m},{n})")
        seen.add((m, n))
        value = as_coeff(raw)
        if value != 0:
            table[(m, n)] = value
    return Spectrum2D(order, entries=table)


def truncate(s: Spectrum2D, new_order: int) -> Spectrum2D:
    """Drop entries with m + n > new_order; kept entries are bit-identical."""
    Spectrum2D(new_order)  # refuses a bad order before it is compared with s's
    if new_order > s.order:
        raise DtmError(f"truncation order {new_order} outside [0, {s.order}]")
    kept = {k: v for k, v in s.entries.items() if k[0] + k[1] <= new_order}
    return Spectrum2D(new_order, entries=kept)


def spectrum_to_json(s: Spectrum2D) -> dict:
    """JSON-ready dict with entries sorted by (m, n) and exact "p/q" strings."""
    return {
        "order": s.order,
        "origin": [0.0, 0.0],
        "entries": [
            [m, n, coeff_str(v)] for (m, n), v in sorted(s.entries.items())
        ],
    }


def spectrum_from_json(data: Mapping) -> Spectrum2D:
    """Inverse of :func:`spectrum_to_json`.

    The origin may be absent or zero (int or float); any other is refused,
    since every spectrum is expanded at (0, 0).  The order and the indices
    are checked by :func:`make_spectrum`, and each entry must be a
    coefficient (:func:`as_coeff`), never a float.
    """
    try:
        order = data["order"]
        origin = list(data.get("origin", [0, 0]))
        triples = [(m, n, v) for m, n, v in data["entries"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise DtmError(f"malformed spectrum JSON: {exc}") from exc
    if len(origin) != 2 or not all(type(c) in (int, float) and c == 0 for c in origin):
        raise DtmError(f"malformed spectrum JSON: origin {origin!r} is not [0, 0]")
    return make_spectrum(order, triples)
