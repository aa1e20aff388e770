"""Float-side evaluation of truncated series and error measurement.

Everything here projects exact spectra to floats: series evaluation with a
fixed Horner summation order (so error reports are reproducible), boundary
and closed-form residuals, and exact spectrum comparison.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, Sequence

# dt_derivative is unused here; kept importable because perfbench/tracer.py wraps it.
from .rules import dt_derivative, dt_sub  # noqa: F401
from .spectrum import DtmError, Spectrum2D, to_float
from .taylor import FuncSpec, trace_value

if TYPE_CHECKING:  # runtime import would be circular; solver imports verify
    from .solver import BoundarySpec

_K, _F = r"([1-9]\d*(?:/[1-9]\d*)?)", r"(sin|cos|sinh|cosh)"
_PRODUCT = rf"(?:{_K}\*)?{_F}\({_K}?x\)\*{_F}\({_K}?y\)"
_TERM = re.compile(r"([+-]?)" + _PRODUCT)
_REFERENCE = re.compile(rf"-?{_PRODUCT}(?:[+-]{_PRODUCT})*")

__all__ = [
    "ReferenceSolution",
    "boundary_residual",
    "compare_closed_form",
    "eval2d",
    "eval_grid",
    "spectrum_diff",
]


@dataclass(frozen=True)
class ReferenceSolution:
    """A closed form: a sum of signed terms a*F(kx)*G(ky), F, G in sin, cos,
    sinh, cosh and a, k optional positive rationals, such as "cos(3/2x)*cosh(3/2y)"
    or "sin(x)*sinh(y)-1/2*cos(2x)*cosh(2y)".  ``terms`` holds the signed (a, F, G)."""

    descriptor: str
    terms: tuple[tuple[Fraction, FuncSpec, FuncSpec], ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not (isinstance(self.descriptor, str) and _REFERENCE.fullmatch(self.descriptor)):
            raise DtmError(f"unknown reference {self.descriptor!r}; expected a*F(kx)*G(ky)+...")
        object.__setattr__(self, "terms", tuple(
            (Fraction(sign + (a or "1")), FuncSpec(kind=f, arg_scale=kx or 1),
             FuncSpec(kind=g, arg_scale=ky or 1))
            for sign, a, f, kx, g, ky in _TERM.findall(self.descriptor)
        ))


def _check_count(name: str, count: int) -> None:
    """Raise DtmError unless a number of grid or sample points is an int, not a bool, >= 2."""
    if isinstance(count, bool) or not isinstance(count, int) or count < 2:
        raise DtmError(f"{name} must be an integer, got {count!r}; at least 2 points are needed")


def _stride(items: list, exact: bool) -> tuple[list, list]:
    """A Horner list, highest power first, as (pairs, singles) for :func:`_horner`:
    if ``exact`` and every odd-offset item is 0.0 or an empty row, its even-offset
    items, plus its last item if that is at an odd offset; else ``([], items)``."""
    if not exact or any(items[1::2]):
        return [], items
    return items[::2], items[-1:] if len(items) % 2 == 0 else []


def _project(s: Spectrum2D, r: int = 0, q: int = 0) -> tuple[list, list]:
    """Float coefficient rows of d^(r+q) s / dx^r dy^q, for :func:`_row_sums`.

    Rows run from the highest stored m down to 0, each from its highest
    stored n down to 0 (empty without entries): Horner from 0.0 stays +0.0
    through the trimmed +0.0 slots, so no value or sign of zero changes.  The
    entry from U(m, n) is one :func:`to_float` of (perm(m, r) perm(n, q)
    U.numerator) / U.denominator, without building a derivative spectrum.
    If the rows hold one nonzero float per entry written, :func:`_stride`
    drops the +0.0 slots of each row whose stored n all share its top one's
    parity, and the empty rows when every nonempty row's m shares the top
    one's parity; every other row keeps its slots.
    """
    top = [-1] * (s.order + 1)  # highest stored n per row of s, then of the derivative
    for m, n in s.entries:
        if n > top[m]:
            top[m] = n
    top = [t - q if t >= q else -1 for t in top[r:]]
    while top and top[-1] < 0:
        top.pop()
    rows: list[list[float]] = [[0.0] * (t + 1) for t in top]
    written = len(s.entries)
    if r or q:
        perm_m, perm_n = ([math.perm(k, d) for k in range(s.order + 1)] for d in (r, q))
        for (m, n), c in s.entries.items():
            if m >= r and n >= q:
                num, den = c.as_integer_ratio()
                rows[m - r][top[m - r] - n + q] = to_float(num * perm_m[m] * perm_n[n], den)
            else:
                written -= 1
    else:
        for (m, n), c in s.entries.items():
            rows[m][top[m] - n] = to_float(*c.as_integer_ratio())
    exact = sum(len(row) - row.count(0.0) for row in rows) == written
    rows.reverse()
    pairs, singles = _stride(rows, exact)
    return [_stride(row, exact) for row in pairs], [_stride(row, exact) for row in singles]


def _horner(series: tuple[list[float], list[float]], x: float) -> float:
    """Horner at x over (pairs, singles): a stride-2 step ``acc * x * x + c``
    per pair, then a step ``acc * x + c`` per single.

    A stride-2 step stands for the two steps ``(acc * x + 0.0) * x + c``
    over a +0.0 slot.  They differ only if ``acc * x`` is -0.0 (so x is
    finite), and then both give c for c nonzero and +0.0 for c = +0.0;
    with every stored entry a nonzero float, no row sum is -0.0.  So the
    stride changes no value and no sign of zero.  A list ending at an odd
    offset still takes its last step, ``acc * x + 0.0``.
    """
    pairs, singles = series
    acc = 0.0
    for coeff in pairs:
        acc = acc * x * x + coeff
    for coeff in singles:
        acc = acc * x + coeff
    return acc


def _row_sums(projection: tuple[list, list], y: float) -> tuple[list[float], list[float]]:
    """Each projected row summed by :func:`_horner` over n at y, split as the rows are."""
    pairs, singles = projection
    return [_horner(row, y) for row in pairs], [_horner(row, y) for row in singles]


def _projection(s: Spectrum2D, r: int = 0, q: int = 0) -> tuple[list, list]:
    """s's (r, q) :func:`_project`, built once per spectrum and kept in ``s.memo``."""
    if (r, q) not in s.memo:
        s.memo[r, q] = _project(s, r, q)
    return s.memo[r, q]


def _shared_sums(s: Spectrum2D, r: int, q: int, y: float) -> tuple[list[float], list[float]]:
    """:func:`_row_sums` of s's (r, q) projection at y, each pass run once
    per spectrum, whichever check asks first, and kept in ``s.memo`` (keyed
    by y's bits, so -0.0 and 0.0 stay apart)."""
    key = r, q, y.hex()
    if key not in s.memo:
        s.memo[key] = _row_sums(_projection(s, r, q), y)
    return s.memo[key]


def eval_grid(
    s: Spectrum2D, xs: Sequence[float], ys: Sequence[float]
) -> list[list[float]]:
    """Evaluate the truncated double series on the tensor grid xs x ys.

    Returns ``values`` with ``values[i][j]`` the series at ``(xs[i], ys[j])``.
    The stored entries are projected to trimmed float rows once per spectrum
    (:func:`_projection`).  For each y, every row m is summed by Horner over
    n once, unmemoised; for each x, Horner over m then runs across those row
    values, both with the stride-2 steps of :func:`_horner`.  This summation
    order is fixed, so every value is bit-identical across runs, grid shapes
    and call sites.
    """
    projection = _projection(s)
    sums = [_row_sums(projection, y) for y in ys]
    return [[_horner(row, x) for row in sums] for x in xs]


def eval2d(s: Spectrum2D, x: float, y: float) -> float:
    """Evaluate the truncated double series at (x, y); see :func:`eval_grid`."""
    return eval_grid(s, (x,), (y,))[0][0]


def _worst(errors: Iterable[float]) -> float:
    """The largest of 0.0 and the errors, as ``max`` folds them, except that
    a NaN anywhere gives NaN: ``max`` keeps a NaN only when it comes first,
    so a residual whose samples overflowed would read as small."""
    worst = 0.0
    for error in errors:
        if error > worst or error != error:
            worst = error
    return worst


def boundary_residual(
    s: Spectrum2D, bc: "BoundarySpec", samples: int
) -> dict[str, float]:
    """Per-edge max-abs deviation of the series from the boundary traces.

    Dirichlet edges compare the series itself; Neumann edges compare the
    exact coordinate derivative (no finite differencing).  Each distinct
    series is projected to floats once per spectrum: the spectrum for all
    Dirichlet edges, each Neumann axis's derivative once; its row sums are
    formed once per spectrum and distinct y, shared by all edges and by
    :func:`compare_closed_form` (values as :func:`eval_grid`'s, bit for
    bit).  ``samples`` equally spaced points per edge, endpoints included.
    """
    _check_count("samples", samples)
    ts = [i * math.pi / (samples - 1) for i in range(samples)]
    out: dict[str, float] = {}
    for cond in bc.conditions:
        axis, at = cond.edge.split("=")
        level = 0.0 if at == "0" else math.pi
        r, q = (0, 0) if cond.kind == "dirichlet" else (1, 0) if axis == "x" else (0, 1)
        if axis == "x":
            values = [_horner(_shared_sums(s, r, q, t), level) for t in ts]
        else:
            sums = _shared_sums(s, r, q, level)
            values = [_horner(sums, t) for t in ts]
        out[cond.edge] = _worst(
            abs(value - trace_value(cond.trace, t)) for t, value in zip(ts, values)
        )
    return out


def compare_closed_form(s: Spectrum2D, ref: ReferenceSolution, grid: int) -> float:
    """Max-abs error of the truncated series against the closed form on the
    ``grid`` x ``grid`` uniform grid of the square, endpoints included; each
    term is evaluated once per x and once per y, multiplied and summed.  The
    series values are :func:`eval_grid`'s, bit for bit, from the row sums
    shared with :func:`boundary_residual` (by default the 21 grid y are 21
    of the 41 edge samples)."""
    _check_count("grid", grid)
    points = [i * math.pi / (grid - 1) for i in range(grid)]
    sums = [_shared_sums(s, 0, 0, y) for y in points]
    values = [[_horner(row, x) for row in sums] for x in points]
    exact = [[0.0] * grid for _ in points]
    for a, f, g in ref.terms:
        ys = [trace_value(g, y) for y in points]
        weight = to_float(*a.as_integer_ratio())
        for x, row in zip(points, exact):
            fx = weight * trace_value(f, x)
            row[:] = [u + fx * gy for u, gy in zip(row, ys)]
    return _worst(
        abs(value - u) for row, exact_row in zip(values, exact) for value, u in zip(row, exact_row)
    )


def spectrum_diff(
    u: Spectrum2D, v: Spectrum2D
) -> tuple[Fraction, list[tuple[int, int]]]:
    """(max-abs rational difference, sorted differing keys) of the entrywise
    difference :func:`~dtm2d.rules.dt_sub` forms; operands must share their order."""
    d = dt_sub(u, v).entries
    return max(map(abs, d.values()), default=Fraction(0)), sorted(d)
