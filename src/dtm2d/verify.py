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

# Unused here; kept importable because perfbench/tracer.py wraps this name.
from .rules import dt_derivative  # noqa: F401
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


def _project(s: Spectrum2D, r: int = 0, q: int = 0) -> list[list[float]]:
    """Float coefficient rows of d^(r+q) s / dx^r dy^q, for :func:`_row_sums`.

    Rows run from the highest stored m down to 0, each from its highest
    stored n down to 0 (empty without entries): Horner from 0.0 stays +0.0
    through the trimmed +0.0 slots, so no value or sign of zero changes.  The
    entry from U(m, n) is (perm(m, r) perm(n, q) U.numerator) / U.denominator,
    the pair read once from U and the perm factors skipped when r = q = 0:
    one :func:`to_float` of the differentiated entry, without building a
    derivative spectrum.
    """
    top = [-1] * (s.order + 1)  # highest stored n per derivative row
    for m, n in s.entries:
        if m >= r and n - q > top[m - r]:
            top[m - r] = n - q
    while top and top[-1] < 0:
        top.pop()
    rows: list[list[float]] = [[0.0] * (t + 1) for t in top]
    for (m, n), c in s.entries.items():
        if m >= r and n >= q:
            i, j = m - r, n - q
            num, den = c.as_integer_ratio()
            if r or q:
                num *= math.perm(m, r) * math.perm(n, q)
            rows[i][top[i] - j] = to_float(num, den)
    rows.reverse()
    return rows


def _row_sums(rows: list[list[float]], y: float) -> list[float]:
    """Each projected row summed by Horner over n at y."""
    sums: list[float] = []
    for coeffs in rows:
        row = 0.0
        for coeff in coeffs:
            row = row * y + coeff
        sums.append(row)
    return sums


def _horner(row_sums: list[float], x: float) -> float:
    """Horner over m across one y's row sums at x."""
    total = 0.0
    for row in row_sums:
        total = total * x + row
    return total


def eval_grid(
    s: Spectrum2D, xs: Sequence[float], ys: Sequence[float]
) -> list[list[float]]:
    """Evaluate the truncated double series on the tensor grid xs x ys.

    Returns ``values`` with ``values[i][j]`` the series at ``(xs[i], ys[j])``.
    The stored entries are projected to trimmed float rows once.  For each y,
    every row m is summed by Horner over n once; for each x, Horner over m
    then runs across those row values.  This summation order is fixed, so
    every value is bit-identical across runs, grid shapes and call sites.
    """
    rows = _project(s)
    values: list[list[float]] = [[] for _ in xs]
    for y in ys:
        sums = _row_sums(rows, y)
        for x, out in zip(xs, values):
            out.append(_horner(sums, x))
    return values


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
    series is projected to floats once: the spectrum once for all Dirichlet
    edges, each Neumann axis's derivative once; its row sums are formed once
    per distinct y, shared by all edges (values as :func:`eval_grid`'s, bit
    for bit).  ``samples`` equally spaced points per edge, endpoints included.
    """
    if samples < 2:
        raise DtmError(f"need at least 2 samples per edge, got {samples}")
    ts = [i * math.pi / (samples - 1) for i in range(samples)]
    projected: dict[tuple[int, int], list[list[float]]] = {}
    sums: dict[tuple[tuple[int, int], float], list[float]] = {}
    out: dict[str, float] = {}
    for cond in bc.conditions:
        axis, at = cond.edge.split("=")
        level = 0.0 if at == "0" else math.pi
        derivative = (0, 0) if cond.kind == "dirichlet" else (1, 0) if axis == "x" else (0, 1)
        if derivative not in projected:
            projected[derivative] = _project(s, *derivative)
        points = [(level, t) for t in ts] if axis == "x" else [(t, level) for t in ts]
        for _, y in points:
            if (derivative, y) not in sums:
                sums[derivative, y] = _row_sums(projected[derivative], y)
        values = [_horner(sums[derivative, y], x) for x, y in points]
        out[cond.edge] = _worst(
            abs(value - trace_value(cond.trace, t)) for t, value in zip(ts, values)
        )
    return out


def compare_closed_form(s: Spectrum2D, ref: ReferenceSolution, grid: int) -> float:
    """Max-abs error of the truncated series against the closed form on the
    ``grid`` x ``grid`` uniform grid of the square, endpoints included; each
    term is evaluated once per x and once per y, multiplied and summed."""
    if grid < 2:
        raise DtmError(f"uniform grid needs k >= 2, got {grid}")
    points = [i * math.pi / (grid - 1) for i in range(grid)]
    values = eval_grid(s, points, points)
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
    """Exact entrywise comparison over the union of supports.

    Returns (max-abs rational difference, sorted differing keys).
    """
    if u.order != v.order:
        raise DtmError(f"order mismatch: {u.order} vs {v.order}")
    keys = set(u.entries) | set(v.entries)
    worst = Fraction(0)
    differing: list[tuple[int, int]] = []
    for key in sorted(keys):
        delta = u.entries.get(key, Fraction(0)) - v.entries.get(key, Fraction(0))
        if delta != 0:
            differing.append(key)
            worst = max(worst, abs(delta))
    return worst, differing
