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
from typing import TYPE_CHECKING, Sequence

# Unused here; kept importable because perfbench/tracer.py wraps this name.
from .rules import dt_derivative  # noqa: F401
from .spectrum import DtmError, Spectrum2D
from .taylor import FuncSpec, trace_value

if TYPE_CHECKING:  # runtime import would be circular; solver imports verify
    from .solver import BoundarySpec

_FACTOR = r"(sin|cos|sinh|cosh)\(([1-9]\d*(?:/[1-9]\d*)?)?{}\)"
_REFERENCE = re.compile(_FACTOR.format("x") + r"\*" + _FACTOR.format("y"))

__all__ = [
    "GridSpec",
    "ReferenceSolution",
    "boundary_residual",
    "compare_closed_form",
    "eval2d",
    "eval_grid",
    "spectrum_diff",
]


@dataclass(frozen=True)
class GridSpec:
    """Evaluation grid inside the closed square [0, pi] x [0, pi]."""

    x_points: tuple[float, ...]
    y_points: tuple[float, ...]

    def __post_init__(self) -> None:
        for name, pts in (("x_points", self.x_points), ("y_points", self.y_points)):
            if not pts:
                raise DtmError(f"{name} must be nonempty")
            if any(p < 0 or p > math.pi for p in pts):
                raise DtmError(f"{name} must lie within [0, pi]")
        object.__setattr__(self, "x_points", tuple(float(p) for p in self.x_points))
        object.__setattr__(self, "y_points", tuple(float(p) for p in self.y_points))

    @classmethod
    def uniform(cls, k: int) -> "GridSpec":
        """k x k uniform grid including the endpoints."""
        if k < 2:
            raise DtmError(f"uniform grid needs k >= 2, got {k}")
        pts = tuple(i * math.pi / (k - 1) for i in range(k))
        return cls(pts, pts)


@dataclass(frozen=True)
class ReferenceSolution:
    """A separable closed form F(kx)*G(ky) with F, G in sin, cos, sinh, cosh
    and k an optional positive rational, e.g. "cos(3/2x)*cosh(3/2y)"."""

    descriptor: str
    x_factor: FuncSpec = field(init=False, repr=False)
    y_factor: FuncSpec = field(init=False, repr=False)

    def __post_init__(self) -> None:
        match = isinstance(self.descriptor, str) and _REFERENCE.fullmatch(self.descriptor)
        if not match:
            raise DtmError(f"unknown reference {self.descriptor!r}; expected F(kx)*G(ky)")
        f, kx, g, ky = match.groups()
        object.__setattr__(self, "x_factor", FuncSpec(kind=f, arg_scale=kx or 1))
        object.__setattr__(self, "y_factor", FuncSpec(kind=g, arg_scale=ky or 1))

    def __call__(self, x: float, y: float) -> float:
        return trace_value(self.x_factor, x) * trace_value(self.y_factor, y)


def _project(s: Spectrum2D, r: int = 0, q: int = 0) -> list[list[float]]:
    """Float coefficient rows of d^(r+q) s / dx^r dy^q, for :func:`_horner_grid`.

    Rows run from m = order down to 0, each with coefficients from high n to
    low, order being the derivative's, s.order - r - q (at least 0).  The
    entry from U(m, n) is (perm(m, r) perm(n, q) U.numerator) / U.denominator:
    one correctly rounded integer division, the same float as ``float()`` of
    the differentiated entry, without building a derivative spectrum.
    """
    order = max(s.order - r - q, 0)
    rows: list[list[float]] = [[0.0] * (order - m + 1) for m in range(order + 1)]
    for (m, n), c in s.entries.items():
        if m >= r and n >= q:
            i, j = m - r, n - q
            rows[i][order - i - j] = (
                math.perm(m, r) * math.perm(n, q) * c.numerator / c.denominator
            )
    rows.reverse()
    return rows


def _horner_grid(
    rows: list[list[float]], origin, xs: Sequence[float], ys: Sequence[float]
) -> list[list[float]]:
    """Sum projected rows on the tensor grid xs x ys; see :func:`eval_grid`."""
    ox, oy = float(origin[0]), float(origin[1])
    values: list[list[float]] = [[] for _ in xs]
    for y in ys:
        dy = y - oy
        row_sums: list[float] = []
        for coeffs in rows:
            row = 0.0
            for coeff in coeffs:
                row = row * dy + coeff
            row_sums.append(row)
        for x, out in zip(xs, values):
            dx = x - ox
            total = 0.0
            for row in row_sums:
                total = total * dx + row
            out.append(total)
    return values


def eval_grid(
    s: Spectrum2D, xs: Sequence[float], ys: Sequence[float]
) -> list[list[float]]:
    """Evaluate the truncated double series on the tensor grid xs x ys.

    Returns ``values`` with ``values[i][j]`` the series at ``(xs[i], ys[j])``.
    The entries are projected to floats once.  For each y, every row m is
    summed by Horner over n once; for each x, Horner over m then runs across
    those row values.  This summation order is fixed, so every value is
    bit-identical across runs, grid shapes and call sites.
    """
    return _horner_grid(_project(s), s.origin, xs, ys)


def eval2d(s: Spectrum2D, x: float, y: float) -> float:
    """Evaluate the truncated double series at (x, y); see :func:`eval_grid`."""
    return eval_grid(s, (x,), (y,))[0][0]


def boundary_residual(
    s: Spectrum2D, bc: "BoundarySpec", samples: int
) -> dict[str, float]:
    """Per-edge max-abs deviation of the series from the boundary traces.

    Dirichlet edges compare the series itself; Neumann edges compare the
    exact coordinate derivative (no finite differencing).  Each distinct
    series is projected to floats once: the spectrum once for all Dirichlet
    edges, each Neumann axis's derivative once.  ``samples`` equally spaced
    points per edge, endpoints included.
    """
    if samples < 2:
        raise DtmError(f"need at least 2 samples per edge, got {samples}")
    ts = [i * math.pi / (samples - 1) for i in range(samples)]
    projected: dict[tuple[int, int], list[list[float]]] = {}
    out: dict[str, float] = {}
    for cond in bc.conditions:
        axis, at = cond.edge.split("=")
        level = 0.0 if at == "0" else math.pi
        derivative = (0, 0) if cond.kind == "dirichlet" else (1, 0) if axis == "x" else (0, 1)
        if derivative not in projected:
            projected[derivative] = _project(s, *derivative)
        rows = projected[derivative]
        if axis == "x":
            values = _horner_grid(rows, s.origin, (level,), ts)[0]
        else:
            values = [row[0] for row in _horner_grid(rows, s.origin, ts, (level,))]
        worst = 0.0
        for t, value in zip(ts, values):
            worst = max(worst, abs(value - trace_value(cond.trace, t)))
        out[cond.edge] = worst
    return out


def compare_closed_form(
    s: Spectrum2D, ref: ReferenceSolution, grid: GridSpec
) -> float:
    """Max-abs error of the truncated series against the closed form, which
    is evaluated once per x and once per y and then multiplied."""
    values = eval_grid(s, grid.x_points, grid.y_points)
    ys = [trace_value(ref.y_factor, y) for y in grid.y_points]
    worst = 0.0
    for x, row in zip(grid.x_points, values):
        fx = trace_value(ref.x_factor, x)
        for gy, value in zip(ys, row):
            worst = max(worst, abs(value - fx * gy))
    return worst


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
