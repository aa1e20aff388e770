"""Laplace boundary-value problems as spectral Cauchy problems.

Transforming u_xx + u_yy = 0 turns the coefficient table into the recurrence

    (m+1)(m+2) U(m+2, n) + (n+1)(n+2) U(m, n+2) = 0,

so two consecutive seed rows (or columns) determine the whole triangle.  One
seed layer comes from the edge at the marching origin; the other is inferred
from the boundary condition on the opposite edge.  Inference has two routes:

* an exact route that matches the closure identity degree-by-degree in pi,
  treating pi as an indeterminate.  The unknown layer's terms always carry
  the opposite pi-parity from the known layer's, so the unknown block is an
  exact triangular system over the rationals.  Redundant equations are
  checked exactly; leftover indices (e.g. the additive constant of an
  all-Neumann problem) are reported as undetermined.  Amplitude tokens
  enter as their own series in pi.
* a float route that collapses the pi powers numerically and back-substitutes
  per degree.  Values within FLOAT_ZERO_TOL of zero become exact zeros; every
  other value is the exact binary rational of its float, so the layer is not
  exact and the report says "float".  It runs only when the exact route finds
  the data inconsistent.

Both routes report the max-abs per-degree mismatch of the closure match as a
residual; solve_model runs the inference at a working order derived from the
data's argument scales, which resolves the closure series well below them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Iterable, Optional

from . import verify
from .closure import match_tables, match_terms, term_ks, weighted_terms

# Unused here; kept importable because perfbench/tracer.py wraps these names.
from .rules import dt_add, dt_derivative  # noqa: F401
from .spectrum import truncate  # noqa: F401
from .spectrum import CoeffLike, DtmError, Spectrum2D, as_coeff
from .taylor import FuncSpec, taylor_coeffs, trace_value

EDGES = ("x=0", "x=pi", "y=0", "y=pi")
BC_KINDS = ("dirichlet", "neumann")

MARCH_IN_N = "march-in-n"  # seed rows n = 0, 1; closure edge y = pi
MARCH_IN_M = "march-in-m"  # seed columns m = 0, 1; closure edge x = pi

# Working order floor for solve_model's seed inference.  The catalog closure
# series have argument scales up to 2, and (2*pi)**45 / 45! ~ 7e-21 keeps the
# per-degree residual far below the warning threshold; larger scales c raise
# the working order until (c*pi)**(W+1) / (W+1)! is as small (_working_order).
MIN_WORKING_ORDER = 44
# Largest working order whose float closure weights (closure.match_tables) are
# all finite; from 499 the largest, C(W, 2k) pi**2k and kin, overflow.
MAX_WORKING_ORDER = 498

RESIDUAL_ERROR = 1e-6
RESIDUAL_WARN = 1e-9
CORNER_TOL = 1e-9  # relative to max(1, |a|, |b|) of the two corner values
FLOAT_ZERO_TOL = 1e-9  # float-route values this small become exact zeros

__all__ = [
    "BC_KINDS",
    "BoundarySpec",
    "CauchySeed",
    "EDGES",
    "EdgeCondition",
    "InferenceError",
    "InferredLayer",
    "MARCH_IN_M",
    "MARCH_IN_N",
    "Model",
    "ModelReport",
    "closed_form_model",
    "infer_missing_seed",
    "model_catalog",
    "propagate",
    "propagate_closed_form",
    "residual_laplacian",
    "solve_example",
    "solve_model",
]


class InferenceError(DtmError):
    """Closure condition cannot be met within tolerance."""


@dataclass(frozen=True)
class EdgeCondition:
    """One boundary condition: value or normal-derivative trace on an edge."""

    edge: str
    kind: str
    trace: FuncSpec

    def __post_init__(self) -> None:
        if self.edge not in EDGES:
            raise DtmError(f"unknown edge {self.edge!r}; expected one of {EDGES}")
        if self.kind not in BC_KINDS:
            raise DtmError(f"unknown condition kind {self.kind!r}")


@dataclass(frozen=True)
class BoundarySpec:
    """Exactly four conditions, one per edge of (0, pi) x (0, pi)."""

    conditions: tuple[EdgeCondition, ...]

    def __post_init__(self) -> None:
        edges = [c.edge for c in self.conditions]
        if sorted(edges) != sorted(EDGES):
            raise DtmError(
                f"need exactly one condition per edge {EDGES}, got {edges}"
            )

    def on(self, edge: str) -> EdgeCondition:
        for c in self.conditions:
            if c.edge == edge:
                return c
        raise DtmError(f"unknown edge {edge!r}")


@dataclass(frozen=True)
class CauchySeed:
    """Two seed layers along the marching origin.

    For march-in-n, layer0[m] = U(m, 0) and layer1[m] = U(m, 1); for
    march-in-m, layer0[n] = U(0, n) and layer1[n] = U(1, n).  Both layers
    have length order + 1; the last layer1 entry lies outside the triangle
    and is ignored by propagation.
    """

    axis: str
    order: int
    layer0: tuple[Fraction, ...]
    layer1: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if self.axis not in (MARCH_IN_N, MARCH_IN_M):
            raise DtmError(f"unknown marching axis {self.axis!r}")
        if self.order < 0:
            raise DtmError(f"order must be non-negative, got {self.order}")
        for name, layer in (("layer0", self.layer0), ("layer1", self.layer1)):
            if len(layer) != self.order + 1:
                raise DtmError(
                    f"{name} must have length {self.order + 1}, got {len(layer)}"
                )
        object.__setattr__(self, "layer0", tuple(as_coeff(c) for c in self.layer0))
        object.__setattr__(self, "layer1", tuple(as_coeff(c) for c in self.layer1))


def propagate(seed: CauchySeed) -> Spectrum2D:
    """March the Laplace recurrence from the seed layers to the full triangle.

    Marching in n fills U(m, n+2) = -[(m+1)(m+2) / ((n+1)(n+2))] U(m+2, n),
    each entry one Fraction built from the integer numerator and denominator
    of that product.  Marching in m is the transposed computation: its keys
    are written transposed as they are made, in the same order.
    """
    n_order = seed.order
    swap = seed.axis == MARCH_IN_M
    table: dict[tuple[int, int], Fraction] = {}
    for m in range(n_order + 1):
        if seed.layer0[m] != 0:
            table[(0, m) if swap else (m, 0)] = seed.layer0[m]
        if m + 1 <= n_order and seed.layer1[m] != 0:
            table[(1, m) if swap else (m, 1)] = seed.layer1[m]
    rows = [seed.layer0, seed.layer1]  # rows[n][m] = U(m, n) in marching orientation
    for n in range(n_order - 1):
        prev_row, row = rows[n], [0] * (n_order - n - 1)
        b = (n + 1) * (n + 2)
        for m in range(n_order - n - 1):
            prev = prev_row[m + 2]
            if prev:
                row[m] = value = Fraction(
                    -(m + 1) * (m + 2) * prev.numerator, b * prev.denominator
                )
                table[(n + 2, m) if swap else (m, n + 2)] = value
        rows.append(row)
    return Spectrum2D(n_order, (Fraction(0), Fraction(0)), table)


def _even_transfer(m: int, k: int) -> int:
    """Seed-to-entry factor: U(m, 2k) = _even_transfer(m, k) * layer0[m + 2k]."""
    return (-1) ** k * math.comb(m + 2 * k, m)


def _odd_transfer(m: int, k: int) -> Fraction:
    """U(m, 2k+1) = _odd_transfer(m, k) * layer1[m + 2k]."""
    return Fraction(_even_transfer(m, k), 2 * k + 1)


def propagate_closed_form(seed: CauchySeed, m: int, n: int) -> Fraction:
    """Entry (m, n) directly from the iterated recurrence's closed form.

    Must agree entrywise with :func:`propagate`; kept independent of it so
    each checks the other.
    """
    if m < 0 or n < 0:
        raise DtmError(f"negative index ({m},{n})")
    if m + n > seed.order:
        raise DtmError(f"index ({m},{n}) exceeds order {seed.order}")
    if seed.axis == MARCH_IN_M:
        m, n = n, m
    if n % 2 == 0:
        return _even_transfer(m, n // 2) * seed.layer0[m + n]
    return _odd_transfer(m, (n - 1) // 2) * seed.layer1[m + n - 1]


def residual_laplacian(s: Spectrum2D) -> Spectrum2D:
    """Spectrum of u_xx + u_yy; empty exactly when s satisfies the recurrence.

    Entry (m, n) is (m+2)(m+1) U(m+2, n) + (n+2)(n+1) U(m, n+2).  A sum of
    two entries is tested for cancellation by cross-multiplying numerators
    and denominators, and only a nonzero entry becomes a Fraction.  The keys
    come in the order of ``dt_add(dt_derivative(s, 2, 0), dt_derivative(s, 0, 2))``.
    """
    if s.order < 2:
        raise DtmError(f"need order >= 2 to form the Laplacian, got {s.order}")
    u = s.entries
    table: dict[tuple[int, int], Fraction] = {}
    for (m, n), c in u.items():
        if m < 2:
            continue
        a = m * (m - 1)
        other = u.get((m - 2, n + 2))
        if other is None:
            table[(m - 2, n)] = a * c
            continue
        b = (n + 2) * (n + 1)
        p, q = a * c.numerator * other.denominator, b * other.numerator * c.denominator
        if p != -q:
            table[(m - 2, n)] = Fraction(p + q, c.denominator * other.denominator)
    for (m, n), c in u.items():
        if n >= 2 and (m + 2, n - 2) not in u:
            table[(m, n - 2)] = n * (n - 1) * c
    return Spectrum2D(s.order - 2, s.origin, table)


# --------------------------------------------------------------------------
# Seed inference
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class InferredLayer:
    """Result of closing the Cauchy problem against the opposite edge."""

    coeffs: tuple[Fraction, ...]
    method: str                      # "exact" or "float"
    residual: float                  # max-abs per-degree closure mismatch
    warning: Optional[str] = None
    undetermined: tuple[int, ...] = ()
    raw_floats: Optional[tuple[float, ...]] = None  # float route: the floats solved for


_ONE = FuncSpec(kind="polynomial", poly_coeffs=(1,))  # the token of a term without one


def _closure_targets(trace: FuncSpec, order: int):
    """Per-term (exact coefficients, token pi-series, token float value)."""
    parts = []
    for term in trace.flat_terms():
        token = term.sym_amp or _ONE
        parts.append((
            taylor_coeffs(replace(term, sym_amp=None), order),
            taylor_coeffs(token, order),
            trace_value(token, math.pi),
        ))
    return parts


def _match_residual(
    layer0: Iterable[Fraction],
    layer1: Iterable[Fraction],
    closure_kind: str,
    targets,
    order: int,
) -> tuple[float, float]:
    """Max-abs float mismatch of the per-degree closure match, all degrees,
    and a bound on its rounding: per degree, 2**-53 * (order + len(targets) +
    8) times the sum of the terms' magnitudes (at most order + len(targets) + 2
    terms of at most five roundings each; Higham, ch. 3).  Degree m reaches
    only j = m + 2k, so a layer's walk stops at its last nonzero entry of m's
    parity: the same terms are summed in the same order."""
    _, weights = match_tables(order)
    layers = []
    for index, layer in enumerate((list(layer0), list(layer1))):
        top = [max((j for j, c in enumerate(layer) if c and j % 2 == p), default=-1)
               for p in (0, 1)]
        layers.append((index, layer, [float(c) for c in layer], top))
    unit = (order + len(targets) + 8) * 2.0**-53
    worst = bound = 0.0
    for m in range(order + 1):
        lhs = size = 0.0
        for index, layer, floats, top in layers:
            last = min(order - index, top[m % 2])
            for j, weight in weighted_terms(weights, m, index, closure_kind, last):
                if layer[j]:
                    term = weight * floats[j]
                    lhs += term
                    size += abs(term)
        parts = [float(q[m]) * value for q, _, value in targets]
        rhs = sum(parts)
        worst = max(worst, abs(lhs - rhs))
        bound = max(bound, unit * (size + sum(map(abs, parts))))
    return worst, bound


def _over_lcm(values: list[Fraction]) -> tuple[int, list[int]]:
    """(D, [D * v for v in values]) with D the lcm of the values' denominators."""
    denom = math.lcm(*(v.denominator for v in values))
    return denom, [v.numerator * (denom // v.denominator) for v in values]


def _infer_exact(known_index, closure_kind, targets, order):
    """Match the unknown layer's pi-parity block degree-by-degree, exactly.

    Returns (coeffs, undetermined), or None at the first redundant equation
    the data violate.  The unknown and known layers always occupy opposite pi
    parities, so the known layer never enters these equations.

    The work is done on integers.  Each target's trace and token series are
    written as numerators over their own lcm denominators, and the targets
    are scaled to one common denominator D, so the right side of each
    equation is one integer over D.  An unknown entry U is fixed by its first
    equation coef0 * U = rhs0 and becomes one Fraction at the end; a
    redundant equation coef * U = rhs holds exactly when
    coef * rhs0 == rhs * coef0, checked by cross-multiplying numerators and
    denominators.
    """
    unknown_index = 1 - known_index
    parts = [(_over_lcm(q), _over_lcm(s)) for q, s, _ in targets]
    denom = math.lcm(*(dq * ds for (dq, _), (ds, _) in parts))
    scaled = [([a * (denom // (dq * ds)) for a in qn], sn) for (dq, qn), (ds, sn) in parts]
    first: list[Optional[tuple[int, int, int]]] = [None] * (order + 1)
    rows, _ = match_tables(order)
    for m in range(order, -1, -1):
        ks = term_ks(m, unknown_index, closure_kind, order)
        for k, (num, den, power) in zip(ks, match_terms(rows[m], ks, unknown_index, closure_kind)):
            j = m + 2 * k
            rhs = 0
            for qn, sn in scaled:
                if sn[power]:
                    rhs += qn[m] * sn[power]
            if first[j] is None:
                first[j] = (rhs, num, den)
                continue
            rhs0, num0, den0 = first[j]
            if num * rhs0 * den0 != rhs * num0 * den:
                return None
    undetermined = tuple(j for j, eq in enumerate(first) if eq is None)
    coeffs = tuple(
        Fraction(0) if eq is None else Fraction(eq[0] * eq[2], denom * eq[1])
        for eq in first
    )
    return coeffs, undetermined


def _infer_float(known, known_index, closure_kind, targets, order):
    """Back-substitute the collapsed per-degree equations in floats.

    Returns (coeffs, undetermined, raw_floats): raw_floats holds the floats,
    coeffs the same values as exact binary rationals, with those within
    FLOAT_ZERO_TOL of zero made exact zeros.
    """
    unknown_index = 1 - known_index
    known_f = [float(c) for c in known]
    target_f = [
        sum(float(q[m]) * value for q, _, value in targets)
        for m in range(order + 1)
    ]
    _, weights = match_tables(order)
    raw: list[Optional[float]] = [None] * (order + 1)
    for m in range(order, -1, -1):
        lead: Optional[tuple[int, float]] = None
        rhs = target_f[m]
        for j, weight in weighted_terms(weights, m, known_index, closure_kind,
                                         order - known_index):
            rhs -= weight * known_f[j]
        for j, weight in weighted_terms(weights, m, unknown_index, closure_kind,
                                         order - unknown_index):
            if lead is None:
                lead = (j, weight)
            else:
                solved = raw[j]
                rhs -= weight * (solved if solved is not None else 0.0)
        if lead is not None and raw[lead[0]] is None:
            raw[lead[0]] = rhs / lead[1]
    undetermined = tuple(j for j in range(order + 1) if raw[j] is None)
    raw_floats = tuple(0.0 if v is None else v for v in raw)
    coeffs = tuple(
        Fraction(0) if abs(v) <= FLOAT_ZERO_TOL else Fraction(v) for v in raw_floats
    )
    return coeffs, undetermined, raw_floats


def infer_missing_seed(
    known_layer: Iterable[CoeffLike],
    known_layer_index: int,
    closure_edge: EdgeCondition,
) -> InferredLayer:
    """Find the seed layer that makes the propagated series meet the far edge.

    ``closure_edge`` lies opposite the marching origin, so it fixes the
    marching direction: y=pi closes a march in n, x=pi a march in m.  The
    known layer's length fixes the working order, len(known_layer) - 1, which
    may be at most MAX_WORKING_ORDER.  Indices the closure cannot see are
    returned as zero and listed in ``undetermined``; the caller decides what
    to pin there (the additive constant of an all-Neumann problem).

    The float route runs only when the exact route finds the data inconsistent.
    """
    if known_layer_index not in (0, 1):
        raise DtmError(f"known_layer_index must be 0 or 1, got {known_layer_index}")
    if closure_edge.edge not in ("y=pi", "x=pi"):
        raise DtmError(f"closure edge must be y=pi or x=pi, got {closure_edge.edge}")
    known = [as_coeff(c) for c in known_layer]
    order = len(known) - 1
    if not 0 <= order <= MAX_WORKING_ORDER:
        raise DtmError(
            f"working order {order} is outside 0 to {MAX_WORKING_ORDER}, where the closure "
            f"weights are finite floats; lower the order or the argument scales"
        )

    targets = _closure_targets(closure_edge.trace, order)
    kind = closure_edge.kind
    exact = _infer_exact(known_layer_index, kind, targets, order)
    method = "float" if exact is None else "exact"
    coeffs, undetermined, raw_floats = (*exact, None) if exact is not None else _infer_float(
        known, known_layer_index, kind, targets, order
    )
    pair = (coeffs, known) if known_layer_index == 1 else (known, coeffs)
    residual, rounding = _match_residual(pair[0], pair[1], kind, targets, order)
    # A residual within its own rounding bound shows no inconsistency.
    if residual > RESIDUAL_ERROR and residual > rounding:
        raise InferenceError(
            f"closure condition on {closure_edge.edge} inconsistent: per-degree residual "
            f"{residual:.3e} exceeds {RESIDUAL_ERROR:.0e} and its float rounding bound "
            f"(method={method}, order={order}); raise the order or fix the data"
        )
    warning = None
    if residual > RESIDUAL_WARN:
        warning = f"closure residual {residual:.3e} above {RESIDUAL_WARN:.0e}"
    return InferredLayer(coeffs, method, residual, warning, undetermined, raw_floats)


# --------------------------------------------------------------------------
# Model assembly
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ModelReport:
    """Solved spectrum plus the residual evidence for one model run."""

    model: str
    order: int
    spectrum: Spectrum2D
    pde_residual_spectrum: Spectrum2D
    boundary_residuals: dict[str, float]
    closed_form_error: Optional[float]
    inference_method: str
    inference_residual: float
    warning: Optional[str]
    working_order: int
    size: int

    @property
    def pde_residual_is_zero(self) -> bool:
        return self.pde_residual_spectrum.is_zero()


@dataclass(frozen=True)
class Model:
    """Boundary data plus its known closed-form solution, parsed, if any."""

    model_id: str
    bc: BoundarySpec
    reference: Optional[verify.ReferenceSolution]
    default_order: int
    origin_value: Fraction = field(default_factory=lambda: Fraction(0))


def _choose_axis(bc: BoundarySpec) -> str:
    """March along whichever axis carries nonzero seed data, preferring n."""
    if not bc.on("y=0").trace.is_zero():
        return MARCH_IN_N
    if not bc.on("x=0").trace.is_zero():
        return MARCH_IN_M
    if not bc.on("y=pi").trace.is_zero():
        return MARCH_IN_N
    return MARCH_IN_M


# Each corner of the square and the two edges through it, with the point of
# each edge's trace (the trace runs along x for y=0/pi, along y for x=0/pi)
# that lands on the corner.
_CORNERS = (
    ("(0,0)", ("y=0", 0.0), ("x=0", 0.0)),
    ("(pi,0)", ("y=0", math.pi), ("x=pi", 0.0)),
    ("(0,pi)", ("y=pi", 0.0), ("x=0", math.pi)),
    ("(pi,pi)", ("y=pi", math.pi), ("x=pi", math.pi)),
)


# Each transcendental kind's derivative: d/dt f(t) = sign * f'(t) as (f', sign).
_DERIVATIVE_KIND = {"sin": ("cos", 1), "cos": ("sin", -1), "sinh": ("cosh", 1),
                    "cosh": ("sinh", 1), "exp": ("exp", 1)}


def _base_error(term: FuncSpec, t: float) -> tuple[float, float]:
    """|g(u)| for a term's base g at u = scale * t, and a first-order bound,
    in units of 2**-52, on the float error of g(u) against g at exact t: one
    rounding of the result plus three of the argument (scale, t and their
    product) times |u g'(u)|, or for polynomials Horner's 2n roundings plus
    the argument's (Higham, ch. 5)."""
    u = float(term.arg_scale) * t
    if term.kind == "polynomial":
        n = len(term.poly_coeffs)
        value = size = 0.0
        for i, c in reversed(list(enumerate(term.poly_coeffs))):
            value = value * u + float(c)
            size += (2 * n + 3 * i) * abs(float(c)) * abs(u) ** i
        return abs(value), size
    value = abs(getattr(math, term.kind)(u))
    return value, value + 3 * abs(u * getattr(math, _DERIVATIVE_KIND[term.kind][0])(u))


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
        size += abs(float(term.amplitude)) * (token_err * base + token * base_err)
    return (len(terms) + 3) * 2.0**-52 * size


def _check_corners(bc: BoundarySpec) -> None:
    """Raise when two Dirichlet traces disagree where their edges meet.

    No continuous u satisfies such data, so no spectrum can; without this
    check the solve succeeds and only the boundary residual shows the gap.
    A gap within CORNER_TOL of the corner values, or within the float
    rounding of the two traces (:func:`_trace_rounding`), shows nothing.
    """
    for corner, (edge_a, t_a), (edge_b, t_b) in _CORNERS:
        cond_a, cond_b = bc.on(edge_a), bc.on(edge_b)
        if cond_a.kind != "dirichlet" or cond_b.kind != "dirichlet":
            continue
        a, b = trace_value(cond_a.trace, t_a), trace_value(cond_b.trace, t_b)
        gap = abs(a - b)
        if gap > CORNER_TOL * max(1.0, abs(a), abs(b)) and gap > (
            _trace_rounding(cond_a.trace, t_a) + _trace_rounding(cond_b.trace, t_b)
        ):
            raise DtmError(
                f"Dirichlet data disagree at corner {corner}: "
                f"{edge_a} gives {a!r}, {edge_b} gives {b!r}"
            )


def _working_order(bc: BoundarySpec, order: int) -> int:
    """Least W >= max(order, MIN_WORKING_ORDER) whose tail at the largest
    argument scale c of any term or token, (c*pi)**(W+1) / (W+1)!, is at most
    the catalog's (2*pi)**45 / 45!; scales up to 2 meet that at the floor."""

    def log_tail(scale, w):
        return (w + 1) * math.log(scale * math.pi) - math.lgamma(w + 2)

    c = max(
        abs(spec.arg_scale)
        for cond in bc.conditions
        for term in cond.trace.flat_terms()
        for spec in (term, term.sym_amp or term)
    )
    working = max(order, MIN_WORKING_ORDER)
    while c > 2 and log_tail(c, working) > log_tail(2, MIN_WORKING_ORDER):
        working += 1
    return working


def solve_model(
    bc: BoundarySpec,
    order: int,
    *,
    model_id: str = "custom",
    origin_value: CoeffLike = 0,
    reference: Optional[verify.ReferenceSolution] = None,
    grid: int = 21,
    boundary_samples: int = 41,
) -> ModelReport:
    """Seed, infer, propagate and verify one boundary-value model.

    The seed edge (y=0 or x=0, by marching axis) must have an exact trace;
    the opposite edge closes the problem through :func:`infer_missing_seed`.
    Adjacent Dirichlet traces must agree at their shared corner, or
    :func:`_check_corners` raises before inference.
    ``origin_value`` pins u at the expansion origin when the closure leaves
    that entry undetermined (the additive constant of all-Neumann data).
    The first-order entry it leaves undetermined, U(1, 0) or U(0, 1), is the
    constant term of the Neumann trace on the edge through the origin across
    the marching axis; without one it stays 0 and the warning says so.
    Inference runs at :func:`_working_order` so that closure series are
    resolved; both seed layers are then cut to ``order`` and only that
    triangle is marched.  A ``reference`` closed form is compared on the
    ``grid`` x ``grid`` uniform grid (:func:`verify.compare_closed_form`).
    """
    if order < 0:
        raise DtmError(f"order must be non-negative, got {order}")
    axis = _choose_axis(bc)
    seed_edge = "y=0" if axis == MARCH_IN_N else "x=0"
    closure_edge = "y=pi" if axis == MARCH_IN_N else "x=pi"
    seed_cond = bc.on(seed_edge)
    known_index = 0 if seed_cond.kind == "dirichlet" else 1

    working = _working_order(bc, order)
    try:
        known = taylor_coeffs(seed_cond.trace, working)
    except DtmError as exc:
        raise DtmError(
            f"seed edge {seed_edge} must have an exact trace: {exc}"
        ) from exc
    _check_corners(bc)

    inferred = infer_missing_seed(known, known_index, bc.on(closure_edge))
    unknown = list(inferred.coeffs)
    origin_value = as_coeff(origin_value)
    if origin_value != 0:
        if known_index == 1 and 0 in inferred.undetermined:
            unknown[0] = origin_value
        else:
            raise DtmError(
                "origin_value can only pin an entry the closure left "
                "undetermined (all-Neumann data with an unknown layer0)"
            )
    warning = inferred.warning
    if known_index == 1 and 1 in inferred.undetermined:
        # A Neumann closure never sees the first-order entry at the origin.
        cross = bc.on("x=0" if axis == MARCH_IN_N else "y=0")
        exact = all(t.sym_amp is None for t in cross.trace.flat_terms())
        if cross.kind == "neumann" and exact:
            unknown[1] = taylor_coeffs(cross.trace, 0)[0]
        else:
            entry = "U(1,0)" if axis == MARCH_IN_N else "U(0,1)"
            note = f"{entry} set to 0: {cross.edge} has no exact Neumann trace"
            warning = note if warning is None else f"{warning}; {note}"

    # The recurrence keeps the total degree m + n, so entries up to the order
    # need only the first order + 1 entries of each seed layer.
    layers = (known, unknown) if known_index == 0 else (unknown, known)
    spectrum = propagate(CauchySeed(axis, order, *(tuple(x[: order + 1]) for x in layers)))

    if order >= 2:
        pde_residual = residual_laplacian(spectrum)
    else:
        pde_residual = Spectrum2D(0, (Fraction(0), Fraction(0)), {})
    residuals = verify.boundary_residual(spectrum, bc, boundary_samples)
    closed_form = None
    if reference is not None:
        closed_form = verify.compare_closed_form(spectrum, reference, grid)
    return ModelReport(
        model=model_id,
        order=order,
        spectrum=spectrum,
        pde_residual_spectrum=pde_residual,
        boundary_residuals=residuals,
        closed_form_error=closed_form,
        inference_method=inferred.method,
        inference_residual=inferred.residual,
        warning=warning,
        working_order=working,
        size=len(spectrum.entries),
    )


def _edge_trace(reference: verify.ReferenceSolution, edge: str, kind: str) -> FuncSpec:
    """Per term a*F(x)*G(y), the factor along the edge times the factor across
    it (Neumann: its derivative) at the edge's level: the exact value at 0, a
    token at pi.  Terms that vanish at 0 are dropped."""
    axis, level = edge.split("=")
    parts = []
    for a, f, g in reference.terms:
        along, across = (g, f) if axis == "x" else (f, g)
        if kind == "neumann":
            derivative, sign = _DERIVATIVE_KIND[across.kind]
            a *= sign * across.arg_scale
            across = replace(across, kind=derivative)
        if level == "pi":
            parts.append(replace(along, amplitude=a, sym_amp=across))
        elif at_zero := taylor_coeffs(across, 0)[0]:
            parts.append(replace(along, amplitude=a * at_zero))
    if len(parts) > 1:
        return FuncSpec(terms=tuple(parts))
    return parts[0] if parts else FuncSpec(kind="zero")


_TRIG = ("sin", "cos")


def closed_form_model(model_id: str, reference: str, kind: str, default_order: int) -> Model:
    """The model whose four edges, all of one kind, carry the traces of the
    closed form ``reference`` (a :class:`verify.ReferenceSolution` descriptor),
    in the order y=0, y=pi, x=0, x=pi.  All-Neumann data pin u(0, 0).

    Every term must be harmonic: sin or cos times sinh or cosh, in either
    order, at equal x and y scales.  No harmonic u meets the traces of any
    other term, so DtmError names the first such term."""
    ref = verify.ReferenceSolution(reference)
    for _, f, g in ref.terms:
        if (f.kind in _TRIG) == (g.kind in _TRIG) or f.arg_scale != g.arg_scale:
            x, y = ("" if h.arg_scale == 1 else f"{h.arg_scale}" for h in (f, g))
            raise DtmError(
                f"closed form {reference!r} is not harmonic: term {f.kind}({x}x)*{g.kind}({y}y) "
                f"is not sin or cos times sinh or cosh at equal scales"
            )
    bc = BoundarySpec(tuple(EdgeCondition(edge, kind, _edge_trace(ref, edge, kind))
                            for edge in ("y=0", "y=pi", "x=0", "x=pi")))
    at_origin = sum(a * taylor_coeffs(f, 0)[0] * taylor_coeffs(g, 0)[0] for a, f, g in ref.terms)
    return Model(model_id, bc, ref, default_order,
                 at_origin if kind == "neumann" else Fraction(0))


_CATALOG = {model.model_id: model for model in (
    closed_form_model("example1", "sinh(x)*cos(y)", "dirichlet", 36),
    closed_form_model("example2", "cosh(x)*sin(y)", "dirichlet", 36),
    closed_form_model("example3", "cos(2x)*cosh(2y)", "neumann", 60),
    closed_form_model("example4", "cos(x)*sinh(y)", "neumann", 36),
)}


def model_catalog() -> dict[str, Model]:
    """The four built-in boundary-value models, derived from their closed forms."""
    return dict(_CATALOG)


def solve_example(model_id: str | int, order: Optional[int] = None, **kwargs) -> ModelReport:
    """Solve a built-in model ("example1" .. "example4", or 1..4)."""
    if isinstance(model_id, int):
        model_id = f"example{model_id}"
    catalog = model_catalog()
    if model_id not in catalog:
        raise DtmError(
            f"unknown model {model_id!r}; choose from {sorted(catalog)}"
        )
    model = catalog[model_id]
    return solve_model(
        model.bc,
        model.default_order if order is None else order,
        model_id=model.model_id,
        origin_value=model.origin_value,
        reference=model.reference,
        **kwargs,
    )
