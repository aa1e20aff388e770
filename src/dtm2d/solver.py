"""Laplace boundary-value problems as spectral Cauchy problems.

Transforming u_xx + u_yy = 0 turns the coefficient table into the recurrence

    (m+1)(m+2) U(m+2, n) + (n+1)(n+2) U(m, n+2) = 0,

so two consecutive seed rows (or columns) determine the whole triangle.  One
seed layer comes from the edge at the marching origin; the other is inferred
from the boundary condition on the opposite edge.  Marching in n gives
U(m, 2k) = (-1)**k C(m+2k, 2k) layer0[m+2k] and U(m, 2k+1) = that binomial
over 2k+1 times layer1[m+2k], so matching the closure edge degree by degree
in x weighs each seed entry j = m + 2k by one such factor times a power of
pi.  Inference has two routes:

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

The factors depend on no data, so one pair of tables serves every solve in a
process (:func:`_match_tables`): the integer factors for the exact route, and
each term's float weight for the float route and the closure residual.  Both
routes report the max-abs per-degree mismatch of the closure match as a
residual; solve_model runs the inference at a working order derived from the
data's argument scales, which resolves the closure series well below them.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterable, Optional

from . import verify

# Unused here; kept importable because perfbench/tracer.py wraps these names.
from .rules import dt_add, dt_derivative  # noqa: F401
from .spectrum import truncate  # noqa: F401
from .spectrum import CoeffLike, DtmError, Spectrum2D, _check_index, as_coeff, to_float
from .taylor import _SERIES, FuncSpec, _trace_rounding, taylor_coeffs, trace_value

EDGES = ("x=0", "x=pi", "y=0", "y=pi")
BC_KINDS = ("dirichlet", "neumann")

MARCH_IN_N = "march-in-n"
MARCH_IN_M = "march-in-m"
# Per marching axis: the seed edge, the closure edge opposite it, the other
# edge through the origin, and the first-order entry a Neumann closure cannot see.
_AXES = {
    MARCH_IN_N: ("y=0", "y=pi", "x=0", "U(1,0)"),
    MARCH_IN_M: ("x=0", "x=pi", "y=0", "U(0,1)"),
}

# Working order floor for solve_model's seed inference.  The catalog closure
# series have argument scales up to 2, and (2*pi)**45 / 45! ~ 7e-21 keeps the
# per-degree residual far below the warning threshold; larger scales c raise
# the working order until (c*pi)**(W+1) / (W+1)! is as small (_working_order).
MIN_WORKING_ORDER = 44
# Largest working order whose float closure weights (_match_tables) are all
# finite; from 499 the largest, C(W, 2k) pi**2k and kin, overflow.
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
        if self.axis not in tuple(_AXES):  # a tuple: an unhashable axis is refused too
            raise DtmError(f"unknown marching axis {self.axis!r}")
        Spectrum2D(self.order)  # refuses a bool, non-integer or negative order
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
    of that product.  Only nonzero entries are marched: each row is kept as
    its (m, numerator, denominator) triples, each pair read from its Fraction
    once, and only the two rows the recurrence reads are held.  Marching in m
    is the transposed computation: its keys are written transposed as they
    are made, in the same order.
    """
    n_order = seed.order
    swap = seed.axis == MARCH_IN_M
    table: dict[tuple[int, int], Fraction] = {}
    rows: tuple[list, list] = ([], [])  # nonzero (m, num, den) of U(m, 0) and U(m, 1)
    for m in range(n_order + 1):
        for n, c in ((0, seed.layer0[m]), (1, seed.layer1[m])):
            num, den = c.as_integer_ratio()
            if num and m + n <= n_order:
                table[(n, m) if swap else (m, n)] = c
                rows[n].append((m, num, den))
    older, old = rows
    for n in range(n_order - 1):
        b = (n + 1) * (n + 2)
        row = []
        for m, num, den in older:  # U(m, n) with m <= n_order - n, so m - 2 fits row n + 2
            if m >= 2:
                value = Fraction(-(m - 1) * m * num, b * den)
                table[(n + 2, m - 2) if swap else (m - 2, n + 2)] = value
                row.append((m - 2, *value.as_integer_ratio()))
        older, old = old, row
    return Spectrum2D(n_order, entries=table)


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
    _check_index(m, n, seed.order)
    if seed.axis == MARCH_IN_M:
        m, n = n, m
    if n % 2 == 0:
        return _even_transfer(m, n // 2) * seed.layer0[m + n]
    return _odd_transfer(m, (n - 1) // 2) * seed.layer1[m + n - 1]


def residual_laplacian(s: Spectrum2D) -> Spectrum2D:
    """Spectrum of u_xx + u_yy; empty exactly when s satisfies the recurrence.

    Entry (m, n) is (m+2)(m+1) U(m+2, n) + (n+2)(n+1) U(m, n+2).  A sum of
    two entries is tested for cancellation by cross-multiplying the integer
    pairs of the two Fractions, each read once, and only a nonzero entry
    becomes a Fraction.  The keys come in the order of
    ``dt_add(dt_derivative(s, 2, 0), dt_derivative(s, 0, 2))``.
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
        c_num, c_den = c.as_integer_ratio()
        o_num, o_den = other.as_integer_ratio()
        p, q = a * c_num * o_den, b * o_num * c_den
        if p != -q:
            table[(m - 2, n)] = Fraction(p + q, c_den * o_den)
    for (m, n), c in u.items():
        if n >= 2 and (m + 2, n - 2) not in u:
            table[(m, n - 2)] = n * (n - 1) * c
    return Spectrum2D(s.order - 2, entries=table)


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

# (order covered, rows, weights) of the closure-match tables (_match_tables)
_TABLES = (-1, [], {})
_OWN_WEIGHTS = ((0, "dirichlet"), (0, "neumann"), (1, "dirichlet"))


def _first_k(layer_index: int, closure_kind: str) -> int:
    """The first k of a layer's closure-match terms: a Neumann closure sees
    n U(m, n), so layer 0's entry at n = 0 drops out."""
    return 1 if layer_index == 0 and closure_kind == "neumann" else 0


def _term_ks(m: int, layer_index: int, closure_kind: str, order: int) -> range:
    """The k of a layer's closure-match terms at x-degree m: every entry
    j = m + 2k of the layer within the order's triangle."""
    return range(_first_k(layer_index, closure_kind), (order - m - layer_index) // 2 + 1)


def _match_terms(row: list[int], ks: range, layer_index: int, closure_kind: str):
    """(numerator, denominator, pi power) of each closure-match term k in ks
    of one layer at x-degree m, with row[k] = (-1)**k C(m+2k, 2k): the term of
    seed entry j = m + 2k.  Dirichlet matches sum_n U(m, n) pi**n, Neumann
    sum_n n U(m, n) pi**(n-1); the odd transfer factor is row[k] / (2k+1)."""
    if layer_index == 1 and closure_kind == "dirichlet":
        return [(row[k], 2 * k + 1, 2 * k + 1) for k in ks]
    if layer_index == 0 and closure_kind == "neumann":
        return [(2 * k * row[k], 1, 2 * k - 1) for k in ks]
    return [(row[k], 1, 2 * k) for k in ks]


def _match_tables(order: int) -> tuple[list[list[int]], dict]:
    """The closure-match tables (rows, weights), covering at least ``order``:
    rows[m][k] = (-1)**k C(m+2k, 2k) as an int, for every k with m + 2k within
    the order, and weights[layer, kind][m][i] = num / den * pi**power of term
    k = _first_k(layer, kind) + i (:func:`_match_terms`), as an array of
    doubles.  Layer 1 under a Neumann closure has layer 0's Dirichlet terms,
    e pi**2k, one fewer at most, so the two share their arrays.

    Each row is stepped along k by the march recurrence as an exact integer,
    e(m, k+1) = -e(m, k) (j+1)(j+2) / ((2k+1)(2k+2)) with j = m + 2k.  A
    larger order builds every row and array anew and replaces the tables
    whole; a walk at order W reads only the first terms of each row, so no
    result depends on how far the tables reach.
    """
    global _TABLES
    covered, rows, weights = _TABLES
    if order <= covered:
        return rows, weights
    pi_powers = [math.pi**p for p in range(order + 1)]
    rows, weights = [], {key: [] for key in _OWN_WEIGHTS}
    for m in range(order + 1):
        row = [1]
        for k in range((order - m) // 2):
            j = m + 2 * k
            row.append(-row[-1] * (j + 1) * (j + 2) // ((2 * k + 1) * (2 * k + 2)))
        rows.append(row)
        for layer_index, kind in _OWN_WEIGHTS:
            terms = _match_terms(row, _term_ks(m, layer_index, kind, order), layer_index, kind)
            weights[layer_index, kind].append(
                array("d", [num / den * pi_powers[power] for num, den, power in terms]))
    weights[1, "neumann"] = weights[0, "dirichlet"]
    _TABLES = (order, rows, weights)
    return rows, weights


def _weighted_terms(weights: dict, m: int, layer_index: int, closure_kind: str, last: int):
    """(j, float weight) of a layer's closure-match terms at x-degree m, for
    the entries j up to ``last``."""
    first = m + 2 * _first_k(layer_index, closure_kind)
    return zip(range(first, last + 1, 2), weights[layer_index, closure_kind][m])


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
    parity: the same terms are summed in the same order.  A zero entry before
    that adds a signed zero, which changes neither sum."""
    _, weights = _match_tables(order)
    layers = []
    for index, layer in enumerate((list(layer0), list(layer1))):
        top = [max((j for j, c in enumerate(layer) if c and j % 2 == p), default=-1)
               for p in (0, 1)]
        layers.append((index, [to_float(*c.as_integer_ratio()) for c in layer], top))
    targets = [([to_float(*c.as_integer_ratio()) for c in q], value) for q, _, value in targets]
    unit = (order + len(targets) + 8) * 2.0**-53
    errors, bounds = [], []
    for m in range(order + 1):
        lhs = size = 0.0
        for index, floats, top in layers:
            last = min(order - index, top[m % 2])
            for j, weight in _weighted_terms(weights, m, index, closure_kind, last):
                term = weight * floats[j]
                lhs += term
                size += abs(term)
        parts = [q[m] * value for q, value in targets]
        errors.append(abs(lhs - sum(parts)))
        bounds.append(unit * (size + sum(map(abs, parts))))
    return verify._worst(errors), verify._worst(bounds)


def _infer_exact(known_index, closure_kind, targets, order):
    """Match the unknown layer's pi-parity block degree-by-degree, exactly.

    Returns (coeffs, undetermined), or None at the first redundant equation
    the data violate.  The unknown and known layers always occupy opposite pi
    parities, so these equations hold only the unknown layer; the known
    layer's block is left to the float :func:`_match_residual`, afterwards.
    So u(x, 0) = sin x, other edges 0, passes here at W = 44 and then fails
    with residual 1.159e+01: its seed needs coth pi, which no rational times
    a token series holds, so no order helps.

    The work is done on integer pairs, each equation on its own denominators:
    every q[m] and s[p] is read as (numerator, denominator) once per call, and
    a right side, sum q[m] s[p], is one unreduced pair.  Row m's first term
    (k = _first_k) fixes U(m + 2k); each later term revisits an entry fixed by
    an earlier row and holds exactly when the cross-multiplied pairs agree.
    In a zero row every target has q[m] = 0 or a token zero at every power
    the row reads, so every right side is 0: its new entry is 0, and its later
    equations hold exactly when every entry fixed so far at m's parity is 0,
    which one flag per parity answers.  Each solved entry becomes a Fraction
    once, at the end.
    """
    unknown_index = 1 - known_index
    k0 = _first_k(unknown_index, closure_kind)
    # The pi powers the unknown layer reads (_match_terms) are all odd for a
    # Dirichlet layer 1 or a Neumann layer 0, all even otherwise.
    odd = (unknown_index == 1) != (closure_kind == "neumann")
    terms = []
    for q, s, _ in targets:
        s_pairs = [c.as_integer_ratio() for c in s]
        if any(s_pairs[p][0] for p in range(odd, order + 1, 2)):
            terms.append((q, s_pairs))
    solved: list[Optional[tuple[int, int]]] = [None] * (order + 1)  # U(j), unreduced
    nonzero = [False, False]  # some solved U(j) of that parity is nonzero
    rows, _ = _match_tables(order)
    for m in range(order, -1, -1):
        ks = _term_ks(m, unknown_index, closure_kind, order)
        if not ks:
            continue
        live = []
        for q, s_pairs in terms:
            a, b = q[m].as_integer_ratio()
            if a:
                live.append((a, b, s_pairs))
        if not live:
            if nonzero[m % 2]:
                return None
            solved[m + 2 * k0] = (0, 1)
            continue
        for k, (num, den, power) in zip(
            ks, _match_terms(rows[m], ks, unknown_index, closure_kind)
        ):
            rhs_num, rhs_den = 0, 1
            for a, b, s_pairs in live:
                c, d = s_pairs[power]
                if c:
                    rhs_num, rhs_den = rhs_num * b * d + a * c * rhs_den, rhs_den * b * d
            j = m + 2 * k
            if k == k0:
                solved[j] = (rhs_num * den, rhs_den * num)
                nonzero[j % 2] |= rhs_num != 0
                continue
            u_num, u_den = solved[j]
            if (rhs_num or u_num) and num * u_num * rhs_den != rhs_num * den * u_den:
                return None
    undetermined = tuple(j for j, u in enumerate(solved) if u is None)
    coeffs = tuple(Fraction(0) if u is None else Fraction(*u) for u in solved)
    return coeffs, undetermined


def _infer_float(known, known_index, closure_kind, targets, order):
    """Back-substitute the collapsed per-degree equations in floats.

    Returns (coeffs, undetermined, raw_floats): raw_floats holds the floats,
    coeffs the same values as exact binary rationals, with those within
    FLOAT_ZERO_TOL of zero made exact zeros; or None when a float is not
    finite, which no rational holds.
    """
    unknown_index = 1 - known_index
    known_f = [to_float(*c.as_integer_ratio()) for c in known]
    targets = [([to_float(*c.as_integer_ratio()) for c in q], value) for q, _, value in targets]
    target_f = [sum(q[m] * value for q, value in targets) for m in range(order + 1)]
    _, weights = _match_tables(order)
    raw: list[Optional[float]] = [None] * (order + 1)
    for m in range(order, -1, -1):
        lead: Optional[tuple[int, float]] = None
        rhs = target_f[m]
        for j, weight in _weighted_terms(weights, m, known_index, closure_kind,
                                         order - known_index):
            rhs -= weight * known_f[j]
        for j, weight in _weighted_terms(weights, m, unknown_index, closure_kind,
                                         order - unknown_index):
            if lead is None:
                lead = (j, weight)
            else:  # row j - 2 k0, above this one, fixed raw[j]
                rhs -= weight * raw[j]
        if lead is not None:  # only this row fixes raw[lead[0]]
            raw[lead[0]] = rhs / lead[1]
    undetermined = tuple(j for j in range(order + 1) if raw[j] is None)
    raw_floats = tuple(0.0 if v is None else v for v in raw)
    if not all(map(math.isfinite, raw_floats)):
        return None
    coeffs = tuple(
        Fraction(0) if abs(v) <= FLOAT_ZERO_TOL else Fraction(v) for v in raw_floats
    )
    return coeffs, undetermined, raw_floats


def _check_working_order(order: int) -> None:
    """Raise DtmError unless 0 <= order <= MAX_WORKING_ORDER."""
    if not 0 <= order <= MAX_WORKING_ORDER:
        raise DtmError(
            f"working order {order} is outside 0 to {MAX_WORKING_ORDER}, where the closure "
            f"weights are finite floats; lower the order or the argument scales"
        )


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
    if type(known_layer_index) is not int or known_layer_index not in (0, 1):
        raise DtmError(f"known_layer_index must be 0 or 1, got {known_layer_index}")
    closures = [edges[1] for edges in _AXES.values()]
    if closure_edge.edge not in closures:
        raise DtmError(f"closure edge must be {' or '.join(closures)}, got {closure_edge.edge}")
    known = [as_coeff(c) for c in known_layer]
    order = len(known) - 1
    _check_working_order(order)

    targets = _closure_targets(closure_edge.trace, order)
    kind = closure_edge.kind
    exact = _infer_exact(known_layer_index, kind, targets, order)
    method = "float" if exact is None else "exact"
    solved = (*exact, None) if exact is not None else _infer_float(
        known, known_layer_index, kind, targets, order
    )
    residual = rounding = math.nan  # unless the layer found is finite
    if solved is not None:
        coeffs, undetermined, raw_floats = solved
        pair = (coeffs, known) if known_layer_index == 1 else (known, coeffs)
        residual, rounding = _match_residual(pair[0], pair[1], kind, targets, order)
    if not math.isfinite(residual):
        raise InferenceError(
            f"closure condition on {closure_edge.edge} cannot be checked: per-degree "
            f"residual {residual} is not a finite float (method={method}, order={order}); "
            f"scale the data down"
        )
    # A residual within its own rounding bound shows no inconsistency: no error, no warning.
    if residual > RESIDUAL_ERROR and residual > rounding:
        raise InferenceError(
            f"closure condition on {closure_edge.edge} inconsistent: per-degree residual "
            f"{residual:.3e} exceeds {RESIDUAL_ERROR:.0e} and its float rounding bound "
            f"(method={method}, order={order}); raise the order or fix the data"
        )
    warning = None
    if residual > RESIDUAL_WARN and residual > rounding:
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
    origin_value: Optional[Fraction] = None  # None: not given


def _choose_axis(bc: BoundarySpec) -> str:
    """The first axis, n before m, whose seed edge carries nonzero data, else
    the first whose closure edge does, else march-in-m."""
    return next((axis for i in (0, 1) for axis, edges in _AXES.items()
                 if not bc.on(edges[i]).trace.is_zero()), MARCH_IN_M)


# Each corner of the square and the two edges through it, with the point of
# each edge's trace (the trace runs along x for y=0/pi, along y for x=0/pi)
# that lands on the corner.
_CORNERS = (
    ("(0,0)", ("y=0", 0.0), ("x=0", 0.0)),
    ("(pi,0)", ("y=0", math.pi), ("x=pi", 0.0)),
    ("(0,pi)", ("y=pi", 0.0), ("x=0", math.pi)),
    ("(pi,pi)", ("y=pi", math.pi), ("x=pi", math.pi)),
)


def _check_float_range(bc: BoundarySpec, reference: Optional[verify.ReferenceSolution]) -> None:
    """Raise DtmError naming the first edge, or the reference, with a constant
    that has no finite float: an amplitude, argument scale or polynomial
    coefficient of a term or of its token.  Float verification reads each of
    them; the exact layer alone would not (:func:`taylor_coeffs` takes them)."""
    named = [(f"{cond.edge} trace", cond.trace.flat_terms()) for cond in bc.conditions]
    if reference is not None:
        named.append(("reference", [h for a, f, g in reference.terms
                                    for h in (replace(f, amplitude=a), g)]))
    for name, terms in named:
        for term in (h for t in terms for h in (t, t.sym_amp) if h is not None):
            for c in (term.amplitude, term.arg_scale, *(term.poly_coeffs or ())):
                if not math.isfinite(to_float(*c.as_integer_ratio())):
                    raise DtmError(
                        f"{name} has a constant beyond the float range (about 1.8e308), "
                        f"which float verification cannot read"
                    )


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
    argument scale c, (c*pi)**(W+1) / (W+1)!, is at most the catalog's
    (2*pi)**45 / 45!; scales up to 2 meet that at the floor.  c is taken over
    every token and every term with an infinite series (a sin, cos, sinh,
    cosh or exp of nonzero amplitude); a zero or polynomial term has no tail.

    An order above MAX_WORKING_ORDER gets :func:`infer_missing_seed`'s
    refusal first.  The search starts at max(order, MIN_WORKING_ORDER) and
    steps up to MAX_WORKING_ORDER at most; a scale still unresolved there
    raises DtmError naming c: no order can be solved at it."""

    def log_tail(scale, w):
        return (w + 1) * math.log(scale * math.pi) - math.lgamma(w + 2)

    scales = [0]
    for cond in bc.conditions:
        for term in cond.trace.flat_terms():
            if term.kind in _SERIES and term.amplitude:
                scales.append(abs(term.arg_scale))
            if term.sym_amp is not None:
                scales.append(abs(term.sym_amp.arg_scale))
    c = max(scales)
    working = max(order, MIN_WORKING_ORDER)
    _check_working_order(working)
    if c > 2:
        scale, target = to_float(*c.as_integer_ratio()), log_tail(2, MIN_WORKING_ORDER)
        while log_tail(scale, working) > target:
            if working == MAX_WORKING_ORDER:
                raise DtmError(
                    f"argument scale {c} needs working order above {MAX_WORKING_ORDER} to "
                    "resolve the closure series, where the closure weights are finite "
                    "floats; no order can be solved at this scale"
                )
            working += 1
    return working


def _seed(bc, order, origin_value=None, reference=None) -> tuple[CauchySeed, InferredLayer]:
    """The seed stage: the CauchySeed at the working order W, both layers of
    length W + 1, and the InferredLayer with every note of the stage as its
    ``warning``.  Past its own check, ``order`` is read only through
    :func:`_working_order`, so every order with the same W gets the same seed.

    The marching axis's seed edge (:data:`_AXES`) must have an exact trace;
    its closure edge closes the problem through :func:`infer_missing_seed`.
    Every constant of the data and of ``reference`` must have a finite float,
    or :func:`_check_float_range` raises first; adjacent Dirichlet traces must
    agree at their shared corner, or :func:`_check_corners` raises before
    inference.
    ``origin_value`` pins u at the expansion origin when the closure leaves
    that entry undetermined (the additive constant of all-Neumann data);
    when it is not given (None), that entry stays 0 and the warning says so.
    The first-order entry it leaves undetermined is the constant term of the
    Neumann trace on the axis's cross edge; without one it stays 0 and the
    warning says so.
    """
    Spectrum2D(order)  # refuses a bool, non-integer or negative order
    _check_float_range(bc, reference)
    axis = _choose_axis(bc)
    seed_edge, closure_edge, cross_edge, first_order_entry = _AXES[axis]
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
    notes = [inferred.warning] if inferred.warning else []
    open_origin = known_index == 1 and 0 in inferred.undetermined
    if origin_value is None:
        if open_origin:
            notes.append("U(0,0) set to 0: the closure leaves it undetermined and no "
                         "origin_value is given")
    elif as_coeff(origin_value) != 0:
        if not open_origin:
            raise DtmError(
                "origin_value can only pin an entry the closure left "
                "undetermined (all-Neumann data with an unknown layer0)"
            )
        unknown[0] = as_coeff(origin_value)
    if known_index == 1 and 1 in inferred.undetermined:
        # A Neumann closure never sees the first-order entry at the origin.
        cross = bc.on(cross_edge)
        exact = all(t.sym_amp is None for t in cross.trace.flat_terms())
        if cross.kind == "neumann" and exact:
            unknown[1] = taylor_coeffs(cross.trace, 0)[0]
        else:
            notes.append(f"{first_order_entry} set to 0: {cross.edge} has no exact Neumann trace")
    layers = (known, unknown) if known_index == 0 else (unknown, known)
    return CauchySeed(axis, working, *layers), replace(inferred, warning="; ".join(notes) or None)


def _report(bc, seeded, order, model_id, reference, grid, boundary_samples) -> ModelReport:
    """The report stage: march the :func:`_seed` result for ``bc`` to
    ``order``, at most its working order, and verify the spectrum: the PDE
    residual, each edge at ``boundary_samples`` points, and a ``reference``
    closed form on the ``grid`` x ``grid`` uniform grid."""
    seed, inferred = seeded
    # The recurrence keeps the total degree m + n, so entries up to the order
    # need only the first order + 1 entries of each seed layer.
    layers = (layer[: order + 1] for layer in (seed.layer0, seed.layer1))
    spectrum = propagate(CauchySeed(seed.axis, order, *layers))
    return ModelReport(
        model=model_id, order=order, spectrum=spectrum,
        pde_residual_spectrum=residual_laplacian(spectrum) if order >= 2 else Spectrum2D(0),
        boundary_residuals=verify.boundary_residual(spectrum, bc, boundary_samples),
        closed_form_error=None if reference is None else verify.compare_closed_form(
            spectrum, reference, grid),
        inference_method=inferred.method, inference_residual=inferred.residual,
        warning=inferred.warning, working_order=seed.order, size=len(spectrum.entries),
    )


def solve_model(
    bc: BoundarySpec,
    order: int,
    *,
    model_id: str = "custom",
    origin_value: Optional[CoeffLike] = None,
    reference: Optional[verify.ReferenceSolution] = None,
    grid: int = 21,
    boundary_samples: int = 41,
) -> ModelReport:
    """Solve one model in two stages: :func:`_seed` infers both seed layers at
    the working order and makes every refusal of the data; :func:`_report`
    marches them to ``order`` and verifies the spectrum.  A ``grid`` or
    ``boundary_samples`` that :func:`verify._check_count` refuses is refused first."""
    for name, count in (("grid", grid), ("boundary_samples", boundary_samples)):
        verify._check_count(name, count)
    seeded = _seed(bc, order, origin_value, reference)
    return _report(bc, seeded, order, model_id, reference, grid, boundary_samples)


def _edge_trace(reference: verify.ReferenceSolution, edge: str, kind: str) -> FuncSpec:
    """Per term a*F(x)*G(y), the factor along the edge times the factor across
    it (Neumann: its derivative) at the edge's level: the exact value at 0, a
    token at pi.  Terms that vanish at 0 are dropped."""
    axis, level = edge.split("=")
    parts = []
    for a, f, g in reference.terms:
        along, across = (g, f) if axis == "x" else (f, g)
        if kind == "neumann":
            derivative, sign = _SERIES[across.kind][3:]
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
