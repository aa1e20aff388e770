"""Closure-match tables: the factors that carry seed entries to the far edge.

Marching u_xx + u_yy = 0 from two seed layers gives U(m, 2k) =
(-1)**k C(m+2k, 2k) layer0[m+2k] and U(m, 2k+1) = that binomial over 2k+1
times layer1[m+2k].  Matching the closure edge degree by degree in x weighs
each seed entry by one such factor times a power of pi.  The factors depend
on no data, so one pair of tables serves every solve in a process:

* rows[m][k] = (-1)**k C(m+2k, 2k) as an int, for every k with m + 2k within
  the order, for the exact inference route;
* weights[layer, kind][m][i], the float ``num / den * math.pi**power`` of term
  k = first_k(layer, kind) + i (:func:`match_terms`), as an array of doubles,
  for the float route and the closure residual.  Layer 1 under a Neumann
  closure has layer 0's Dirichlet terms, e pi**2k, one fewer at most, so the
  two read the same arrays.

The tables grow with the largest order asked for (:func:`match_tables`).  A
walk at order W reads only the first terms of each row, so no result depends
on how far the tables reach.
"""

from __future__ import annotations

import math
from array import array

__all__ = ["first_k", "match_tables", "match_terms", "term_ks", "weighted_terms"]

Weights = dict[tuple[int, str], list[array]]

# (order covered, rows, weights); a larger order builds new rows and arrays
# and replaces the snapshot whole.  Nothing is changed in place, so a walk
# never sees a half-built row.
_TABLES: tuple[int, list[list[int]], Weights] = (-1, [], {})
_OWN_WEIGHTS = ((0, "dirichlet"), (0, "neumann"), (1, "dirichlet"))


def first_k(layer_index: int, closure_kind: str) -> int:
    """The first k of a layer's closure-match terms: a Neumann closure sees
    n U(m, n), so layer 0's entry at n = 0 drops out."""
    return 1 if layer_index == 0 and closure_kind == "neumann" else 0


def term_ks(m: int, layer_index: int, closure_kind: str, order: int) -> range:
    """The k of a layer's closure-match terms at x-degree m: every entry
    j = m + 2k of the layer within the order's triangle."""
    return range(first_k(layer_index, closure_kind), (order - m - layer_index) // 2 + 1)


def match_terms(row: list[int], ks: range, layer_index: int, closure_kind: str):
    """(numerator, denominator, pi power) of each closure-match term k in ks
    of one layer at x-degree m, with row[k] = (-1)**k C(m+2k, 2k): the term of
    seed entry j = m + 2k.  Dirichlet matches sum_n U(m, n) pi**n, Neumann
    sum_n n U(m, n) pi**(n-1); the odd transfer factor is row[k] / (2k+1)."""
    if layer_index == 0:
        if closure_kind == "dirichlet":
            return [(row[k], 1, 2 * k) for k in ks]
        return [(2 * k * row[k], 1, 2 * k - 1) for k in ks]
    if closure_kind == "dirichlet":
        return [(row[k], 2 * k + 1, 2 * k + 1) for k in ks]
    return [(row[k], 1, 2 * k) for k in ks]


def match_tables(order: int) -> tuple[list[list[int]], Weights]:
    """The closure-match tables (rows, weights), covering at least ``order``.

    Each row is stepped along k by the march recurrence as an exact integer,
    e(m, k+1) = -e(m, k) (j+1)(j+2) / ((2k+1)(2k+2)) with j = m + 2k; a row
    the tables already hold is continued from its last entry.
    """
    global _TABLES
    covered, rows, weights = _TABLES
    if order <= covered:
        return rows, weights
    pi_powers = [math.pi**p for p in range(order + 1)]
    new_rows: list[list[int]] = []
    new_weights: Weights = {key: [] for key in _OWN_WEIGHTS}
    for m in range(order + 1):
        row = rows[m] if m < len(rows) else [1]
        tail, e = [], row[-1]
        for k in range(len(row) - 1, (order - m) // 2):
            j = m + 2 * k
            e = -e * (j + 1) * (j + 2) // ((2 * k + 1) * (2 * k + 2))
            tail.append(e)
        row = row + tail if tail else row
        new_rows.append(row)
        for layer_index, kind in _OWN_WEIGHTS:
            new = weights[layer_index, kind][m] if m < len(rows) else array("d")
            ks = term_ks(m, layer_index, kind, order)[len(new):]
            if ks:
                new = new + array("d", [num / den * pi_powers[power] for num, den, power
                                        in match_terms(row, ks, layer_index, kind)])
            new_weights[layer_index, kind].append(new)
    new_weights[1, "neumann"] = new_weights[0, "dirichlet"]
    _TABLES = (order, new_rows, new_weights)
    return new_rows, new_weights


def weighted_terms(weights: Weights, m: int, layer_index: int, closure_kind: str, last: int):
    """(j, float weight) of a layer's closure-match terms at x-degree m, for
    the entries j up to ``last``."""
    first = m + 2 * first_k(layer_index, closure_kind)
    return zip(range(first, last + 1, 2), weights[layer_index, closure_kind][m])
