"""Recurrence propagation, closed-form transfer, seed inference, models."""

import functools
import hashlib
import itertools
import json
import math
import platform
import re
from dataclasses import fields, replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dtm2d import (
    BoundarySpec,
    CauchySeed,
    DtmError,
    EdgeCondition,
    FuncSpec,
    InferenceError,
    MARCH_IN_M,
    MARCH_IN_N,
    ReferenceSolution,
    closed_form_model,
    compare_closed_form,
    dt_add,
    dt_derivative,
    dt_scale,
    infer_missing_seed,
    make_spectrum,
    model_catalog,
    outer_product,
    propagate,
    propagate_closed_form,
    residual_laplacian,
    solve_example,
    solve_model,
    spectrum_diff,
    taylor_coeffs,
)
from dtm2d.solver import (
    BC_KINDS,
    EDGES,
    MAX_WORKING_ORDER,
    MIN_WORKING_ORDER,
    ModelReport,
    _check_corners,
    _choose_axis,
    _closure_targets,
    _edge_trace,
    _even_transfer,
    _infer_exact,
    _infer_float,
    _match_residual,
    _match_tables,
    _match_terms,
    _odd_transfer,
    _report,
    _seed,
    _term_ks,
    _trace_rounding,
    _working_order,
)
from dtm2d.spectrum import Spectrum2D, truncate
from dtm2d.taylor import TOKEN_KINDS, trace_value
from dtm2d.verify import boundary_residual

from conftest import (
    MODEL_FORMULAS,
    enumerate_spectrum,
    formula_example1,
    formula_example2,
    formula_example3,
    formula_example4,
    reference_descriptor,
    run_limited,
    small_fractions,
)

fact = math.factorial


def seed_layers(formula, order, axis):
    """Both seed layers of a model spectrum, read off its formula."""
    if axis == MARCH_IN_N:
        layer0 = [formula(m, 0) for m in range(order + 1)]
        layer1 = [formula(m, 1) if m + 1 <= order else Fraction(0) for m in range(order + 1)]
    else:
        layer0 = [formula(0, n) for n in range(order + 1)]
        layer1 = [formula(1, n) if n + 1 <= order else Fraction(0) for n in range(order + 1)]
    return tuple(layer0), tuple(layer1)


# Closed forms of the catalog models as F(x) G(y): (kind, arg_scale) per factor.
CLOSED_FORMS = {
    "example1": (("sinh", 1), ("cos", 1)),
    "example2": (("cosh", 1), ("sin", 1)),
    "example3": (("cos", 2), ("cosh", 2)),
    "example4": (("cos", 1), ("sinh", 1)),
}

MODEL_AXES = {
    "example1": MARCH_IN_N,
    "example2": MARCH_IN_M,
    "example3": MARCH_IN_N,
    "example4": MARCH_IN_N,
}


@st.composite
def random_seeds(draw):
    order = draw(st.integers(0, 12))
    axis = draw(st.sampled_from([MARCH_IN_N, MARCH_IN_M]))
    layer0 = tuple(draw(small_fractions) for _ in range(order + 1))
    layer1 = tuple(draw(small_fractions) for _ in range(order + 1))
    return CauchySeed(axis, order, layer0, layer1)


def _reference_propagate(seed):
    """Entry by entry as three Fractions (factor, negation, product), march-in-m
    by transposing the finished march-in-n table: the independent reference."""
    order = seed.order
    table = {}
    for m in range(order + 1):
        if seed.layer0[m] != 0:
            table[(m, 0)] = seed.layer0[m]
        if m + 1 <= order and seed.layer1[m] != 0:
            table[(m, 1)] = seed.layer1[m]
    for n in range(order - 1):
        for m in range(order - n - 1):
            prev = table.get((m + 2, n))
            if prev is not None:
                table[(m, n + 2)] = -Fraction((m + 1) * (m + 2), (n + 1) * (n + 2)) * prev
    if seed.axis == MARCH_IN_M:
        table = {(n, m): v for (m, n), v in table.items()}
    return Spectrum2D(order, (Fraction(0), Fraction(0)), table)


# Layer entries: zeros, small and huge numerators of either sign, and
# denominators up to about 10**60.
layer_entries = st.one_of(
    st.just(Fraction(0)),
    small_fractions,
    st.builds(Fraction, st.integers(-10**40, 10**40), st.integers(1, 10**60)),
)


@st.composite
def deep_seeds(draw):
    order = draw(st.integers(0, 40))
    axis = draw(st.sampled_from([MARCH_IN_N, MARCH_IN_M]))
    layers = [
        tuple(draw(layer_entries) for _ in range(order + 1)) for _ in range(2)
    ]
    return CauchySeed(axis, order, *layers)


class TestPropagate:
    @settings(max_examples=60, deadline=None)
    @given(deep_seeds())
    def test_bit_identical_to_three_fraction_reference(self, seed):
        got, expected = propagate(seed), _reference_propagate(seed)
        assert list(got.entries.items()) == list(expected.entries.items())
        assert all(type(v) is Fraction for v in got.entries.values())
        assert got.order == expected.order

    @settings(max_examples=60, deadline=None)
    @given(deep_seeds(), st.data())
    def test_cut_layers_equal_truncated_march(self, seed, data):
        cut = data.draw(st.integers(0, seed.order))
        small = CauchySeed(
            seed.axis, cut, seed.layer0[: cut + 1], seed.layer1[: cut + 1]
        )
        got, expected = propagate(small), truncate(propagate(seed), cut)
        assert list(got.entries.items()) == list(expected.entries.items())
        assert got.order == expected.order == cut

    def test_solve_marches_only_the_requested_order(self, monkeypatch):
        import dtm2d.solver

        real, orders = dtm2d.solver.propagate, []

        def recording(seed):
            orders.append(seed.order)
            return real(seed)

        monkeypatch.setattr(dtm2d.solver, "propagate", recording)
        report = solve_example(1, 20)
        assert report.working_order == 44
        assert orders == [20]
        assert report.spectrum == enumerate_spectrum(formula_example1, 20)

    def test_example1_from_known_seed(self):
        order = 6
        layer0 = tuple(
            Fraction(1, fact(m)) if m % 2 else Fraction(0) for m in range(order + 1)
        )
        layer1 = (Fraction(0),) * (order + 1)
        got = propagate(CauchySeed(MARCH_IN_N, order, layer0, layer1))
        assert got == enumerate_spectrum(formula_example1, order)

    def test_zero_seed_gives_empty(self):
        zero = (Fraction(0),) * 7
        assert propagate(CauchySeed(MARCH_IN_N, 6, zero, zero)).is_zero()

    def test_example2_march_in_m(self):
        order = 6
        layer0 = tuple(
            Fraction((-1) ** ((n - 1) // 2), fact(n)) if n % 2 else Fraction(0)
            for n in range(order + 1)
        )
        layer1 = (Fraction(0),) * (order + 1)
        got = propagate(CauchySeed(MARCH_IN_M, order, layer0, layer1))
        assert got == enumerate_spectrum(formula_example2, order)

    def test_seed_validation(self):
        with pytest.raises(DtmError):
            CauchySeed("sideways", 2, (0, 0, 0), (0, 0, 0))
        with pytest.raises(DtmError):
            CauchySeed(MARCH_IN_N, 2, (0, 0), (0, 0, 0))

    @pytest.mark.parametrize("order", [True, 1.0, "1", -1])
    def test_bad_order_refused(self, order):
        # True and 1.0 once built a seed that propagate then failed on
        with pytest.raises(DtmError, match="order must be a non-negative integer, got"):
            CauchySeed(MARCH_IN_N, order, (0, 1), (1, 0))

    @settings(max_examples=80, deadline=None)
    @given(random_seeds())
    def test_recurrence_identity(self, seed):
        s = propagate(seed)
        for m in range(seed.order + 1):
            for n in range(seed.order - m - 1):
                lhs = (m + 1) * (m + 2) * s.get(m + 2, n) + (n + 1) * (n + 2) * s.get(m, n + 2)
                assert lhs == 0

    @settings(max_examples=60, deadline=None)
    @given(random_seeds())
    def test_laplacian_annihilated(self, seed):
        s = propagate(seed)
        if s.order >= 2:
            assert residual_laplacian(s).is_zero()

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_linearity(self, data):
        order = data.draw(st.integers(0, 10))
        axis = data.draw(st.sampled_from([MARCH_IN_N, MARCH_IN_M]))
        a = data.draw(small_fractions)
        b = data.draw(small_fractions)
        seeds = []
        for _ in range(2):
            layer0 = tuple(data.draw(small_fractions) for _ in range(order + 1))
            layer1 = tuple(data.draw(small_fractions) for _ in range(order + 1))
            seeds.append(CauchySeed(axis, order, layer0, layer1))
        s1, s2 = seeds
        mixed = CauchySeed(
            axis,
            order,
            tuple(a * x + b * y for x, y in zip(s1.layer0, s2.layer0)),
            tuple(a * x + b * y for x, y in zip(s1.layer1, s2.layer1)),
        )
        lhs = propagate(mixed)
        rhs = dt_add(dt_scale(a, propagate(s1)), dt_scale(b, propagate(s2)))
        assert lhs == rhs

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_parity_preservation(self, data):
        order = data.draw(st.integers(2, 10))
        parity = data.draw(st.integers(0, 1))
        layer0 = tuple(
            data.draw(small_fractions) if m % 2 == parity else Fraction(0)
            for m in range(order + 1)
        )
        layer1 = (Fraction(0),) * (order + 1)
        s = propagate(CauchySeed(MARCH_IN_N, order, layer0, layer1))
        for (m, n) in s.entries:
            assert m % 2 == parity and n % 2 == 0


class TestClosedForm:
    def test_example1_entry_1_2(self):
        order = 6
        layer0 = tuple(
            Fraction(1, fact(m)) if m % 2 else Fraction(0) for m in range(order + 1)
        )
        seed = CauchySeed(MARCH_IN_N, order, layer0, (Fraction(0),) * (order + 1))
        assert propagate_closed_form(seed, 1, 2) == Fraction(-1, 2)

    @settings(max_examples=30, deadline=None)
    @given(random_seeds())
    def test_row_zero_is_the_seed(self, seed):
        for m in range(seed.order + 1):
            if seed.axis == MARCH_IN_N:
                assert propagate_closed_form(seed, m, 0) == seed.layer0[m]
            else:
                assert propagate_closed_form(seed, 0, m) == seed.layer0[m]

    def test_example4_entry_0_3_against_propagate(self):
        order = 6
        layer1 = tuple(
            Fraction((-1) ** (m // 2), fact(m)) if m % 2 == 0 else Fraction(0)
            for m in range(order + 1)
        )
        seed = CauchySeed(MARCH_IN_N, order, (Fraction(0),) * (order + 1), layer1)
        oracle = propagate(seed).get(0, 3)
        assert propagate_closed_form(seed, 0, 3) == oracle
        assert oracle == formula_example4(0, 3) == Fraction(1, 6)

    def test_out_of_triangle_rejected(self):
        seed = CauchySeed(MARCH_IN_N, 3, (Fraction(0),) * 4, (Fraction(0),) * 4)
        with pytest.raises(DtmError):
            propagate_closed_form(seed, 2, 2)

    @settings(max_examples=120, deadline=None)
    @given(random_seeds())
    def test_matches_propagate_everywhere(self, seed):
        s = propagate(seed)
        for m in range(seed.order + 1):
            for n in range(seed.order + 1 - m):
                assert propagate_closed_form(seed, m, n) == s.get(m, n)


def _transfer_match_terms(m, layer_index, closure_kind, order):
    """Closure-match terms with every factor taken from the transfer definitions."""
    k = 0
    while m + 2 * k + layer_index <= order:
        j = m + 2 * k
        if layer_index == 0:
            if closure_kind == "dirichlet":
                yield j, _even_transfer(m, k), 2 * k
            elif k >= 1:
                yield j, 2 * k * _even_transfer(m, k), 2 * k - 1
        elif closure_kind == "dirichlet":
            yield j, _odd_transfer(m, k), 2 * k + 1
        else:
            yield j, (2 * k + 1) * _odd_transfer(m, k), 2 * k
        k += 1


def _per_term_match_residual(layer0, layer1, closure_kind, targets, order):
    """Closure-match residual and its rounding bound, converting every factor,
    pi power and entry per term and walking every layer at every degree.

    ``targets`` holds (coefficients, token kind or None, token scale c); the
    token's value is kind(c * pi) from ``math``.
    """
    pi = math.pi
    unit = (order + len(targets) + 8) * 2.0**-53
    worst = bound = 0.0
    for m in range(order + 1):
        lhs = size = 0.0
        for index, layer in enumerate((layer0, layer1)):
            for j, coef, power in _transfer_match_terms(m, index, closure_kind, order):
                if layer[j]:
                    term = float(coef) * pi**power * float(layer[j])
                    lhs += term
                    size += abs(term)
        parts = [
            float(q[m]) * (1.0 if kind is None else getattr(math, kind)(float(c) * pi))
            for q, kind, c in targets
        ]
        worst = max(worst, abs(lhs - sum(parts)))
        bound = max(bound, unit * (size + sum(map(abs, parts))))
    return worst, bound


class TestClosureMatch:
    def test_transfer_factors_match_factorial_definitions(self):
        for m in range(40):
            for k in range(20):
                sign = (-1) ** k
                assert _even_transfer(m, k) == Fraction(
                    sign * fact(m + 2 * k), fact(m) * fact(2 * k)
                )
                assert _odd_transfer(m, k) == Fraction(
                    sign * fact(m + 2 * k), fact(m) * fact(2 * k + 1)
                )

    def test_stepped_factors_match_transfer_definitions(self):
        # a walk at each order reads the tables' first terms, wherever the
        # tables end: exact factors and float weights, term by term
        for order in range(81):
            rows, weights = _match_tables(order)
            for m in range(order + 1):
                for layer_index in (0, 1):
                    for kind in BC_KINDS:
                        ks = _term_ks(m, layer_index, kind, order)
                        terms = _match_terms(rows[m], ks, layer_index, kind)
                        stepped = [
                            (m + 2 * k, Fraction(num, den), power)
                            for k, (num, den, power) in zip(ks, terms)
                        ]
                        assert stepped == list(
                            _transfer_match_terms(m, layer_index, kind, order)
                        )
                        row = weights[layer_index, kind][m]
                        assert len(row) >= len(terms)
                        assert list(row[: len(terms)]) == [
                            num / den * math.pi**power for num, den, power in terms
                        ]

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_match_residual_bit_identical_to_per_term(self, data):
        order = data.draw(st.integers(0, 30))
        kind = data.draw(st.sampled_from(BC_KINDS))
        decay = data.draw(st.booleans())  # Taylor-like entries c / j!
        entry = st.one_of(st.just(Fraction(0)), small_fractions)

        def layer():
            values = data.draw(st.lists(entry, min_size=order + 1, max_size=order + 1))
            return [v / fact(j) if decay else v for j, v in enumerate(values)]

        def seed_layer():
            # dense, parity-sparse (as the catalog's layers are) or all zero
            shape = data.draw(st.sampled_from(("dense", "even", "odd", "zero")))
            keep = {"dense": (0, 1), "even": (0,), "odd": (1,), "zero": ()}[shape]
            return [v if j % 2 in keep else Fraction(0) for j, v in enumerate(layer())]

        layer0, layer1 = seed_layer(), seed_layer()
        scales = st.fractions(min_value=Fraction(1, 4), max_value=3, max_denominator=4)
        targets = [
            (layer(), data.draw(st.sampled_from((None,) + TOKEN_KINDS)), data.draw(scales))
            for _ in range(data.draw(st.integers(0, 3)))
        ]
        # each target as a polynomial term whose coefficients are the drawn layer
        terms = tuple(
            FuncSpec(
                kind="polynomial",
                poly_coeffs=tuple(q),
                sym_amp=None if token is None else FuncSpec(kind=token, arg_scale=c),
            )
            for q, token, c in targets
        )
        resolved = _closure_targets(FuncSpec(terms=terms), order) if terms else []
        got = _match_residual(layer0, layer1, kind, resolved, order)
        assert got == _per_term_match_residual(layer0, layer1, kind, targets, order)

    @pytest.mark.parametrize("kind", BC_KINDS)
    def test_match_residual_lone_entry_layers(self, kind):
        # a lone entry at j is reached by the degrees m <= j of its parity; at
        # j = 0 and 1 the top degree m = j carries the whole residual
        for order in range(5):
            for index in (0, 1):
                for j in range(order + 1):
                    layers = [[Fraction(0)] * (order + 1) for _ in range(2)]
                    layers[index][j] = Fraction(3, 2)
                    got = _match_residual(*layers, kind, [], order)
                    assert got == _per_term_match_residual(*layers, kind, [], order)


# Runs the steps given as arguments in one fresh interpreter, each a solve of
# example3 at that order or "float" for the float-route closure of
# test_polynomial_neumann_closure_uses_float_route, and prints every field of
# the last result.
_TABLE_STATE_SCRIPT = """
import dataclasses, sys
from fractions import Fraction
from dtm2d import EdgeCondition, FuncSpec, Spectrum2D, infer_missing_seed, solve_example

def float_route(order=12):
    closure = EdgeCondition(
        "y=pi", "neumann", FuncSpec(kind="polynomial", poly_coeffs=(0, 0, Fraction(1, 3)))
    )
    return infer_missing_seed([Fraction(0)] * (order + 1), 0, closure)

for step in sys.argv[1:]:
    result = float_route() if step == "float" else solve_example(3, int(step))
fields = []
for f in dataclasses.fields(result):
    value = getattr(result, f.name)
    if isinstance(value, Spectrum2D):
        value = (value.order, list(value.entries.items()))
    elif isinstance(value, dict):
        value = list(value.items())
    fields.append((f.name, value))
print(repr(fields))
"""


def _fresh_result(*steps):
    status, out, err = run_limited("-c", _TABLE_STATE_SCRIPT, *steps)
    assert (status, err) == (0, ""), err
    return out


# Prints the refusal of sin(c x) data on y=0 for each (c, order): two scales
# past the working-order search limit at order 10, and scale 1e5 at order 600.
_HUGE_SCALE_SCRIPT = """
from dtm2d import BoundarySpec, DtmError, EdgeCondition, FuncSpec, solve_model

for c, order in ((10**300, 10), (10**12, 10), (10**5, 600)):
    bc = BoundarySpec(tuple(
        EdgeCondition(edge, "dirichlet", FuncSpec(kind="sin", arg_scale=c) if edge == "y=0"
                      else FuncSpec()) for edge in ("y=0", "y=pi", "x=0", "x=pi")))
    try:
        solve_model(bc, order)
    except DtmError as exc:
        print(exc)
"""


class TestMatchTableState:
    """The closure-match tables grow with the largest order solved in a
    process; no report may depend on how far they reach."""

    @pytest.mark.parametrize("before, last", [
        ("140", "40"),
        ("40", "140"),
        ("140", "float"),
    ], ids=["down", "up", "float_route"])
    def test_result_equals_fresh_interpreter(self, before, last):
        alone = _fresh_result(last)
        assert "working_order" in alone or "raw_floats" in alone
        assert _fresh_result(before, last) == alone

    def test_larger_order_replaces_tables_whole(self):
        rows, weights = _match_tables(20)
        rows_copy = [list(row) for row in rows]
        weights_copy = {key: [list(row) for row in rows_m] for key, rows_m in weights.items()}
        order = len(rows) + 10  # past anything solved so far
        grown_rows, grown_weights = _match_tables(order)
        assert len(grown_rows) == order + 1
        # the old snapshot is left as it was: a walk holding it reads it to the end
        assert [list(row) for row in rows] == rows_copy
        assert {key: [list(row) for row in rows_m]
                for key, rows_m in weights.items()} == weights_copy
        again = _match_tables(order - 5)
        assert again[0] is grown_rows and again[1] is grown_weights


def _fraction_infer_exact(known_index, closure_kind, targets, order):
    """Reference: the exact closure match solved and checked in Fractions.
    Returns (coeffs, undetermined, consistent)."""
    values = [None] * (order + 1)
    consistent = True
    for m in range(order, -1, -1):
        for j, coef, power in _transfer_match_terms(m, 1 - known_index, closure_kind, order):
            rhs = Fraction(0)
            for q, s, _ in targets:
                if s[power] != 0:
                    rhs += q[m] * s[power]
            if values[j] is None:
                values[j] = rhs / coef
            elif coef * values[j] != rhs:
                consistent = False
    undetermined = tuple(j for j in range(order + 1) if values[j] is None)
    coeffs = tuple(v if v is not None else Fraction(0) for v in values)
    return coeffs, undetermined, consistent


def _check_infer_exact(known_index, closure_kind, targets, order):
    """_infer_exact against the reference: the verdict on every input, the
    coefficients and undetermined indices on consistent ones.  Returns the
    verdict."""
    got = _infer_exact(known_index, closure_kind, targets, order)
    coeffs, undetermined, consistent = _fraction_infer_exact(
        known_index, closure_kind, targets, order
    )
    assert (got is not None) == consistent
    if consistent:
        assert got == (coeffs, undetermined)
    return consistent


class TestInferExact:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_matches_fraction_reference(self, data):
        order = data.draw(st.integers(0, 40))
        kind = data.draw(st.sampled_from(BC_KINDS))
        known_index = data.draw(st.integers(0, 1))
        scales = st.fractions(min_value=Fraction(1, 4), max_value=3, max_denominator=4)

        def term():
            base = data.draw(st.sampled_from(
                ("sin", "cos", "sinh", "cosh", "exp", "polynomial", "zero")
            ))
            scale = data.draw(scales)
            poly = (
                tuple(data.draw(st.lists(small_fractions, min_size=1, max_size=6)))
                if base == "polynomial" else None
            )
            # a token at the term's own scale often makes the data consistent
            token = data.draw(st.none() | st.builds(
                lambda kind, c: FuncSpec(kind=kind, arg_scale=c),
                st.sampled_from(TOKEN_KINDS), st.just(scale) | scales,
            ))
            return FuncSpec(kind=base, arg_scale=scale, amplitude=data.draw(small_fractions),
                            poly_coeffs=poly, sym_amp=token)

        trace = FuncSpec(terms=tuple(term() for _ in range(data.draw(st.integers(1, 3)))))
        _check_infer_exact(known_index, kind, _closure_targets(trace, order), order)

    @pytest.mark.parametrize("trace,kind,known_index,consistent", [
        (FuncSpec(kind="cos", sym_amp=FuncSpec(kind="sinh")), "dirichlet", 0, True),  # example1
        (FuncSpec(kind="cos", arg_scale=2, amplitude=2,
                  sym_amp=FuncSpec(kind="sinh", arg_scale=2)), "neumann", 1, True),
        (FuncSpec(kind="cos", arg_scale=2, sym_amp=FuncSpec(kind="sinh")), "dirichlet", 0, False),
        (FuncSpec(terms=(
            FuncSpec(kind="sin", sym_amp=FuncSpec(kind="sinh")),
            FuncSpec(kind="sin", arg_scale=3, amplitude=Fraction(-2, 5),
                     sym_amp=FuncSpec(kind="cosh", arg_scale=3)),
        )), "neumann", 0, True),
        (FuncSpec(kind="polynomial", poly_coeffs=(0, 0, Fraction(1, 3))), "neumann", 0, False),
        (FuncSpec(kind="polynomial", poly_coeffs=(1, 2, 3)), "dirichlet", 1, False),
    ])
    def test_consistent_and_inconsistent_cases(self, trace, kind, known_index, consistent):
        order = 44
        targets = _closure_targets(trace, order)
        assert _check_infer_exact(known_index, kind, targets, order) == consistent

    def test_all_zero_layer_at_high_order(self):
        # example1's closure: every row is a zero row, so every entry is 0
        order = 140
        targets = _closure_targets(model_catalog()["example1"].bc.on("y=pi").trace, order)
        assert _check_infer_exact(0, "dirichlet", targets, order)
        coeffs, undetermined = _infer_exact(0, "dirichlet", targets, order)
        assert undetermined == (order,) and not any(coeffs)

    def test_nonzero_entry_meets_later_zero_row(self):
        # x**2 fixes U(2) = 1 in row 2; row 0 is a zero row (q[0] = 0) whose
        # second equation reads U(2) against a zero right side
        trace = FuncSpec(kind="polynomial", poly_coeffs=(0, 0, 1))
        targets = _closure_targets(trace, 44)
        assert not _check_infer_exact(1, "dirichlet", targets, 44)
        assert _infer_exact(1, "dirichlet", targets, 44) is None

    def test_two_targets_cancel_exactly(self):
        # each row has two live targets whose right sides sum to exactly 0
        trace = FuncSpec(terms=(
            FuncSpec(kind="sin", amplitude=Fraction(2, 3), sym_amp=FuncSpec(kind="sinh")),
            FuncSpec(kind="sin", amplitude=Fraction(-2, 3), sym_amp=FuncSpec(kind="sinh")),
        ))
        order = 60
        targets = _closure_targets(trace, order)
        assert _check_infer_exact(0, "dirichlet", targets, order)
        coeffs, _ = _infer_exact(0, "dirichlet", targets, order)
        assert not any(coeffs)


@st.composite
def laplacian_inputs(draw):
    """Arbitrary spectra in a random key order, some entry pairs set to cancel
    in the Laplacian and some to cancel only partly."""
    order = draw(st.integers(2, 14))
    rng = draw(st.randoms(use_true_random=False))
    keys = [(m, n) for m in range(order + 1) for n in range(order + 1 - m)]
    rng.shuffle(keys)
    table = {
        key: Fraction(rng.choice([-1, 1]) * rng.randint(1, 60), rng.randint(1, 60))
        for key in keys if rng.random() < 0.6
    }
    for m, n in keys:
        if m + n + 2 <= order and (m + 2, n) in table and rng.random() < 0.5:
            # (m+2)(m+1) U(m+2, n) + (n+2)(n+1) U(m, n+2) = 0, or a near miss
            ratio = Fraction((m + 2) * (m + 1), (n + 2) * (n + 1))
            table[(m, n + 2)] = -ratio * table[(m + 2, n)] * rng.choice([1, 1, 2])
    return Spectrum2D(order, entries=table)


class TestResidualLaplacian:
    def test_harmonic_polynomial(self):
        s = make_spectrum(3, [(2, 0, 1), (0, 2, -1)])  # x^2 - y^2
        assert residual_laplacian(s).is_zero()

    def test_non_harmonic_detector(self):
        s = make_spectrum(3, [(2, 0, 1), (0, 2, 1)])  # x^2 + y^2
        res = residual_laplacian(s)
        assert dict(res.entries) == {(0, 0): Fraction(4)}

    def test_order_too_small(self):
        with pytest.raises(DtmError):
            residual_laplacian(make_spectrum(1))

    @settings(max_examples=150, deadline=None)
    @given(laplacian_inputs())
    def test_equals_sum_of_second_derivatives(self, s):
        got = residual_laplacian(s)
        expected = dt_add(dt_derivative(s, 2, 0), dt_derivative(s, 0, 2))
        assert got.order == expected.order
        assert list(got.entries.items()) == list(expected.entries.items())


def _model_closure(model_id):
    model = model_catalog()[model_id]
    edge = "x=pi" if MODEL_AXES[model_id] == MARCH_IN_M else "y=pi"
    return model.bc.on(edge)


def _model_known(model_id, order):
    model = model_catalog()[model_id]
    axis = MODEL_AXES[model_id]
    seed_edge = "y=0" if axis == MARCH_IN_N else "x=0"
    cond = model.bc.on(seed_edge)
    return taylor_coeffs(cond.trace, order), (0 if cond.kind == "dirichlet" else 1)


class TestInferMissingSeed:
    @pytest.mark.parametrize("model_id", ["example1", "example2", "example4"])
    def test_zero_layers_recovered(self, model_id):
        order = 44
        known, known_index = _model_known(model_id, order)
        result = infer_missing_seed(known, known_index, _model_closure(model_id))
        assert all(c == 0 for c in result.coeffs)
        assert result.warning is None

    def test_example1_float_route_raw_floats_small(self):
        order = 36
        known, known_index = _model_known("example1", order)
        closure = _model_closure("example1")
        targets = _closure_targets(closure.trace, order)
        coeffs, _, raw_floats = _infer_float(known, known_index, closure.kind, targets, order)
        assert raw_floats is not None
        assert max(abs(v) for v in raw_floats) < 1e-10
        assert all(c == 0 for c in coeffs)

    def test_example3_recovers_cos2x_row(self):
        order = 44
        known, known_index = _model_known("example3", order)
        result = infer_missing_seed(known, known_index, _model_closure("example3"))
        assert result.method == "exact"
        assert result.undetermined == (0, 1)
        for j in range(2, order + 1):
            assert result.coeffs[j] == formula_example3(j, 0)

    def test_zero_problem(self):
        order = 20
        zero = [Fraction(0)] * (order + 1)
        closure = EdgeCondition("y=pi", "dirichlet", FuncSpec(kind="zero"))
        result = infer_missing_seed(zero, 0, closure)
        assert all(c == 0 for c in result.coeffs)
        assert result.residual == 0.0

    def test_non_opposite_edge_rejected(self):
        # the closure edge lies opposite a marching origin: y=0 and x=0 never do
        zero = [Fraction(0)] * 11
        for edge in ("y=0", "x=0"):
            closure = EdgeCondition(edge, "dirichlet", FuncSpec(kind="zero"))
            with pytest.raises(DtmError, match="closure edge"):
                infer_missing_seed(zero, 0, closure)

    def test_bad_arguments(self):
        zero = [Fraction(0)] * 11
        closure = EdgeCondition("y=pi", "dirichlet", FuncSpec(kind="zero"))
        with pytest.raises(DtmError):
            infer_missing_seed(zero, 2, closure)
        with pytest.raises(DtmError, match="working order -1 is outside"):
            infer_missing_seed([], 0, closure)

    def test_non_finite_residual_raises(self):
        # every closure sum overflows: a NaN or inf residual shows nothing, so
        # it may not pass as an exact layer with a warning
        closure = EdgeCondition("y=pi", "dirichlet", FuncSpec(kind="zero"))
        with pytest.raises(InferenceError, match="closure condition on y=pi cannot be checked"):
            infer_missing_seed([Fraction(10**300)] * 61, 0, closure)

    def test_polynomial_neumann_closure_uses_float_route(self):
        # u(x,0) = 0, u_y(x,pi) = x^2/3 has the harmonic solution
        # y*pi^2/3 + x^2 y/3 - y^3/9; the pi^2/3 entry cannot satisfy the
        # pi-degree identity, so inference falls back to the float route
        order = 12
        zero = [Fraction(0)] * (order + 1)
        closure = EdgeCondition(
            "y=pi", "neumann",
            FuncSpec(kind="polynomial", poly_coeffs=(0, 0, Fraction(1, 3))),
        )
        result = infer_missing_seed(zero, 0, closure)
        assert result.method == "float"
        # tiny values become exact zeros, the rest are their floats' exact
        # binary rationals: no rounding to nearby small fractions
        assert result.coeffs == tuple(
            0 if abs(v) <= 1e-9 else Fraction(v) for v in result.raw_floats
        )
        assert abs(result.coeffs[0] - math.pi**2 / 3) < 1e-9
        assert abs(result.coeffs[2] - Fraction(1, 3)) < 1e-15
        assert result.residual < 1e-9

    def test_consistent_exact_route_stands(self, monkeypatch):
        # u = sin x sinh y + sin 6x sinh 6y at its derived working order 85:
        # the exact layer is consistent, and its float closure residual
        # (2.9e-6) is rounding noise, so the float route must not run
        order = 85
        zero = [Fraction(0)] * (order + 1)
        closure = EdgeCondition("y=pi", "dirichlet", FuncSpec(terms=(
            FuncSpec(kind="sin", sym_amp=FuncSpec(kind="sinh")),
            FuncSpec(kind="sin", arg_scale=6, sym_amp=FuncSpec(kind="sinh", arg_scale=6)),
        )))

        def no_float_route(*args):
            raise AssertionError("float route entered")

        monkeypatch.setattr("dtm2d.solver._infer_float", no_float_route)
        result = infer_missing_seed(zero, 0, closure)
        assert result.method == "exact"
        # above the warning level but within its rounding bound (1.0e-4): no warning
        assert result.residual > 1e-9
        assert result.warning is None
        sin_x = taylor_coeffs(FuncSpec(kind="sin"), order)
        sin_6x = taylor_coeffs(FuncSpec(kind="sin", arg_scale=6), order)
        # U(m, 1) for m < order; the last entry lies outside the triangle
        expected = tuple(a + 6 * b for a, b in zip(sin_x, sin_6x))
        assert result.coeffs[:order] == expected[:order]

    @pytest.mark.parametrize("index", [True, False, 1.0, "1", 2, -1], ids=repr)
    def test_layer_index_is_an_int_zero_or_one(self, index, monkeypatch):
        # True passed `in (0, 1)` and returned a layer; 1.0 passed it and then
        # raised TypeError; each is refused before any inference
        def no_inference(*args):
            raise AssertionError("inference entered")

        monkeypatch.setattr("dtm2d.solver._infer_exact", no_inference)
        known, _ = _model_known("example1", 12)
        with pytest.raises(DtmError, match="known_layer_index must be 0 or 1"):
            infer_missing_seed(known, index, _model_closure("example1"))

    def test_residual_above_its_rounding_bound_warns(self, monkeypatch):
        monkeypatch.setattr("dtm2d.solver._match_residual", lambda *args: (5e-8, 1e-12))
        known, known_index = _model_known("example1", 44)
        result = infer_missing_seed(known, known_index, _model_closure("example1"))
        assert result.warning == "closure residual 5.000e-08 above 1e-09"


class TestWorkingOrderCeiling:
    def test_closure_weights_finite_exactly_up_to_ceiling(self, monkeypatch):
        # fresh tables, so the check does not depend on what ran before; the
        # old tables come back after the test
        for order, finite in ((MAX_WORKING_ORDER, True), (MAX_WORKING_ORDER + 1, False)):
            monkeypatch.setattr("dtm2d.solver._TABLES", (-1, [], {}))
            _, weights = _match_tables(order)
            values = (w for rows in weights.values() for row in rows for w in row)
            assert all(map(math.isfinite, values)) == finite

    @pytest.mark.parametrize("order", [MAX_WORKING_ORDER + 1, 650, 10**6])
    def test_solve_refuses_orders_above_ceiling(self, order, monkeypatch):
        # at 650 even math.pi**p, the tables' pi powers, overflows; the seed
        # trace was once expanded at the order asked for before the refusal,
        # 16.7 s and 4.8 GB at order 10**5
        def bounded(trace, order):
            assert order <= MAX_WORKING_ORDER, f"seed work at order {order}"
            return taylor_coeffs(trace, order)

        monkeypatch.setattr("dtm2d.solver.taylor_coeffs", bounded)
        message = (f"working order {order} is outside 0 to {MAX_WORKING_ORDER}, where the "
                   f"closure weights are finite floats; lower the order or the argument scales")
        with pytest.raises(DtmError, match=f"^{re.escape(message)}$"):
            solve_example(1, order)

    def test_scale_past_ceiling_named_at_any_order(self, monkeypatch):
        # scale 60 needs working order 553 whatever order is asked for; the
        # search stops at the ceiling, so it never reads the tail past it
        # (each tail takes lgamma(W + 2))
        arguments = []

        def lgamma(x, lgamma=math.lgamma):
            arguments.append(x)
            return lgamma(x)

        monkeypatch.setattr(math, "lgamma", lgamma)
        model = closed_form_model("s", "sin(60x)*sinh(60y)", "dirichlet", 10)
        for order in (10, MAX_WORKING_ORDER):
            with pytest.raises(DtmError, match=f"^argument scale 60 {_CEILING_NEEDED}"):
                solve_model(model.bc, order)
        assert max(arguments) == MAX_WORKING_ORDER + 2


class TestFloatRange:
    """Data whose floats overflow fail with a reason: constants with no
    finite float are refused before any solve work, and a NaN or inf error
    is reported as such, never as a small one."""

    @pytest.mark.parametrize("kind, trace", [
        ("dirichlet", FuncSpec(kind="sin", amplitude=Fraction(10**400))),
        ("neumann", FuncSpec(kind="sin", amplitude=Fraction(10**400))),
        ("dirichlet", FuncSpec(kind="sin", arg_scale=Fraction(10**400))),
        ("dirichlet", FuncSpec(kind="polynomial", poly_coeffs=(0, 10**400))),
        ("dirichlet", FuncSpec(kind="cos", sym_amp=FuncSpec(kind="sinh", arg_scale=10**400))),
    ], ids=["amplitude", "amplitude_neumann", "arg_scale", "poly_coeff", "token_scale"])
    def test_edge_constant_refused(self, kind, trace):
        bc = BoundarySpec(tuple(
            EdgeCondition(edge, kind if edge == "y=0" else "dirichlet",
                          trace if edge == "y=0" else FuncSpec())
            for edge in ("y=0", "y=pi", "x=0", "x=pi")
        ))
        with pytest.raises(DtmError, match="y=0 trace has a constant beyond the float range"):
            solve_model(bc, 10)

    def test_reference_constant_refused_before_solving(self, monkeypatch):
        model = closed_form_model("s", "sin(x)*sinh(y)", "dirichlet", 10)
        reference = ReferenceSolution(f"{10**400}*sin(x)*sinh(y)")

        def no_inference(*args):
            raise AssertionError("inference entered")

        monkeypatch.setattr("dtm2d.solver.infer_missing_seed", no_inference)
        with pytest.raises(DtmError, match="reference has a constant beyond the float range"):
            solve_model(model.bc, 10, reference=reference)
        # compared on its own, such a reference gives a non-finite error
        spectrum = outer_product(taylor_coeffs(FuncSpec(kind="sin"), 10),
                                 taylor_coeffs(FuncSpec(kind="sinh"), 10), 10)
        assert not math.isfinite(compare_closed_form(spectrum, reference, 5))

    def test_exact_coefficients_of_such_a_trace_allowed(self):
        big = 10**400
        coeffs = taylor_coeffs(FuncSpec(kind="sin", amplitude=big), 3)
        assert coeffs == [0, big, 0, Fraction(-big, 6)]

    def test_overflowing_errors_are_nan(self):
        # 10**300 cos 8x cosh 8y: its series and traces overflow to inf at
        # y = pi, so those sample errors are NaN, which max() dropped (0.0)
        model = closed_form_model("t", f"{10**300}*cos(8x)*cosh(8y)", "neumann", 20)
        spectrum = outer_product(
            taylor_coeffs(FuncSpec(kind="cos", arg_scale=8, amplitude=10**300), 20),
            taylor_coeffs(FuncSpec(kind="cosh", arg_scale=8), 20),
            20,
        )
        assert math.isnan(boundary_residual(spectrum, model.bc, 41)["y=pi"])
        assert math.isnan(compare_closed_form(spectrum, model.reference, 21))
        # the closure residual overflows first
        with pytest.raises(InferenceError, match="closure condition on y=pi cannot be checked"):
            solve_model(model.bc, 20, origin_value=model.origin_value, reference=model.reference)

    @pytest.mark.parametrize("kind, closure", [
        ("dirichlet", None),
        ("neumann", None),
        ("dirichlet", FuncSpec(kind="polynomial", poly_coeffs=(0, 0, Fraction(1, 3)))),
    ], ids=["dirichlet", "neumann", "float_route"])
    def test_seed_past_float_range_cannot_be_checked(self, kind, closure):
        # 1e305 sin(20x) on y=0: its finite constants give seed entries up to
        # about 4e312, which once raised OverflowError in the closure residual,
        # or in the float route with a Neumann polynomial closure
        bc = BoundarySpec(tuple(
            EdgeCondition("y=0", kind, FuncSpec(kind="sin", arg_scale=20, amplitude=10**305))
            if edge == "y=0" else
            EdgeCondition(edge, "neumann", closure) if edge == "y=pi" and closure else
            EdgeCondition(edge, "dirichlet", FuncSpec())
            for edge in ("y=0", "y=pi", "x=0", "x=pi")
        ))
        method = "float" if closure else "exact"
        with pytest.raises(InferenceError, match=re.escape(
                "closure condition on y=pi cannot be checked") + f".*method={method}"):
            solve_model(bc, 10)

    def test_reference_past_float_range_fails_checks(self):
        # sinh(300 pi) has no finite float: the closed form reads inf there
        report = solve_model(_dirichlet_bc(), 36,
                             reference=ReferenceSolution("sin(300x)*sinh(300y)"))
        assert not math.isfinite(report.closed_form_error)


# The scale refusal after "argument scale {c} ".
_CEILING_NEEDED = (f"needs working order above {MAX_WORKING_ORDER} to resolve the closure "
                   "series, where the closure weights are finite floats; no order can be "
                   "solved at this scale")


def _stepped_working_orders(c):
    """Reference: for each order up to MAX_WORKING_ORDER, the least
    W >= max(order, MIN_WORKING_ORDER), at most MAX_WORKING_ORDER, whose tail
    (c*pi)**(W+1) / (W+1)! is at most the catalog's, found by stepping W up
    by one; None when no such W exists.  A step from W reads the answer from
    W + 1, so each tail is evaluated once."""

    def log_tail(scale, w):
        return (w + 1) * math.log(scale * math.pi) - math.lgamma(w + 2)

    def meets(w):
        return c <= 2 or log_tail(c, w) <= log_tail(2, MIN_WORKING_ORDER)

    answers = {}
    for w in range(MAX_WORKING_ORDER, MIN_WORKING_ORDER - 1, -1):
        answers[w] = w if meets(w) else answers.get(w + 1)
    return [answers[max(order, MIN_WORKING_ORDER)] for order in range(MAX_WORKING_ORDER + 1)]


def _dirichlet_bc(**traces):
    """Dirichlet data on every edge: the traces given by edge ("y0", "ypi",
    "x0", "xpi"), zero elsewhere."""
    return BoundarySpec(tuple(
        EdgeCondition(edge, "dirichlet", traces.get(edge.replace("=", ""), FuncSpec()))
        for edge in ("y=0", "y=pi", "x=0", "x=pi")
    ))


class TestWorkingOrder:
    def test_equals_stepping_reference(self):
        scales = sorted({Fraction(p, q) for q in (1, 2) for p in range(1, 60 * q + 1)})
        for c in scales:
            bc = _dirichlet_bc(y0=FuncSpec(kind="sin", arg_scale=c))
            refusal = f"argument scale {c} {_CEILING_NEEDED}"
            for order, expected in enumerate(_stepped_working_orders(c)):
                try:
                    got = _working_order(bc, order)
                except DtmError as exc:
                    assert (expected, str(exc)) == (None, refusal)
                else:
                    assert got == expected

    @pytest.mark.parametrize("bc, scale, working", [
        # scale 1e5 needs W = 854012, 1e7 needs W = 85397378
        (_dirichlet_bc(y0=FuncSpec(kind="sin", arg_scale=10**5)), 10**5, None),
        (_dirichlet_bc(y0=FuncSpec(kind="sin", arg_scale=10**7)), 10**7, None),
        # a token lifts the working order on its own: cos(60 pi) here
        (_dirichlet_bc(y0=FuncSpec(kind="sinh"), ypi=FuncSpec(
            kind="sinh", sym_amp=FuncSpec(kind="cos", arg_scale=60))), 60, None),
        # either side of the ceiling: 54 needs W = 501
        (closed_form_model("s", "sin(53x)*sinh(53y)", "dirichlet", 10).bc, 53, 493),
        (closed_form_model("s", "sin(54x)*sinh(54y)", "dirichlet", 10).bc, 54, None),
    ], ids=["sin_1e5", "sin_1e7", "token_60", "sin_53", "sin_54"])
    def test_scale_named_at_once(self, bc, scale, working):
        if working is None:
            with pytest.raises(DtmError, match=f"^argument scale {scale} {_CEILING_NEEDED}$"):
                solve_model(bc, 10)
        else:
            assert solve_model(bc, 10).working_order == working

    def test_huge_scale_refused_at_once(self):
        # a fresh interpreter under a timeout: the float search once never
        # ended at scale 10**300 (w + 1 rounds to w from W ~ 2**53).  An order
        # above the ceiling is refused first; order 600 with scale 1e5 once
        # seeded all 854012 coefficients before any refusal.
        status, out, err = run_limited("-c", _HUGE_SCALE_SCRIPT, seconds=20)
        assert (status, err) == (0, ""), err
        assert out.splitlines() == [
            f"argument scale {10**300} {_CEILING_NEEDED}",
            f"argument scale {10**12} {_CEILING_NEEDED}",
            f"working order 600 is outside 0 to {MAX_WORKING_ORDER}, where the closure "
            f"weights are finite floats; lower the order or the argument scales",
        ]

    def test_zero_trace_scale_does_not_lift(self):
        # u = sin x cosh y; its x=0 trace is zero, here written at scale 60
        model = closed_form_model("s", "sin(x)*cosh(y)", "dirichlet", 36)
        bc = BoundarySpec(tuple(
            replace(cond, trace=FuncSpec(kind="zero", arg_scale=60)) if cond.edge == "x=0" else cond
            for cond in model.bc.conditions
        ))
        report = solve_model(bc, 36, reference=model.reference)
        assert report.working_order == MIN_WORKING_ORDER
        assert report.spectrum == solve_model(model.bc, 36).spectrum
        assert report.closed_form_error < 1e-8

    def test_polynomial_scale_does_not_lift(self):
        # u = x, its Dirichlet traces written as the polynomial p(60x) = 60x / 60
        x = FuncSpec(kind="polynomial", poly_coeffs=(0, Fraction(1, 60)), arg_scale=60)
        one = FuncSpec(kind="polynomial", poly_coeffs=(1,))
        bc = BoundarySpec((
            EdgeCondition("y=0", "dirichlet", x),
            EdgeCondition("y=pi", "dirichlet", x),
            EdgeCondition("x=0", "neumann", one),
            EdgeCondition("x=pi", "neumann", one),
        ))
        report = solve_model(bc, 10)
        assert report.working_order == MIN_WORKING_ORDER
        assert dict(report.spectrum.entries) == {(1, 0): Fraction(1)}
        assert max(report.boundary_residuals.values()) < 1e-12


class TestSolveModel:
    @pytest.mark.parametrize("model_id,order", [
        ("example1", 6),
        ("example2", 6),
        ("example3", 8),
        ("example4", 6),
    ])
    def test_reproduces_model_spectra(self, model_id, order):
        report = solve_example(model_id, order)
        expected = enumerate_spectrum(MODEL_FORMULAS[model_id], order)
        assert spectrum_diff(report.spectrum, expected) == (Fraction(0), [])

    @pytest.mark.parametrize("model_id,c", [
        ("example1", Fraction(3, 7)),
        ("example2", Fraction(-5, 2)),
        ("example3", Fraction(7, 11)),
        ("example4", Fraction(-12, 5)),
    ])
    def test_scaled_catalog_exact_at_high_order(self, model_id, c):
        # the closed form c * F(x) G(y) gives the spectrum as an outer product
        model = model_catalog()[model_id]
        bc = BoundarySpec(tuple(
            replace(cond, trace=replace(cond.trace, amplitude=cond.trace.amplitude * c))
            for cond in model.bc.conditions
        ))
        (fx, sx), (gy, sy) = CLOSED_FORMS[model_id]
        for order in (60, 100, 140):
            report = solve_model(
                bc, order, model_id=model_id, origin_value=model.origin_value * c,
                boundary_samples=2,
            )
            f = taylor_coeffs(FuncSpec(kind=fx, arg_scale=sx, amplitude=c), order)
            g = taylor_coeffs(FuncSpec(kind=gy, arg_scale=sy), order)
            assert report.spectrum == outer_product(f, g, order)
            assert report.inference_method == "exact"

    def test_int_alias(self):
        assert solve_example(2, 6).model == "example2"

    def test_unknown_model(self):
        with pytest.raises(DtmError, match="unknown model"):
            solve_example("example9")

    @pytest.mark.parametrize("model_id", sorted(MODEL_FORMULAS))
    def test_round_trip_direct_seed_vs_inference(self, model_id):
        # seed both layers from the closed-form solution itself, no inference
        order = 16
        axis = MODEL_AXES[model_id]
        layer0, layer1 = seed_layers(MODEL_FORMULAS[model_id], order, axis)
        direct = propagate(CauchySeed(axis, order, layer0, layer1))
        inferred = solve_example(model_id, order).spectrum
        assert spectrum_diff(direct, inferred) == (Fraction(0), [])

    def test_closed_form_error_small_at_default(self):
        report = solve_example(1)
        assert report.order == 36
        assert report.closed_form_error < 1e-8
        assert report.pde_residual_is_zero

    def test_seed_edge_with_token_rejected(self):
        bc = BoundarySpec((
            EdgeCondition("y=0", "dirichlet", FuncSpec(kind="cos", sym_amp=FuncSpec(kind="sinh"))),
            EdgeCondition("y=pi", "dirichlet", FuncSpec(kind="zero")),
            EdgeCondition("x=0", "dirichlet", FuncSpec(kind="zero")),
            EdgeCondition("x=pi", "dirichlet", FuncSpec(kind="zero")),
        ))
        with pytest.raises(DtmError, match="seed edge"):
            solve_model(bc, 10)

    def test_inconsistent_closure_raises(self):
        # u(x,0) = sin x, the other edges zero: the exact route reads it as
        # consistent and the float closure residual then fails
        with pytest.raises(InferenceError, match=re.escape("closure condition on y=pi inconsistent")):
            solve_model(_dirichlet_bc(y0=FuncSpec(kind="sin")), 10)

    def test_u10_without_neumann_trace_set_to_zero(self):
        # example4's data with x=0 made Dirichlet: the closure cannot see
        # U(1,0) = u_x(0,0), and no Neumann trace gives it, so it is set to 0,
        # which is right for u = cos x sinh y
        model = model_catalog()["example4"]
        x0 = EdgeCondition("x=0", "dirichlet", _edge_trace(model.reference, "x=0", "dirichlet"))
        bc = BoundarySpec(tuple(x0 if c.edge == "x=0" else c for c in model.bc.conditions))
        report = solve_model(bc, 36, origin_value=model.origin_value)
        assert report.warning.endswith("U(1,0) set to 0: x=0 has no exact Neumann trace")
        assert report.spectrum == enumerate_spectrum(formula_example4, 36)

    def test_u00_without_origin_value_warns(self):
        # 3 cos 2x cosh 2y, Neumann but on x=pi: the closure cannot see
        # U(0,0) = 3, and left at 0 it was the whole closed-form error, silently
        ref = ReferenceSolution("3*cos(2x)*cosh(2y)")
        bc = BoundarySpec(tuple(
            EdgeCondition(edge, kind, _edge_trace(ref, edge, kind)) for edge, kind in
            (("y=0", "neumann"), ("y=pi", "neumann"), ("x=0", "neumann"), ("x=pi", "dirichlet"))
        ))
        report = solve_model(bc, 36, reference=ref)
        assert report.warning.startswith("U(0,0) set to 0")
        assert report.closed_form_error == pytest.approx(3.0)
        pinned = solve_model(bc, 36, reference=ref, origin_value=3)
        assert pinned.warning is None
        assert pinned.closed_form_error < 1e-8
        assert solve_model(bc, 36, origin_value=0).warning is None  # a given 0 pins

    @pytest.mark.parametrize("edge,poly,corner", [
        ("y=pi", (1,), "(0,pi)"),  # u(x,pi) = 1 with zero data on the other edges
        ("y=0", (1,), "(0,0)"),
        ("y=0", (0, 1), "(pi,0)"),
        ("y=pi", (0, 1), "(pi,pi)"),
    ])
    def test_incompatible_dirichlet_corner_rejected(self, edge, poly, corner):
        bc = BoundarySpec(tuple(
            EdgeCondition(e, "dirichlet", FuncSpec(kind="polynomial", poly_coeffs=poly)
                          if e == edge else FuncSpec(kind="zero"))
            for e in ("y=0", "y=pi", "x=0", "x=pi")
        ))
        with pytest.raises(DtmError, match=re.escape(f"corner {corner}: {edge} gives")):
            solve_model(bc, 10)
        # a Neumann edge next to the corner imposes no value there
        _check_corners(BoundarySpec(tuple(
            replace(c, kind="neumann") if c.edge.startswith("x") else c
            for c in bc.conditions
        )))

    @pytest.mark.parametrize("k", [5, 6])
    def test_corner_within_trace_rounding_accepted(self, k):
        # cosh(kx) sin(ky), written like example2: at (pi, pi) the zero y=pi
        # edge meets sin(6 pi) cosh(6 pi), -5.6e-8 in floats (2e-9 at k = 5)
        def bc(y_pi):
            return BoundarySpec((
                EdgeCondition("y=0", "dirichlet", FuncSpec(kind="zero")),
                EdgeCondition("y=pi", "dirichlet", y_pi),
                EdgeCondition("x=0", "dirichlet", FuncSpec(kind="sin", arg_scale=k)),
                EdgeCondition("x=pi", "dirichlet", FuncSpec(
                    kind="sin", arg_scale=k, sym_amp=FuncSpec(kind="cosh", arg_scale=k)
                )),
            ))
        order = 20
        report = solve_model(bc(FuncSpec(kind="zero")), order, boundary_samples=2)
        assert report.spectrum == outer_product(
            taylor_coeffs(FuncSpec(kind="cosh", arg_scale=k), order),
            taylor_coeffs(FuncSpec(kind="sin", arg_scale=k), order),
            order,
        )
        # the rounding allowance does not hide a real gap of 1e-3
        gap = FuncSpec(kind="polynomial", poly_coeffs=(Fraction(1, 1000),))
        with pytest.raises(DtmError, match=re.escape("corner (0,pi)")):
            solve_model(bc(gap), order)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_trace_rounding_bounds_float_error(self, data):
        # trace_value at t = 0 or float pi against the trace at exact t, tokens
        # at exact pi, evaluated in 50 digits
        mpmath = pytest.importorskip("mpmath")
        kinds = ("sin", "cos", "sinh", "cosh", "exp", "polynomial")
        scales = st.builds(Fraction, st.integers(1, 8), st.integers(1, 4))
        terms = []
        for _ in range(data.draw(st.integers(1, 3))):
            kind = data.draw(st.sampled_from(kinds))
            poly = (
                tuple(data.draw(st.lists(small_fractions, min_size=1, max_size=6)))
                if kind == "polynomial" else None
            )
            token = data.draw(st.none() | st.builds(
                lambda kind, c: FuncSpec(kind=kind, arg_scale=c),
                st.sampled_from(TOKEN_KINDS), scales,
            ))
            terms.append(FuncSpec(kind=kind, arg_scale=data.draw(scales), poly_coeffs=poly,
                                  amplitude=data.draw(small_fractions), sym_amp=token))
        f = FuncSpec(terms=tuple(terms))
        t, exact_t = data.draw(st.sampled_from(((0.0, 0), (math.pi, "pi"))))

        def mp(q):
            return mpmath.mpf(q.numerator) / q.denominator

        def base(term, at):
            u = mp(term.arg_scale) * at
            if term.kind == "polynomial":
                return sum(mp(c) * u**i for i, c in enumerate(term.poly_coeffs))
            return getattr(mpmath, term.kind)(u)

        with mpmath.workdps(50):
            at = mpmath.pi if exact_t == "pi" else mpmath.mpf(0)
            exact = sum(
                mp(x.amplitude) * base(x, at)
                * (1 if x.sym_amp is None else base(x.sym_amp, mpmath.pi))
                for x in terms
            )
            assert abs(trace_value(f, t) - exact) <= _trace_rounding(f, t)

    def test_origin_pin_only_when_undetermined(self):
        model = model_catalog()["example1"]
        with pytest.raises(DtmError, match="origin_value"):
            solve_model(model.bc, 8, origin_value=1)

    @pytest.mark.parametrize("order", [2.5, True, "3", -1])
    def test_bad_order_refused_before_inference(self, order, monkeypatch):
        # 2.5 once ran a whole inference and then raised a bare TypeError
        def no_inference(*args):
            raise AssertionError("inference entered")

        monkeypatch.setattr("dtm2d.solver.infer_missing_seed", no_inference)
        with pytest.raises(DtmError, match="order must be a non-negative integer, got"):
            solve_model(model_catalog()["example1"].bc, order)

    @pytest.mark.parametrize("option,value", [
        ("grid", 3.0), ("grid", "21"), ("grid", True),
        ("boundary_samples", 5.0), ("boundary_samples", False),
    ])
    def test_bad_grid_or_samples_refused_before_inference(self, option, value, monkeypatch):
        # 3.0, "21" and 5.0 once ran the seed and the march, then raised TypeError
        def no_inference(*args):
            raise AssertionError("inference entered")

        monkeypatch.setattr("dtm2d.solver.infer_missing_seed", no_inference)
        model = model_catalog()["example1"]
        with pytest.raises(DtmError, match=f"{option} must be an integer, got {value!r}"):
            solve_model(model.bc, 8, reference=model.reference, **{option: value})

    def test_superposition_of_two_separable_solutions(self):
        # u = sinh x cos y + sinh 2x cos 2y: both closures are token-free sums
        bc = BoundarySpec((
            EdgeCondition("y=0", "dirichlet", FuncSpec(terms=(
                FuncSpec(kind="sinh"),
                FuncSpec(kind="sinh", arg_scale=2),
            ))),
            EdgeCondition("y=pi", "dirichlet", FuncSpec(terms=(
                FuncSpec(kind="sinh", amplitude=-1),
                FuncSpec(kind="sinh", arg_scale=2),
            ))),
            EdgeCondition("x=0", "dirichlet", FuncSpec(kind="zero")),
            EdgeCondition("x=pi", "dirichlet", FuncSpec(terms=(
                FuncSpec(kind="cos", sym_amp=FuncSpec(kind="sinh")),
                FuncSpec(kind="cos", arg_scale=2, sym_amp=FuncSpec(kind="sinh", arg_scale=2)),
            ))),
        ))
        order = 12

        def formula(m, n):
            if m % 2 == 1 and n % 2 == 0:
                base = Fraction((-1) ** (n // 2), fact(m) * fact(n))
                return base + base * 2 ** (m + n)
            return Fraction(0)

        report = solve_model(bc, order, model_id="superposition")
        expected = enumerate_spectrum(formula, order)
        assert spectrum_diff(report.spectrum, expected) == (Fraction(0), [])
        assert report.pde_residual_is_zero

    def test_bc_validation(self):
        conditions = tuple(
            EdgeCondition(edge, "dirichlet", FuncSpec(kind="zero"))
            for edge in ("x=0", "x=pi", "y=0", "y=0")
        )
        with pytest.raises(DtmError, match="one condition per edge"):
            BoundarySpec(conditions)
        with pytest.raises(DtmError, match="unknown edge"):
            EdgeCondition("z=0", "dirichlet", FuncSpec(kind="zero"))
        with pytest.raises(DtmError, match="kind"):
            EdgeCondition("x=0", "robin", FuncSpec(kind="zero"))


def _report_fields(report):
    """Every ModelReport field: floats by .hex(), spectra with their key order."""
    def value(v):
        if isinstance(v, float):
            return v.hex()
        if isinstance(v, Spectrum2D):
            return v.order, list(v.entries.items())
        if isinstance(v, dict):
            return [(k, value(x)) for k, x in v.items()]
        return v
    return [(f.name, value(getattr(report, f.name))) for f in fields(ModelReport)]


class TestMarchingAxis:
    @staticmethod
    def four_branch_rule(bc):
        """_choose_axis as it was written out, one branch per edge."""
        if not bc.on("y=0").trace.is_zero():
            return MARCH_IN_N
        if not bc.on("x=0").trace.is_zero():
            return MARCH_IN_M
        if not bc.on("y=pi").trace.is_zero():
            return MARCH_IN_N
        return MARCH_IN_M

    @pytest.mark.parametrize("nonzero", list(itertools.product((False, True), repeat=4)),
                             ids=lambda p: "".join("1" if b else "0" for b in p))
    def test_choose_axis_equals_the_four_branch_rule(self, nonzero):
        bc = BoundarySpec(tuple(
            EdgeCondition(edge, "dirichlet", FuncSpec(kind="sin" if on else "zero"))
            for edge, on in zip(EDGES, nonzero)
        ))
        assert _choose_axis(bc) == self.four_branch_rule(bc)


class TestSolveStages:
    @pytest.mark.parametrize("model", [
        *(model for _, model in sorted(model_catalog().items())),
        closed_form_model(
            "family", "-3/2*sin(3/2x)*sinh(3/2y)+1/3*cosh(2x)*cos(2y)", "neumann", 0),
    ], ids=lambda model: model.model_id)
    def test_one_seed_serves_every_order_with_its_working_order(self, model):
        # every order up to MIN_WORKING_ORDER has that working order at scales
        # up to 2, so one seed stage serves all of them
        seeded = _seed(model.bc, MIN_WORKING_ORDER, model.origin_value)
        assert seeded[0].order == MIN_WORKING_ORDER
        for order in range(MIN_WORKING_ORDER + 1):
            report = solve_model(model.bc, order, model_id=model.model_id,
                                 origin_value=model.origin_value, reference=model.reference)
            joined = _report(model.bc, seeded, order, model.model_id, model.reference, 21, 41)
            assert _report_fields(joined) == _report_fields(report)


MIXED_FORMS = ("sin(x)*sinh(y)+cos(x)*cosh(y)", "sin(x)*sinh(y)-1/2*cos(2x)*cosh(2y)")


@functools.cache
def high_order_report_digests() -> tuple[str, str]:
    """sha256 pair over solve_model reports at orders 100 and 140 with 2 and
    41 boundary samples: each catalog model scaled by -7/5, and each of
    MIXED_FORMS with all-Dirichlet and all-Neumann data.  The first hashes
    the exact parts (spectrum and PDE residual entries in key order, the
    inference method and the warning), the second the edge residuals and
    the inference residual, floats that pass through the platform's libm."""
    cases, c = [], Fraction(-7, 5)
    for model_id, model in sorted(model_catalog().items()):
        bc = BoundarySpec(tuple(
            replace(cond, trace=replace(cond.trace, amplitude=cond.trace.amplitude * c))
            for cond in model.bc.conditions
        ))
        cases.append((model_id, bc, model.origin_value * c))
    for descriptor in MIXED_FORMS:
        for kind in BC_KINDS:
            model = closed_form_model(descriptor, descriptor, kind, 0)
            cases.append((f"{descriptor} {kind}", model.bc, model.origin_value))
    exact, floats = hashlib.sha256(), hashlib.sha256()
    for name, bc, origin in cases:
        for order in (100, 140):
            for samples in (2, 41):
                report = solve_model(bc, order, origin_value=origin, boundary_samples=samples)
                exact.update(json.dumps([
                    name, order, samples,
                    [[m, n, str(v)] for (m, n), v in report.spectrum.entries.items()],
                    [[m, n, str(v)] for (m, n), v in report.pde_residual_spectrum.entries.items()],
                    report.inference_method, report.warning,
                ]).encode())
                floats.update(repr(
                    [list(report.boundary_residuals.items()), report.inference_residual]
                ).encode())
    return exact.hexdigest(), floats.hexdigest()


def test_high_order_report_digest():
    assert high_order_report_digests()[0] == (
        "c4fd4d40c94e0f339861fcff3f8d927aabb0d4f6a211c25b2d7cb4112ada1ea3"
    )


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="residual floats depend on libm's sin, sinh and pow")
def test_high_order_report_float_digest():
    assert high_order_report_digests()[1] == (
        "80412e7a2f4a50bd6bb294f4a52547344d68ed4a0fc3e569a66580e05708c958"
    )


class TestClosedFormModel:
    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_derived_traces_match_the_closed_form(self, data):
        # each derived trace against u (Dirichlet) or u's derivative across the
        # edge (Neumann) in 50 digits, at the exact level 0 or pi; the float
        # trace may be off by its own rounding bound
        mpmath = pytest.importorskip("mpmath")
        kinds = st.sampled_from(("sin", "cos", "sinh", "cosh"))
        scales = st.builds(Fraction, st.integers(1, 6), st.integers(1, 4))
        terms = data.draw(st.lists(st.tuples(
            small_fractions.filter(lambda a: a != 0), kinds, scales, kinds, scales,
        ), min_size=1, max_size=2))
        kind = data.draw(st.sampled_from(BC_KINDS))
        # any closed form, harmonic or not: the traces are derived term by term
        ref = ReferenceSolution(reference_descriptor(terms))
        conditions = [EdgeCondition(edge, kind, _edge_trace(ref, edge, kind))
                      for edge in ("y=0", "y=pi", "x=0", "x=pi")]

        def mp(q):
            return mpmath.mpf(q.numerator) / q.denominator

        def u(x, y):
            return sum(mp(a) * getattr(mpmath, f)(mp(kx) * x) * getattr(mpmath, g)(mp(ky) * y)
                       for a, f, kx, g, ky in terms)

        with mpmath.workdps(50):
            for cond in conditions:
                axis, at = cond.edge.split("=")
                level = mpmath.pi if at == "pi" else mpmath.mpf(0)
                for t in (i * math.pi / 6 for i in range(7)):
                    # u as a function of the coordinate across the edge
                    across = (lambda s: u(s, t)) if axis == "x" else (lambda s: u(t, s))
                    exact = across(level) if kind == "dirichlet" else mpmath.diff(across, level)
                    # mpmath.diff is good to far below 1e-30 at 50 digits
                    slack = _trace_rounding(cond.trace, t) + mpmath.mpf(10) ** -30
                    assert abs(trace_value(cond.trace, t) - exact) <= slack, (cond.edge, t)

    @settings(max_examples=50, deadline=None)
    @given(st.data())
    def test_harmonic_model_carries_the_derived_traces(self, data):
        trig, hyperbolic = st.sampled_from(("sin", "cos")), st.sampled_from(("sinh", "cosh"))
        scales = st.builds(Fraction, st.integers(1, 6), st.integers(1, 4))
        terms = []
        for _ in range(data.draw(st.integers(1, 2))):
            f, g = data.draw(st.tuples(trig, hyperbolic) | st.tuples(hyperbolic, trig))
            k = data.draw(scales)
            terms.append((data.draw(small_fractions.filter(lambda a: a != 0)), f, k, g, k))
        kind = data.draw(st.sampled_from(BC_KINDS))
        descriptor = reference_descriptor(terms)
        model = closed_form_model("oracle", descriptor, kind, 12)
        ref = ReferenceSolution(descriptor)
        assert model.reference == ref
        assert model.bc.conditions == tuple(
            EdgeCondition(edge, kind, _edge_trace(ref, edge, kind))
            for edge in ("y=0", "y=pi", "x=0", "x=pi")
        )
        at_origin = sum(a for a, f, _, g, _ in terms if {f, g} <= {"cos", "cosh"})
        assert model.origin_value == (at_origin if kind == "neumann" else 0)

    @pytest.mark.parametrize("descriptor,term", [
        ("cos(x)*cosh(2y)", "cos(x)*cosh(2y)"),
        ("cos(x)*cos(y)", "cos(x)*cos(y)"),
        ("sin(x)*sinh(y)-sinh(3/2x)*cosh(3/2y)", "sinh(3/2x)*cosh(3/2y)"),
    ])
    def test_non_harmonic_closed_form_refused(self, descriptor, term):
        with pytest.raises(DtmError, match=re.escape(f"not harmonic: term {term} ")):
            closed_form_model("bad", descriptor, "dirichlet", 12)

    def test_catalog_is_built_once_and_returned_as_a_copy(self):
        catalog = model_catalog()
        first = catalog.pop("example1")
        assert model_catalog()["example1"] is first

    def test_model_holds_its_parsed_reference(self, monkeypatch):
        # closed_form_model parses the descriptor once; no solve parses it again
        import dtm2d.verify

        model = model_catalog()["example3"]
        assert model.reference == ReferenceSolution("cos(2x)*cosh(2y)")
        monkeypatch.setattr(dtm2d.verify, "ReferenceSolution", None)
        report = solve_example("example3", 20, grid=9)
        assert report.closed_form_error == compare_closed_form(report.spectrum, model.reference, 9)
