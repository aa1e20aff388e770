"""Recurrence propagation, closed-form transfer, seed inference, models."""

import math
import re
from dataclasses import replace
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
    _check_corners,
    _closure_targets,
    _even_transfer,
    _infer_exact,
    _layer_match_terms,
    _match_residual,
    _odd_transfer,
    _trace_rounding,
)
from dtm2d.spectrum import Spectrum2D
from dtm2d.taylor import TOKEN_KINDS, trace_value

from conftest import (
    MODEL_FORMULAS,
    enumerate_spectrum,
    formula_example1,
    formula_example2,
    formula_example3,
    formula_example4,
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


class TestPropagate:
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
    """Closure-match residual converting every factor, pi power and entry per term.

    ``targets`` holds (coefficients, token kind or None, token scale c); the
    token's value is kind(c * pi) from ``math``.
    """
    pi = math.pi
    worst = 0.0
    for m in range(order + 1):
        lhs = 0.0
        for j, coef, power in _transfer_match_terms(m, 0, closure_kind, order):
            if layer0[j]:
                lhs += float(coef) * pi**power * float(layer0[j])
        for j, coef, power in _transfer_match_terms(m, 1, closure_kind, order):
            if layer1[j]:
                lhs += float(coef) * pi**power * float(layer1[j])
        rhs = sum(
            float(q[m]) * (1.0 if kind is None else getattr(math, kind)(float(c) * pi))
            for q, kind, c in targets
        )
        worst = max(worst, abs(lhs - rhs))
    return worst


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
        for order in range(81):
            for m in range(order + 1):
                for layer_index in (0, 1):
                    for kind in BC_KINDS:
                        stepped = [
                            (j, Fraction(num, den), power) for j, num, den, power
                            in _layer_match_terms(m, layer_index, kind, order)
                        ]
                        assert stepped == list(
                            _transfer_match_terms(m, layer_index, kind, order)
                        )

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_match_residual_bit_identical_to_per_term(self, data):
        order = data.draw(st.integers(0, 30))
        kind = data.draw(st.sampled_from(BC_KINDS))
        decay = data.draw(st.booleans())  # Taylor-like entries c / j!
        entry = st.one_of(st.just(Fraction(0)), small_fractions)

        def layer():
            values = data.draw(st.lists(entry, min_size=order + 1, max_size=order + 1))
            return [v / fact(j) if decay else v for j, v in enumerate(values)]

        layer0, layer1 = layer(), layer()
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
        got, _ = _match_residual(layer0, layer1, kind, resolved, order)
        assert got == _per_term_match_residual(layer0, layer1, kind, targets, order)


def _fraction_infer_exact(known_index, closure_kind, targets, order):
    """Reference: the exact closure match solved and checked in Fractions."""
    values = [None] * (order + 1)
    inconsistency = 0.0
    for m in range(order, -1, -1):
        for j, num, den, power in _layer_match_terms(m, 1 - known_index, closure_kind, order):
            coef = Fraction(num, den)
            rhs = Fraction(0)
            for q, s, _ in targets:
                if s[power] != 0:
                    rhs += q[m] * s[power]
            if values[j] is None:
                values[j] = rhs / coef
            elif coef * values[j] != rhs:
                inconsistency = max(inconsistency, abs(float(coef * values[j] - rhs)))
    undetermined = tuple(j for j in range(order + 1) if values[j] is None)
    coeffs = tuple(v if v is not None else Fraction(0) for v in values)
    return coeffs, undetermined, inconsistency


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
        targets = _closure_targets(trace, order)
        assert _infer_exact(None, known_index, kind, targets, order) == _fraction_infer_exact(
            known_index, kind, targets, order
        )

    @pytest.mark.parametrize("trace,kind,known_index,consistent", [
        (FuncSpec(kind="cos", sym_amp="sinh_pi"), "dirichlet", 0, True),  # example1
        (FuncSpec(kind="cos", arg_scale=2, amplitude=2, sym_amp="sinh_2pi"), "neumann", 1, True),
        (FuncSpec(kind="cos", arg_scale=2, sym_amp="sinh_pi"), "dirichlet", 0, False),
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
        got = _infer_exact(None, known_index, kind, targets, order)
        assert got == _fraction_infer_exact(known_index, kind, targets, order)
        assert (got[2] == 0.0) == consistent


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
    origin = draw(st.sampled_from([(0, 0), (Fraction(1, 3), -2)]))
    return Spectrum2D(order, origin, table)


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
        assert (got.order, got.origin) == (expected.order, expected.origin)
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
        result = infer_missing_seed(
            known, known_index, MODEL_AXES[model_id], _model_closure(model_id), order
        )
        assert all(c == 0 for c in result.coeffs)
        assert result.warning is None

    def test_example1_float_route_pre_snap_small(self):
        order = 36
        known, known_index = _model_known("example1", order)
        result = infer_missing_seed(
            known, known_index, MARCH_IN_N, _model_closure("example1"), order,
            method="float",
        )
        assert result.method == "float"
        assert result.pre_snap is not None
        assert max(abs(v) for v in result.pre_snap) < 1e-10
        assert all(c == 0 for c in result.coeffs)

    def test_example3_recovers_cos2x_row(self):
        order = 44
        known, known_index = _model_known("example3", order)
        result = infer_missing_seed(
            known, known_index, MARCH_IN_N, _model_closure("example3"), order
        )
        assert result.method == "exact"
        assert result.undetermined == (0, 1)
        for j in range(2, order + 1):
            assert result.coeffs[j] == formula_example3(j, 0)

    def test_zero_problem(self):
        order = 20
        zero = [Fraction(0)] * (order + 1)
        closure = EdgeCondition("y=pi", "dirichlet", FuncSpec(kind="zero"))
        result = infer_missing_seed(zero, 0, MARCH_IN_N, closure, order)
        assert all(c == 0 for c in result.coeffs)
        assert result.residual == 0.0

    def test_non_opposite_edge_rejected(self):
        zero = [Fraction(0)] * 11
        closure = EdgeCondition("y=0", "dirichlet", FuncSpec(kind="zero"))
        with pytest.raises(DtmError, match="closure edge"):
            infer_missing_seed(zero, 0, MARCH_IN_N, closure, 10)
        closure = EdgeCondition("y=pi", "dirichlet", FuncSpec(kind="zero"))
        with pytest.raises(DtmError, match="closure edge"):
            infer_missing_seed(zero, 0, MARCH_IN_M, closure, 10)

    def test_exact_route_rejects_scale_mismatch(self):
        # cos(2t) paired with a scale-1 token cannot satisfy the pi-degree
        # identity; the exact route must refuse rather than invent a layer
        order = 20
        known = taylor_coeffs(FuncSpec(kind="sinh"), order)
        closure = EdgeCondition(
            "y=pi", "dirichlet", FuncSpec(kind="cos", arg_scale=2, sym_amp="sinh_pi")
        )
        with pytest.raises(InferenceError, match="parity matching inconsistent"):
            infer_missing_seed(known, 0, MARCH_IN_N, closure, order, method="exact")

    def test_bad_arguments(self):
        zero = [Fraction(0)] * 11
        closure = EdgeCondition("y=pi", "dirichlet", FuncSpec(kind="zero"))
        with pytest.raises(DtmError):
            infer_missing_seed(zero, 2, MARCH_IN_N, closure, 10)
        with pytest.raises(DtmError):
            infer_missing_seed(zero[:-1], 0, MARCH_IN_N, closure, 10)
        with pytest.raises(DtmError):
            infer_missing_seed(zero, 0, MARCH_IN_N, closure, 10, method="magic")

    def test_polynomial_neumann_closure_uses_float_route(self):
        # u(x,0) = 0, u_y(x,pi) = x^2/3 has the harmonic solution
        # y*pi^2/3 + x^2 y/3 - y^3/9; the pi^2/3 entry cannot satisfy the
        # pi-degree identity, so auto falls back to the float route
        order = 12
        zero = [Fraction(0)] * (order + 1)
        closure = EdgeCondition(
            "y=pi", "neumann",
            FuncSpec(kind="polynomial", poly_coeffs=(0, 0, Fraction(1, 3))),
        )
        result = infer_missing_seed(zero, 0, MARCH_IN_N, closure, order)
        assert result.method == "float"
        # tiny values become exact zeros, the rest are their floats' exact
        # binary rationals: no rounding to nearby small fractions
        assert result.coeffs == tuple(
            0 if abs(v) <= 1e-9 else Fraction(v) for v in result.pre_snap
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
        result = infer_missing_seed(zero, 0, MARCH_IN_N, closure, order)
        assert result.method == "exact"
        assert result.residual > 1e-9
        sin_x = taylor_coeffs(FuncSpec(kind="sin"), order)
        sin_6x = taylor_coeffs(FuncSpec(kind="sin", arg_scale=6), order)
        # U(m, 1) for m < order; the last entry lies outside the triangle
        expected = tuple(a + 6 * b for a, b in zip(sin_x, sin_6x))
        assert result.coeffs[:order] == expected[:order]


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
            EdgeCondition("y=0", "dirichlet", FuncSpec(kind="cos", sym_amp="sinh_pi")),
            EdgeCondition("y=pi", "dirichlet", FuncSpec(kind="zero")),
            EdgeCondition("x=0", "dirichlet", FuncSpec(kind="zero")),
            EdgeCondition("x=pi", "dirichlet", FuncSpec(kind="zero")),
        ))
        with pytest.raises(DtmError, match="seed edge"):
            solve_model(bc, 10)

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
                FuncSpec(kind="cos", sym_amp="sinh_pi"),
                FuncSpec(kind="cos", arg_scale=2, sym_amp="sinh_2pi"),
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
