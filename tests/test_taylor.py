"""Trace descriptors, exact Taylor coefficients and outer products."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dtm2d import (
    DtmError,
    FuncSpec,
    funcspec_from_json,
    outer_product,
    taylor_coeffs,
    trace_value,
)
from dtm2d.taylor import TOKEN_KINDS

from conftest import LEGACY_TOKEN_NAMES, enumerate_spectrum, formula_example1, small_fractions

fact = math.factorial

LIBRARY_KINDS = ("sin", "cos", "sinh", "cosh", "exp")


def _reference_coeffs(f, order):
    """Coefficient k as amplitude * scale**k * f^(k)(0) / k!, summed over the
    terms, with each derivative at 0 read off the kind."""
    derivative_at_0 = {
        "sin": lambda k: (0, 1, 0, -1)[k % 4],
        "cos": lambda k: (1, 0, -1, 0)[k % 4],
        "sinh": lambda k: k % 2,
        "cosh": lambda k: 1 - k % 2,
        "exp": lambda k: 1,
        "zero": lambda k: 0,
    }
    out = [Fraction(0)] * (order + 1)
    for term in f.flat_terms():
        for k in range(order + 1):
            if term.kind == "polynomial":
                base = term.poly_coeffs[k] if k < len(term.poly_coeffs) else 0
            else:
                base = Fraction(derivative_at_0[term.kind](k), fact(k))
            out[k] += term.amplitude * term.arg_scale**k * base
    return out


wide_fractions = st.fractions(
    min_value=Fraction(-40), max_value=Fraction(40), max_denominator=60
)


@st.composite
def library_terms(draw):
    kind = draw(st.sampled_from(LIBRARY_KINDS + ("polynomial", "zero")))
    poly = None
    if kind == "polynomial":
        poly = tuple(draw(st.lists(wide_fractions, min_size=1, max_size=90)))
    amplitude = draw(st.one_of(st.just(Fraction(0)), wide_fractions))
    return FuncSpec(kind=kind, arg_scale=draw(wide_fractions), amplitude=amplitude,
                    poly_coeffs=poly)


class TestTaylorCoeffs:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(library_terms(), min_size=1, max_size=3), st.integers(0, 80))
    def test_matches_factorial_reference(self, terms, order):
        f = terms[0] if len(terms) == 1 else FuncSpec(terms=tuple(terms))
        got = taylor_coeffs(f, order)
        assert got == _reference_coeffs(f, order)
        assert all(type(c) is Fraction for c in got)

    @pytest.mark.parametrize("kind", LIBRARY_KINDS)
    @pytest.mark.parametrize("scale", [Fraction(-3, 7), Fraction(0), Fraction(5, 2)])
    def test_every_kind_at_order_80(self, kind, scale):
        for amplitude in (Fraction(0), Fraction(-9, 4)):
            f = FuncSpec(kind=kind, arg_scale=scale, amplitude=amplitude)
            assert taylor_coeffs(f, 80) == _reference_coeffs(f, 80)

    def test_sinh_order5(self):
        got = taylor_coeffs(FuncSpec(kind="sinh"), 5)
        assert got == [0, 1, 0, Fraction(1, 6), 0, Fraction(1, 120)]

    def test_sin_order5(self):
        got = taylor_coeffs(FuncSpec(kind="sin"), 5)
        assert got == [0, 1, 0, Fraction(-1, 6), 0, Fraction(1, 120)]

    def test_cos_scale2_order4(self):
        got = taylor_coeffs(FuncSpec(kind="cos", arg_scale=2), 4)
        assert got == [1, 0, -2, 0, Fraction(2, 3)]

    def test_exp_and_amplitude(self):
        got = taylor_coeffs(FuncSpec(kind="exp", amplitude=Fraction(3, 2)), 3)
        assert got == [Fraction(3, 2), Fraction(3, 2), Fraction(3, 4), Fraction(1, 4)]

    def test_polynomial_passthrough(self):
        f = FuncSpec(kind="polynomial", poly_coeffs=(1, 0, Fraction(-2, 3)))
        assert taylor_coeffs(f, 4) == [1, 0, Fraction(-2, 3), 0, 0]

    def test_polynomial_with_scale_and_amplitude(self):
        f = FuncSpec(kind="polynomial", poly_coeffs=(0, 1), arg_scale=3, amplitude=2)
        # 2 * (3t) = 6t
        assert taylor_coeffs(f, 2) == [0, 6, 0]

    def test_zero_trace(self):
        assert taylor_coeffs(FuncSpec(kind="zero"), 3) == [0, 0, 0, 0]

    def test_sym_amp_rejected_on_exact_path(self):
        with pytest.raises(DtmError, match="symbolic amplitude"):
            taylor_coeffs(FuncSpec(kind="cos", sym_amp=FuncSpec(kind="sinh")), 3)

    def test_sum_linearity_example(self):
        f1 = FuncSpec(kind="sinh", amplitude=2)
        f2 = FuncSpec(kind="cos", arg_scale=2, amplitude=Fraction(-1, 3))
        total = FuncSpec(terms=(f1, f2))
        a = taylor_coeffs(f1, 6)
        b = taylor_coeffs(f2, 6)
        assert taylor_coeffs(total, 6) == [x + y for x, y in zip(a, b)]

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(LIBRARY_KINDS),
        st.sampled_from(LIBRARY_KINDS),
        small_fractions,
        small_fractions,
    )
    def test_linearity_property(self, k1, k2, c1, c2):
        order = 8
        f1, f2 = FuncSpec(kind=k1), FuncSpec(kind=k2)
        combined = FuncSpec(
            terms=(
                FuncSpec(kind=k1, amplitude=c1),
                FuncSpec(kind=k2, amplitude=c2),
            )
        )
        a = taylor_coeffs(f1, order)
        b = taylor_coeffs(f2, order)
        assert taylor_coeffs(combined, order) == [c1 * x + c2 * y for x, y in zip(a, b)]


DERIVATIVES = {
    "sin": lambda scale, amp: FuncSpec(kind="cos", arg_scale=scale, amplitude=amp * scale),
    "cos": lambda scale, amp: FuncSpec(kind="sin", arg_scale=scale, amplitude=-amp * scale),
    "sinh": lambda scale, amp: FuncSpec(kind="cosh", arg_scale=scale, amplitude=amp * scale),
    "cosh": lambda scale, amp: FuncSpec(kind="sinh", arg_scale=scale, amplitude=amp * scale),
    "exp": lambda scale, amp: FuncSpec(kind="exp", arg_scale=scale, amplitude=amp * scale),
}


class TestDerivativeConsistency:
    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(LIBRARY_KINDS),
        small_fractions.filter(lambda f: f != 0),
        small_fractions.filter(lambda f: f != 0),
    )
    def test_shifted_coeffs_give_derivative(self, kind, scale, amp):
        order = 8
        f = FuncSpec(kind=kind, arg_scale=scale, amplitude=amp)
        fprime = DERIVATIVES[kind](scale, amp)
        coeffs = taylor_coeffs(f, order + 1)
        shifted = [(k + 1) * coeffs[k + 1] for k in range(order + 1)]
        assert shifted == taylor_coeffs(fprime, order)

    def test_polynomial_derivative(self):
        f = FuncSpec(kind="polynomial", poly_coeffs=(5, 0, 3, Fraction(1, 2)))
        coeffs = taylor_coeffs(f, 4)
        shifted = [(k + 1) * coeffs[k + 1] for k in range(4)]
        fprime = FuncSpec(kind="polynomial", poly_coeffs=(0, 6, Fraction(3, 2)))
        assert shifted == taylor_coeffs(fprime, 3)


class TestNumericalConsistency:
    @pytest.mark.parametrize("kind,ref", [
        ("sin", math.sin),
        ("cos", math.cos),
        ("sinh", math.sinh),
        ("cosh", math.cosh),
        ("exp", math.exp),
    ])
    @pytest.mark.parametrize("t", [0.1, 0.5, 1.0])
    def test_order_20_truncation_matches_platform(self, kind, ref, t):
        coeffs = taylor_coeffs(FuncSpec(kind=kind), 20)
        value = 0.0
        for c in reversed(coeffs):
            value = value * t + float(c)
        assert abs(value - ref(t)) < 1e-12

    def test_trace_value_uses_platform_functions(self):
        f = FuncSpec(kind="cos", arg_scale=2, amplitude=2,
                     sym_amp=FuncSpec(kind="sinh", arg_scale=2))
        t = 0.7
        assert abs(trace_value(f, t) - 2 * math.cos(2 * t) * math.sinh(2 * math.pi)) < 1e-12

    @pytest.mark.parametrize("kind", ["sinh", "cosh", "exp"])
    def test_trace_value_past_float_range_is_inf(self, kind):
        # math raises on sinh, cosh or exp of 300 pi; the trace reads inf, as
        # it does for an amplitude that no float holds
        assert trace_value(FuncSpec(kind=kind, arg_scale=300), math.pi) == math.inf
        assert trace_value(FuncSpec(kind=kind, amplitude=10**400), 1.0) == math.inf
        if kind == "sinh":
            minus = trace_value(FuncSpec(kind=kind, arg_scale=300, amplitude=-1), math.pi)
            assert minus == trace_value(FuncSpec(kind=kind, arg_scale=-300), math.pi) == -math.inf


def _per_point_trace_value(f, t):
    """Reference: every constant converted again at each point, per term
    (amplitude * token) * base, summed in term order."""
    total = 0.0
    for term in f.flat_terms():
        if term.kind == "zero" or term.amplitude == 0:
            continue
        u = float(term.arg_scale) * t
        if term.kind == "polynomial":
            base = 0.0
            for c in reversed(term.poly_coeffs):
                base = base * u + float(c)
        else:
            base = getattr(math, term.kind)(u)
        token = term.sym_amp
        token_value = 1.0 if token is None else getattr(math, token.kind)(
            float(token.arg_scale) * math.pi
        )
        total += float(term.amplitude) * token_value * base
    return total


@st.composite
def token_terms(draw):
    term = draw(library_terms())
    token = draw(st.none() | st.builds(
        lambda kind, c: FuncSpec(kind=kind, arg_scale=c),
        st.sampled_from(TOKEN_KINDS),
        st.fractions(min_value=Fraction(1, 4), max_value=3, max_denominator=4),
    ))
    return FuncSpec(kind=term.kind, arg_scale=term.arg_scale, amplitude=term.amplitude,
                    poly_coeffs=term.poly_coeffs, sym_amp=token)


@settings(max_examples=200, deadline=None)
@given(st.lists(token_terms(), min_size=1, max_size=3),
       st.lists(st.floats(-4, 4) | st.sampled_from((0.0, -0.0, math.pi)), min_size=1, max_size=5))
def test_trace_value_bit_identical_to_per_point_evaluation(terms, ts):
    # the first call converts the constants and the later ones reuse them
    f = terms[0] if len(terms) == 1 else FuncSpec(terms=tuple(terms))
    for t in ts + ts:
        got, expected = trace_value(f, t), _per_point_trace_value(f, t)
        assert got == expected or (math.isnan(got) and math.isnan(expected))
        assert math.copysign(1.0, got) == math.copysign(1.0, expected)


class TestOuterProduct:
    def test_sinh_times_cos_restriction(self):
        order = 4
        f = taylor_coeffs(FuncSpec(kind="sinh"), order)
        g = taylor_coeffs(FuncSpec(kind="cos"), order)
        assert outer_product(f, g, order) == enumerate_spectrum(formula_example1, order)

    def test_unit_factor_gives_column(self):
        order = 5
        g = taylor_coeffs(FuncSpec(kind="sin"), order)
        s = outer_product([1] + [0] * order, g, order)
        for n in range(order + 1):
            assert s.get(0, n) == g[n]
        assert all(m == 0 for (m, _n) in s.entries)

    def test_scale2_product_value(self):
        order = 4
        f = taylor_coeffs(FuncSpec(kind="cos", arg_scale=2), order)
        g = taylor_coeffs(FuncSpec(kind="cosh", arg_scale=2), order)
        s = outer_product(f, g, order)
        assert s.get(2, 2) == -4

    def test_insufficient_coefficients(self):
        with pytest.raises(DtmError, match="at least"):
            outer_product([1, 2], [1, 2], 2)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_rank_one_minors_vanish(self, data):
        order = data.draw(st.integers(1, 6))
        f = [data.draw(small_fractions) for _ in range(order + 1)]
        g = [data.draw(small_fractions) for _ in range(order + 1)]
        s = outer_product(f, g, order)
        keys = sorted(s.entries)
        for m, n in keys:
            for mp, np_ in keys:
                if m + np_ > order or mp + n > order:
                    continue  # cross corners truncated away
                minor = s.get(m, n) * s.get(mp, np_) - s.get(m, np_) * s.get(mp, n)
                assert minor == 0


class TestValidationAndJson:
    def test_unknown_kind(self):
        with pytest.raises(DtmError):
            FuncSpec(kind="tan")

    def test_polynomial_needs_coeffs(self):
        with pytest.raises(DtmError):
            FuncSpec(kind="polynomial")

    def test_non_polynomial_rejects_coeffs(self):
        with pytest.raises(DtmError):
            FuncSpec(kind="sin", poly_coeffs=(1,))

    def test_unknown_token(self):
        with pytest.raises(DtmError):
            FuncSpec(kind="sin", sym_amp="tanh_pi")
        for token in (FuncSpec(kind="exp"), FuncSpec(kind="sinh", amplitude=2),
                      FuncSpec(kind="sinh", sym_amp=FuncSpec(kind="cosh")), {"kind": "sinh"}):
            with pytest.raises(DtmError):
                FuncSpec(kind="sin", sym_amp=token)

    @pytest.mark.parametrize("name", LEGACY_TOKEN_NAMES)
    def test_legacy_token_names_refused(self, name):
        # a token is only a trace object; the message shows that spelling
        for make in (lambda: FuncSpec(kind="cos", sym_amp=name),
                     lambda: funcspec_from_json({"kind": "cos", "sym_amp": name})):
            with pytest.raises(DtmError, match='"kind": "sinh", "arg_scale": "2"'):
                make()

    @pytest.mark.parametrize("field, value", [
        ("kind", "sin"), ("amplitude", 5), ("arg_scale", 2),
        ("sym_amp", FuncSpec(kind="sinh")), ("poly_coeffs", (1,)),
    ])
    def test_sum_refuses_other_fields(self, field, value):
        # these once built, and flat_terms() then ignored the field
        with pytest.raises(DtmError, match=f"takes terms alone; its {field} is set"):
            FuncSpec(terms=(FuncSpec(kind="cos"),), **{field: value})
        # fields left at their defaults, spelled or not, build the same sum
        assert FuncSpec(kind="zero", arg_scale=1, terms=(FuncSpec(kind="cos"),)) == FuncSpec(
            terms=(FuncSpec(kind="cos"),))

    def test_is_zero(self):
        assert FuncSpec(kind="zero").is_zero()
        assert FuncSpec(kind="sin", amplitude=0).is_zero()
        assert FuncSpec(kind="polynomial", poly_coeffs=(0, 0)).is_zero()
        assert not FuncSpec(kind="sin").is_zero()

    def test_json_reader(self):
        f = FuncSpec(kind="sin", arg_scale=2, amplitude=Fraction(1, 1))
        data = {"kind": "sin", "arg_scale": "2/1", "amplitude": "1/1", "sym_amp": None}
        assert funcspec_from_json(data) == f
        assert funcspec_from_json({"kind": "sin", "arg_scale": 2}) == f
        token = {"kind": "cos", "sym_amp": {"kind": "sinh", "arg_scale": "2"}}
        assert funcspec_from_json(token) == FuncSpec(
            kind="cos", sym_amp=FuncSpec(kind="sinh", arg_scale=2)
        )

    @pytest.mark.parametrize("data, key", [
        ({"kind": "sin", "amplitud": "2"}, "amplitud"),
        ({"kind": "sin", "sym_amp": {"kind": "sinh", "scale": "2"}}, "scale"),
        ({"terms": [{"kind": "sin"}], "amplitude": "2"}, "amplitude"),
        ({"terms": [{"kind": "sin", "knd": "cos"}]}, "knd"),
    ])
    def test_json_reader_refuses_unknown_keys(self, data, key):
        with pytest.raises(DtmError, match=f"unknown trace key '{key}'"):
            funcspec_from_json(data)

    def test_json_reader_sum_and_poly(self):
        f = FuncSpec(
            terms=(
                FuncSpec(kind="polynomial", poly_coeffs=(1, Fraction(-1, 2))),
                FuncSpec(kind="cosh", arg_scale=2, sym_amp=FuncSpec(kind="sinh", arg_scale=2)),
            )
        )
        data = {"terms": [
            {"kind": "polynomial", "poly_coeffs": ["1", "-1/2"]},
            {"kind": "cosh", "arg_scale": "2", "sym_amp": {"kind": "sinh", "arg_scale": "2"}},
        ]}
        assert funcspec_from_json(data) == f
