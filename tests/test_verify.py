"""Series evaluation, residual measurement and spectrum comparison."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dtm2d import (
    CauchySeed,
    DtmError,
    FuncSpec,
    GridSpec,
    MARCH_IN_N,
    ReferenceSolution,
    boundary_residual,
    compare_closed_form,
    dt_derivative,
    eval2d,
    eval_grid,
    make_spectrum,
    model_catalog,
    outer_product,
    propagate,
    solve_example,
    spectrum_diff,
    taylor_coeffs,
)

from conftest import (
    MODEL_FORMULAS,
    enumerate_spectrum,
    formula_example1,
    formula_example2,
    small_fractions,
)

fact = math.factorial


class TestEval2d:
    def test_empty_spectrum(self):
        assert eval2d(make_spectrum(5), 1.3, 2.2) == 0.0

    def test_example1_at_y_zero(self):
        s = enumerate_spectrum(formula_example1, 20)
        assert abs(eval2d(s, 1.0, 0.0) - math.sinh(1.0)) < 1e-12

    def test_example2_at_half_pi(self):
        s = enumerate_spectrum(formula_example2, 20)
        assert abs(eval2d(s, 0.0, math.pi / 2) - 1.0) < 1e-12

    def test_exact_on_integer_polynomials(self):
        s = make_spectrum(3, [(0, 0, 3), (1, 1, -2), (2, 0, 1), (0, 3, 5)])
        for x in (0.0, 1.0, 2.0):
            for y in (0.0, 1.0, 2.0):
                expected = 3 - 2 * x * y + x * x + 5 * y**3
                assert eval2d(s, x, y) == expected

    def test_deterministic_summation(self):
        s = enumerate_spectrum(formula_example1, 24)
        a = eval2d(s, 1.234567, 2.345678)
        b = eval2d(s, 1.234567, 2.345678)
        assert a == b


def horner_point(s, x, y):
    """Per-point reference: Horner over n within each row, then over m."""
    dx = x - float(s.origin[0])
    dy = y - float(s.origin[1])
    rows = [[0.0] * (s.order - m + 1) for m in range(s.order + 1)]
    for (m, n), c in s.entries.items():
        rows[m][n] = float(c)
    total = 0.0
    for m in range(s.order, -1, -1):
        row = 0.0
        for coeff in reversed(rows[m]):
            row = row * dy + coeff
        total = total * dx + row
    return total


nonzero_origins = st.fractions(
    min_value=Fraction(-3), max_value=Fraction(3), max_denominator=12
).filter(lambda f: f != 0)


@st.composite
def half_zero_spectra(draw):
    """Orders 0..25, nonzero rational origin, about half the entries zero."""
    order = draw(st.integers(0, 25))
    rng = draw(st.randoms(use_true_random=False))
    entries = [
        (m, n, Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6)))
        for m in range(order + 1)
        for n in range(order + 1 - m)
        if rng.random() < 0.5
    ]
    return make_spectrum(order, entries, (draw(nonzero_origins), draw(nonzero_origins)))


class TestEvalGrid:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_bit_identical_to_per_point_horner(self, data):
        s = data.draw(half_zero_spectra())
        points = st.lists(st.floats(0.0, math.pi), max_size=4)
        xs = data.draw(st.permutations([0.0, math.pi] + data.draw(points)))
        ys = data.draw(st.permutations([0.0, math.pi] + data.draw(points)))
        values = eval_grid(s, xs, ys)
        assert len(values) == len(xs)
        for x, row in zip(xs, values):
            assert len(row) == len(ys)
            for y, value in zip(ys, row):
                expected = horner_point(s, x, y)
                assert value == expected
                assert math.copysign(1.0, value) == math.copysign(1.0, expected)


class TestBoundaryResidual:
    def test_structural_zero_edge_example4(self):
        report = solve_example(4, 30)
        res = boundary_residual(report.spectrum, model_catalog()["example4"].bc, 41)
        assert res["x=0"] == 0.0

    def test_example1_far_edge_tight(self):
        report = solve_example(1, 36)
        res = boundary_residual(report.spectrum, model_catalog()["example1"].bc, 41)
        assert res["y=pi"] < 1e-10

    def test_zero_spectrum_vs_zero_traces(self):
        from dtm2d import BoundarySpec, EdgeCondition

        bc = BoundarySpec(tuple(
            EdgeCondition(edge, "dirichlet", FuncSpec(kind="zero"))
            for edge in ("x=0", "x=pi", "y=0", "y=pi")
        ))
        res = boundary_residual(make_spectrum(6), bc, 11)
        assert all(v == 0.0 for v in res.values())

    def test_neumann_edges_differentiate_once_per_axis(self, monkeypatch):
        import dtm2d.verify

        real = dtm2d.verify.dt_derivative
        calls = []

        def counting(s, r, q):
            calls.append((r, q))
            return real(s, r, q)

        bc = model_catalog()["example3"].bc
        assert all(c.kind == "neumann" for c in bc.conditions)
        spectrum = solve_example(3, 20).spectrum
        monkeypatch.setattr(dtm2d.verify, "dt_derivative", counting)
        res = boundary_residual(spectrum, bc, 11)
        assert sorted(calls) == [(0, 1), (1, 0)]
        assert sorted(res) == ["x=0", "x=pi", "y=0", "y=pi"]

    def test_samples_validation(self):
        bc = model_catalog()["example1"].bc
        with pytest.raises(DtmError):
            boundary_residual(make_spectrum(4), bc, 1)


class TestCompareClosedForm:
    def test_example1_order36(self):
        report = solve_example(1, 36)
        err = compare_closed_form(
            report.spectrum, ReferenceSolution("sinh(x)*cos(y)"), GridSpec.uniform(21)
        )
        assert err < 1e-10

    def test_example3_order60(self):
        report = solve_example(3, 60)
        err = compare_closed_form(
            report.spectrum, ReferenceSolution("cos(2x)*cosh(2y)"), GridSpec.uniform(21)
        )
        assert err < 1e-10

    def test_self_consistency_outer_product(self):
        order = 36
        f = taylor_coeffs(FuncSpec(kind="sinh"), order)
        g = taylor_coeffs(FuncSpec(kind="cos"), order)
        s = outer_product(f, g, order)
        err = compare_closed_form(
            s, ReferenceSolution("sinh(x)*cos(y)"), GridSpec.uniform(21)
        )
        assert err < 1e-10

    @pytest.mark.parametrize("model_id", sorted(MODEL_FORMULAS))
    def test_monotone_in_order(self, model_id):
        model = model_catalog()[model_id]
        grid = GridSpec.uniform(21)
        ref = ReferenceSolution(model.reference)
        errors = [
            compare_closed_form(solve_example(model_id, order).spectrum, ref, grid)
            for order in (12, 16, 20)
        ]
        for earlier, later in zip(errors, errors[1:]):
            assert later <= earlier + 1e-13


class TestSpectrumDiff:
    def test_identity(self):
        s = enumerate_spectrum(formula_example1, 6)
        assert spectrum_diff(s, s) == (Fraction(0), [])

    def test_solution_vs_formula(self):
        report = solve_example(1, 12)
        assert spectrum_diff(report.spectrum, enumerate_spectrum(formula_example1, 12)) == (
            Fraction(0),
            [],
        )

    def test_example1_vs_example2_keys(self):
        u = enumerate_spectrum(formula_example1, 3)
        v = enumerate_spectrum(formula_example2, 3)
        worst, keys = spectrum_diff(u, v)
        assert keys == [(0, 1), (0, 3), (1, 0), (1, 2), (2, 1), (3, 0)]
        assert worst == Fraction(1)

    def test_order_mismatch(self):
        with pytest.raises(DtmError):
            spectrum_diff(make_spectrum(2), make_spectrum(3))


class TestDerivativeEvalConsistency:
    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_matches_finite_difference(self, data):
        order = data.draw(st.integers(2, 8))
        # factorially damped harmonic spectra keep values and derivatives O(1)
        layer0 = tuple(
            data.draw(small_fractions) / fact(j) for j in range(order + 1)
        )
        layer1 = tuple(
            data.draw(small_fractions) / fact(j) for j in range(order + 1)
        )
        s = propagate(CauchySeed(MARCH_IN_N, order, layer0, layer1))
        x = data.draw(st.floats(0.3, 2.8))
        y = data.draw(st.floats(0.3, 2.8))
        h = 1e-5
        exact = eval2d(dt_derivative(s, 1, 0), x, y)
        approx = (eval2d(s, x + h, y) - eval2d(s, x - h, y)) / (2 * h)
        assert abs(exact - approx) < 1e-6


class TestGridAndReference:
    def test_uniform_grid(self):
        grid = GridSpec.uniform(5)
        assert grid.x_points[0] == 0.0
        assert grid.x_points[-1] == pytest.approx(math.pi)
        assert len(grid.y_points) == 5

    def test_grid_validation(self):
        with pytest.raises(DtmError):
            GridSpec((), (0.0,))
        with pytest.raises(DtmError):
            GridSpec((0.0, 4.0), (0.0,))
        with pytest.raises(DtmError):
            GridSpec.uniform(1)

    def test_reference_values(self):
        assert ReferenceSolution("cos(x)*sinh(y)")(0.5, 0.25) == pytest.approx(
            math.cos(0.5) * math.sinh(0.25)
        )
        assert ReferenceSolution("cos(3/2x)*sinh(2y)")(0.5, 0.25) == pytest.approx(
            math.cos(0.75) * math.sinh(0.5)
        )
        for bad in ("tan(x)", "tan(x)*cos(y)", "cos(0x)*sinh(y)", "cos(x)*sinh(x)",
                    "cos(-2x)*cosh(2y)", "cos(2/0x)*cosh(y)", 5):
            with pytest.raises(DtmError):
                ReferenceSolution(bad)
