"""Series evaluation, residual measurement and spectrum comparison."""

import hashlib
import json
import math
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
    MARCH_IN_N,
    ReferenceSolution,
    Spectrum2D,
    boundary_residual,
    compare_closed_form,
    dt_add,
    dt_derivative,
    eval2d,
    eval_grid,
    make_spectrum,
    model_catalog,
    outer_product,
    propagate,
    solve_example,
    spectrum_diff,
    spectrum_to_json,
    taylor_coeffs,
)
from dtm2d.taylor import trace_value

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
    """Per-point reference: Horner over n within each row from its highest
    stored n, then over m from the highest stored m, every slot one step."""
    rows = {}
    for (m, n), c in s.entries.items():
        rows.setdefault(m, {})[n] = float(c)
    total = 0.0
    for m in range(max(rows, default=-1), -1, -1):
        coeffs, row = rows.get(m, {}), 0.0
        for n in range(max(coeffs, default=-1), -1, -1):
            row = row * y + coeffs.get(n, 0.0)
        total = total * x + row
    return total


def same(a, b):
    """Bit-identical as a report shows it: equal with the same sign of zero,
    or both NaN."""
    if a != a or b != b:
        return a != a and b != b
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def fresh(s):
    """The same spectrum with an empty memo, so every projection and row
    sum is built again."""
    return Spectrum2D(s.order, entries=dict(s.entries))


# the points where a stride step could first differ from two dense steps
SPECIAL_POINTS = [-math.inf, math.inf, math.nan, -0.0, 0.0, 5e-324, -5e-324]

nonzero_points = st.fractions(
    min_value=Fraction(-3), max_value=Fraction(3), max_denominator=12
).filter(lambda f: f != 0).map(float)


@st.composite
def half_zero_spectra(draw):
    """Orders 0..25, about half the entries zero."""
    order = draw(st.integers(0, 25))
    rng = draw(st.randoms(use_true_random=False))
    entries = [
        (m, n, Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6)))
        for m in range(order + 1)
        for n in range(order + 1 - m)
        if rng.random() < 0.5
    ]
    return make_spectrum(order, entries)


@st.composite
def parity_sparse_spectra(draw, max_order=25):
    """Orders 0..max_order with entries on one (m, n) parity class only, so
    every other row is empty and every other entry of a row is zero; in some
    spectra entries that round to +-0.0 (+-10^-400) sit at heads, interior
    slots and row tails, and some entries are +-1, so that sums cancel."""
    order = draw(st.integers(0, max_order))
    pm, pn = draw(st.integers(0, 1)), draw(st.integers(0, 1))
    rng = draw(st.randoms(use_true_random=False))
    tiny = draw(st.sampled_from((0.0, 0.15, 0.5)))
    entries = []
    for m in range(pm, order + 1, 2):
        for n in range(pn, order + 1 - m, 2):
            draw_kind = rng.random()
            if draw_kind < tiny:
                c = Fraction(rng.choice((-1, 1)), 10**400)
            elif draw_kind < tiny + 0.15:
                c = Fraction(rng.choice((-1, 1)))
            elif draw_kind < 0.85:
                c = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))
            else:
                continue
            entries.append((m, n, c))
    return make_spectrum(order, entries)


class TestEvalGrid:
    @pytest.mark.parametrize("sign", [1, -1])
    def test_entry_past_float_range_is_inf(self, sign):
        s = make_spectrum(0, [(0, 0, sign * 10**400)])
        assert eval_grid(s, [0.0], [0.0]) == [[sign * math.inf]]

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_bit_identical_to_per_point_horner(self, data):
        s = data.draw(half_zero_spectra())
        # negative points too: x, y < 0 as well as the square [0, pi]
        points = st.lists(st.floats(-3.0, math.pi + 3.0), max_size=4)
        special = st.lists(st.sampled_from(SPECIAL_POINTS), max_size=2)
        xs = data.draw(st.permutations([-0.75, 0.0, math.pi] + data.draw(points) + data.draw(special)))
        ys = data.draw(st.permutations([-0.75, 0.0, math.pi] + data.draw(points) + data.draw(special)))
        values = eval_grid(s, xs, ys)
        assert len(values) == len(xs)
        for x, row in zip(xs, values):
            assert len(row) == len(ys)
            for y, value in zip(ys, row):
                assert same(value, horner_point(s, x, y))

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_parity_sparse_bit_identical_to_per_point_horner(self, data):
        s = data.draw(parity_sparse_spectra())
        # points below, at and above the origin, and where a stride step
        # could differ from two dense steps: +-inf, NaN, +-0.0, +-5e-324
        points = [-0.75, 0.5, -1.0, 1.0, math.pi, data.draw(nonzero_points)] + SPECIAL_POINTS
        xs = data.draw(st.permutations(points))
        ys = data.draw(st.permutations(points))
        for x, row in zip(xs, eval_grid(s, xs, ys)):
            for y, value in zip(ys, row):
                assert same(value, horner_point(s, x, y))

    def test_negative_zero_head_keeps_its_sign(self):
        # the one entry rounds to -0.0; only x < 0 and y < 0 carry the sign
        s = make_spectrum(3, [(0, 0, Fraction(-1, 10**400))])
        pts = (-1.0, 0.0, 1.0)
        values = eval_grid(s, pts, pts)
        signs = [[math.copysign(1.0, v) for v in row] for row in values]
        assert signs == [[-1.0, 1.0, 1.0], [1.0, 1.0, 1.0], [1.0, 1.0, 1.0]]
        for x, row in zip(pts, values):
            for y, value in zip(pts, row):
                assert math.copysign(1.0, horner_point(s, x, y)) == math.copysign(1.0, value)


EDGE_NAMES = ("x=0", "x=pi", "y=0", "y=pi")


def edgewise_boundary_residual(s, bc, samples):
    """Reference: each edge evaluates its own series point by point with
    :func:`horner_point`, a Neumann edge the derivative spectrum built by
    dt_derivative."""
    ts = [i * math.pi / (samples - 1) for i in range(samples)]
    out = {}
    for cond in bc.conditions:
        axis, at = cond.edge.split("=")
        level = 0.0 if at == "0" else math.pi
        if cond.kind == "dirichlet":
            series = s
        elif s.order == 0:
            series = make_spectrum(0)
        else:
            series = dt_derivative(s, 1, 0) if axis == "x" else dt_derivative(s, 0, 1)
        points = [(level, t) for t in ts] if axis == "x" else [(t, level) for t in ts]
        values = [horner_point(series, x, y) for x, y in points]
        worst = 0.0
        for t, value in zip(ts, values):
            worst = max(worst, abs(value - trace_value(cond.trace, t)))
        out[cond.edge] = worst
    return out


big_fractions = st.builds(
    Fraction, st.integers(-10**40, 10**40), st.integers(1, 10**40)
)


@settings(max_examples=500, deadline=None)
@given(st.integers(-10**30, 10**30), st.one_of(small_fractions, big_fractions))
def test_integer_scaled_projection_is_float_of_fraction(f, c):
    # the projection writes (perm(m, r) perm(n, q) c.numerator) / c.denominator
    assert (f * c.numerator) / c.denominator == float(f * c)


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
        bc = BoundarySpec(tuple(
            EdgeCondition(edge, "dirichlet", FuncSpec(kind="zero"))
            for edge in ("x=0", "x=pi", "y=0", "y=pi")
        ))
        res = boundary_residual(make_spectrum(6), bc, 11)
        assert all(v == 0.0 for v in res.values())

    @pytest.mark.parametrize("kinds,expected", [
        (("dirichlet",) * 4, [(0, 0)]),
        (("neumann",) * 4, [(0, 1), (1, 0)]),
        (("neumann", "neumann", "dirichlet", "dirichlet"), [(0, 0), (1, 0)]),
        (("dirichlet", "neumann", "dirichlet", "neumann"), [(0, 0), (0, 1), (1, 0)]),
    ], ids=["dirichlet", "neumann", "neumann_x", "mixed"])
    def test_projects_each_distinct_series_once(self, monkeypatch, kinds, expected):
        import dtm2d.verify

        real = dtm2d.verify._project
        calls = []

        def counting(s, r=0, q=0):
            calls.append((r, q))
            return real(s, r, q)

        bc = BoundarySpec(tuple(
            EdgeCondition(edge, kind, FuncSpec(kind="zero"))
            for edge, kind in zip(EDGE_NAMES, kinds)
        ))
        spectrum = fresh(solve_example(3, 20).spectrum)
        monkeypatch.setattr(dtm2d.verify, "_project", counting)
        res = boundary_residual(spectrum, bc, 11)
        assert sorted(calls) == expected
        assert sorted(res) == list(EDGE_NAMES)
        # once per spectrum: a second check projects nothing again
        assert boundary_residual(spectrum, bc, 11) == res
        assert sorted(calls) == expected

    @pytest.mark.parametrize("samples", [2, 11, 12, 14, 41])
    @pytest.mark.parametrize("kind", ["dirichlet", "neumann"])
    def test_sums_rows_once_per_series_and_y(self, monkeypatch, kind, samples):
        import dtm2d.verify

        real = dtm2d.verify._row_sums
        calls = []

        def counting(rows, dy):
            calls.append((id(rows), dy))
            return real(rows, dy)

        bc = BoundarySpec(tuple(
            EdgeCondition(edge, kind, FuncSpec(kind="zero")) for edge in EDGE_NAMES
        ))
        spectrum = fresh(solve_example(3, 20).spectrum)
        monkeypatch.setattr(dtm2d.verify, "_row_sums", counting)
        boundary_residual(spectrum, bc, samples)
        ts = {i * math.pi / (samples - 1) for i in range(samples)}
        # (k pi) / k != pi for k = 11, 13, ...: the y=pi level is one more y
        expected = len(ts | {0.0, math.pi}) if kind == "dirichlet" else len(ts) + 2
        assert len(calls) == len(set(calls)) == expected
        boundary_residual(spectrum, bc, samples)
        assert len(calls) == expected

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_bit_identical_to_edgewise_derivative_reference(self, data):
        # parity-sparse spectra stride the (1, 0) and (0, 1) projections too
        order = data.draw(st.one_of(st.integers(0, 2), st.integers(3, 16)))
        rng = data.draw(st.randoms(use_true_random=False))
        entries = [
            (m, n, Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6)))
            for m in range(order + 1)
            for n in range(order + 1 - m)
            if rng.random() < 0.6
        ]
        s = data.draw(st.one_of(st.just(make_spectrum(order, entries)),
                                parity_sparse_spectra(max_order=16)))
        traces = st.builds(
            lambda kind, c, a: FuncSpec(kind=kind, arg_scale=c, amplitude=a),
            st.sampled_from(("sin", "cos", "sinh", "cosh", "zero")),
            st.fractions(Fraction(1, 4), 3, max_denominator=4), small_fractions,
        )
        bc = BoundarySpec(tuple(
            EdgeCondition(edge, data.draw(st.sampled_from(("dirichlet", "neumann"))),
                          data.draw(traces))
            for edge in data.draw(st.permutations(EDGE_NAMES))
        ))
        samples = data.draw(st.integers(2, 9))
        got = boundary_residual(s, bc, samples)
        expected = edgewise_boundary_residual(s, bc, samples)
        assert list(got) == list(expected)
        assert all(same(got[edge], expected[edge]) for edge in got)

    def test_samples_validation(self):
        bc = model_catalog()["example1"].bc
        with pytest.raises(DtmError):
            boundary_residual(make_spectrum(4), bc, 1)


class TestSharedEvaluation:
    @pytest.mark.parametrize("model_id,order,projections,passes", [
        # the 21 grid y are 21 of the 41 edge samples: one (0, 0) projection
        (1, 36, [(0, 0)], 41),
        # Neumann: (1, 0) at the 41 samples, (0, 1) at y = 0 and pi, (0, 0)
        # at the 21 grid y
        (3, 60, [(0, 0), (0, 1), (1, 0)], 21 + 41 + 2),
    ])
    def test_grid_and_edges_share_projection_and_row_sums(
        self, monkeypatch, model_id, order, projections, passes
    ):
        import dtm2d.verify

        project, row_sums = dtm2d.verify._project, dtm2d.verify._row_sums
        projected, summed = [], []

        def counting_project(s, r=0, q=0):
            projected.append((r, q))
            return project(s, r, q)

        def counting_row_sums(projection, y):
            summed.append(y)
            return row_sums(projection, y)

        monkeypatch.setattr(dtm2d.verify, "_project", counting_project)
        monkeypatch.setattr(dtm2d.verify, "_row_sums", counting_row_sums)
        report = solve_example(model_id, order)
        assert sorted(projected) == projections
        assert len(summed) == passes
        assert report.closed_form_error < 1e-8

    def test_eval2d_reads_the_memoised_projection(self, monkeypatch):
        # eval2d once built the whole projection again at every point
        import dtm2d.verify

        project, projected = dtm2d.verify._project, []

        def counting_project(s, r=0, q=0):
            projected.append((r, q))
            return project(s, r, q)

        s = fresh(solve_example(1, 36).spectrum)
        monkeypatch.setattr(dtm2d.verify, "_project", counting_project)
        values = [eval2d(s, x, y) for x, y in ((0.5, 1.5), (2.0, 0.25))]
        assert projected == [(0, 0)]
        assert list(s.memo) == [(0, 0)]  # row sums are not kept
        assert values == [horner_point(s, x, y) for x, y in ((0.5, 1.5), (2.0, 0.25))]

    def test_memo_is_not_part_of_the_value(self):
        s = solve_example(1, 12).spectrum
        assert s.memo
        copy = fresh(s)
        assert copy == s and not copy.memo and repr(copy) == repr(s)

    def test_signed_zero_points_are_summed_apart(self):
        # y^2 - 10^-400: its row sum is +0.0 at y = 0.0 and -0.0 at y = -0.0
        from dtm2d.verify import _horner, _shared_sums

        s = make_spectrum(2, [(0, 0, Fraction(-1, 10**400)), (0, 2, 1)])
        values = [_horner(_shared_sums(s, 0, 0, y), -1.0) for y in (0.0, -0.0)]
        assert [math.copysign(1.0, v) for v in values] == [1.0, -1.0]
        assert all(map(same, values, eval_grid(s, [-1.0], [0.0, -0.0])[0]))


class TestCompareClosedForm:
    def test_example1_order36(self):
        report = solve_example(1, 36)
        err = compare_closed_form(report.spectrum, ReferenceSolution("sinh(x)*cos(y)"), 21)
        assert err < 1e-10

    def test_example3_order60(self):
        report = solve_example(3, 60)
        err = compare_closed_form(report.spectrum, ReferenceSolution("cos(2x)*cosh(2y)"), 21)
        assert err < 1e-10

    def test_self_consistency_outer_product(self):
        order = 36
        f = taylor_coeffs(FuncSpec(kind="sinh"), order)
        g = taylor_coeffs(FuncSpec(kind="cos"), order)
        s = outer_product(f, g, order)
        err = compare_closed_form(s, ReferenceSolution("sinh(x)*cos(y)"), 21)
        assert err < 1e-10

    def test_sum_against_its_outer_products(self):
        order = 60

        def product(f, g):
            return outer_product(taylor_coeffs(f, order), taylor_coeffs(g, order), order)

        s = dt_add(
            product(FuncSpec(kind="sin"), FuncSpec(kind="sinh")),
            product(FuncSpec(kind="cos", arg_scale=2, amplitude=Fraction(-1, 2)),
                    FuncSpec(kind="cosh", arg_scale=2)),
        )
        ref = ReferenceSolution("sin(x)*sinh(y)-1/2*cos(2x)*cosh(2y)")
        assert compare_closed_form(s, ref, 21) < 1e-8
        # the second term counts: without it the error is of order cosh(2 pi) / 2
        assert compare_closed_form(s, ReferenceSolution("sin(x)*sinh(y)"), 21) > 100

    @pytest.mark.parametrize("model_id", sorted(MODEL_FORMULAS))
    def test_monotone_in_order(self, model_id):
        ref = model_catalog()[model_id].reference
        errors = [
            compare_closed_form(solve_example(model_id, order).spectrum, ref, 21)
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
        # the k x k grid is i * pi / (k - 1) in each coordinate, ends included
        order = 8
        s = outer_product(taylor_coeffs(FuncSpec(kind="sinh"), order),
                          taylor_coeffs(FuncSpec(kind="cos"), order), order)
        points = [i * math.pi / 4 for i in range(5)]
        expected = max(abs(eval2d(s, x, y) - math.sinh(x) * math.cos(y))
                       for x in points for y in points)
        assert compare_closed_form(s, ReferenceSolution("sinh(x)*cos(y)"), 5) == expected > 0

    def test_grid_validation(self):
        s, ref = make_spectrum(4), ReferenceSolution("sinh(x)*cos(y)")
        for k in (1, 0, -3):
            with pytest.raises(DtmError, match="grid must be an integer, got .*at least 2"):
                compare_closed_form(s, ref, k)

    def test_reference_values(self):
        def term(a, f, kx, g, ky):
            return Fraction(a), FuncSpec(kind=f, arg_scale=kx), FuncSpec(kind=g, arg_scale=ky)

        terms = {
            "cos(x)*sinh(y)": (term(1, "cos", 1, "sinh", 1),),
            "cos(3/2x)*sinh(2y)": (term(1, "cos", Fraction(3, 2), "sinh", 2),),
            "sin(x)*sinh(y)-1/2*cos(2x)*cosh(2y)":
                (term(1, "sin", 1, "sinh", 1), term(Fraction(-1, 2), "cos", 2, "cosh", 2)),
            "-cos(x)*sinh(y)": (term(-1, "cos", 1, "sinh", 1),),
            "-3*sin(x)*sinh(y)+2/3*cosh(3/2x)*sin(3/2y)+cos(x)*cosh(y)": (
                term(-3, "sin", 1, "sinh", 1),
                term(Fraction(2, 3), "cosh", Fraction(3, 2), "sin", Fraction(3, 2)),
                term(1, "cos", 1, "cosh", 1),
            ),
            "-3/4*cos(x)*sinh(y)+cos(x)*sinh(y)":
                (term(Fraction(-3, 4), "cos", 1, "sinh", 1), term(1, "cos", 1, "sinh", 1)),
        }
        for descriptor, expected in terms.items():
            assert ReferenceSolution(descriptor).terms == expected
        for bad in ("tan(x)", "tan(x)*cos(y)", "cos(0x)*sinh(y)", "cos(x)*sinh(x)",
                    "cos(-2x)*cosh(2y)", "cos(2/0x)*cosh(y)", 5,
                    "sin(x)*sinh(y)+", "0*sin(x)*sinh(y)", "sin(x)*sinh(y)+-cos(x)*sinh(y)",
                    "1/0*sin(x)*sinh(y)", "sin(x)*sinh(y) + cos(x)*sinh(y)", " sin(x)*sinh(y)",
                    "sin(x)*sinh(y)cos(x)*sinh(y)", "+sin(x)*sinh(y)", ""):
            with pytest.raises(DtmError):
                ReferenceSolution(bad)


def golden_digest():
    """sha256 over each catalog spectrum at its default order and the repr of
    its series, x-derivative and y-derivative values on the 21x21 grid and on
    the four 41-point edges.  Only +, * and correctly rounded integer
    division produce these floats, so the digest is the same on every
    platform; it fixes the evaluator's summation order."""
    points = tuple(i * math.pi / 20 for i in range(21))
    ts = tuple(i * math.pi / 40 for i in range(41))
    meshes = [
        (points, points),
        ((0.0,), ts), ((math.pi,), ts), (ts, (0.0,)), (ts, (math.pi,)),
    ]
    h = hashlib.sha256()
    for model_id in sorted(model_catalog()):
        s = solve_example(model_id).spectrum
        h.update(json.dumps(spectrum_to_json(s), sort_keys=True).encode())
        for series in (s, dt_derivative(s, 1, 0), dt_derivative(s, 0, 1)):
            for xs, ys in meshes:
                h.update(repr(eval_grid(series, xs, ys)).encode())
    return h.hexdigest()


GOLDEN = "4ce66b0b4b9f4828d924cf7a088a5f6645d2247083152962adc6ab6a9ae6e506"


def test_golden_digest():
    assert golden_digest() == GOLDEN
