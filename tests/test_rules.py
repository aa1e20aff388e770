"""Transform-rule algebra against independent polynomial oracles."""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dtm2d import (
    DtmError,
    Spectrum2D,
    dt_add,
    dt_derivative,
    dt_exp,
    dt_exp_factored,
    dt_monomial,
    dt_monomial_exp,
    dt_product,
    dt_scale,
    dt_sub,
    make_spectrum,
    outer_product,
    taylor_coeffs,
)
from dtm2d.rules import ExpPrefactor
from dtm2d.taylor import FuncSpec

from conftest import (
    enumerate_spectrum,
    formula_example1,
    formula_example2,
    nonzero_fractions,
    poly_diff,
    poly_exp,
    poly_from_spectrum,
    poly_mul,
    poly_to_spectrum,
    polynomials,
    small_fractions,
    spectra,
    spectrum_pairs,
    triangle_keys,
)

fact = math.factorial

PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)


def per_term_exp(v, a):
    """Reference e**(a*v) for v(0,0) = 0: the recurrence one term at a time,
    with the m-recurrence for m >= 1 and the n-recurrence on the m = 0 column."""
    order = v.order
    u = {(0, 0): Fraction(1)}
    for d in range(1, order + 1):
        for m in range(d, -1, -1):
            n = d - m
            acc = Fraction(0)
            if m >= 1:
                for (mk, l), vc in v.entries.items():
                    k = m - mk
                    if k < 0 or mk < 1 or l > n:
                        continue
                    uc = u.get((k, n - l))
                    if uc:
                        acc += Fraction(mk, m) * vc * uc
            else:
                for (k, nl), vc in v.entries.items():
                    if k > m or nl < 1 or nl > n:
                        continue
                    uc = u.get((m - k, n - nl))
                    if uc:
                        acc += Fraction(nl, n) * vc * uc
            value = a * acc
            if value != 0:
                u[(m, n)] = value
    return Spectrum2D(order, entries=u)


@st.composite
def product_operands(draw):
    """Two operands at a shared order in 0..20, each empty, constant, sparse
    or dense."""
    order = draw(st.integers(0, 20))
    out = []
    for _ in range(2):
        shape = draw(st.sampled_from(("empty", "constant", "sparse", "dense")))
        if shape == "sparse":
            keys = draw(
                st.lists(st.sampled_from(triangle_keys(order)), unique=True, max_size=12)
            )
        else:
            keys = {"empty": [], "constant": [(0, 0)], "dense": triangle_keys(order)}[shape]
        pool = draw(st.lists(nonzero_fractions, min_size=1, max_size=8))
        entries = [(m, n, pool[i % len(pool)]) for i, (m, n) in enumerate(keys)]
        out.append(make_spectrum(order, entries))
    return out[0], out[1]


def _prime_spectrum(order, primes):
    keys = triangle_keys(order)
    return make_spectrum(order, [(m, n, Fraction(1, p)) for (m, n), p in zip(keys, primes)])


class TestAdd:
    def test_additive_identity(self):
        u = enumerate_spectrum(formula_example1, 4)
        zero = make_spectrum(4)
        assert dt_add(u, zero) == u

    def test_example1_plus_example2_order3(self):
        u = enumerate_spectrum(formula_example1, 3)
        v = enumerate_spectrum(formula_example2, 3)
        total = dt_add(u, v)
        assert dict(total.entries) == {
            (1, 0): Fraction(1),
            (0, 1): Fraction(1),
            (3, 0): Fraction(1, 6),
            (0, 3): Fraction(-1, 6),
            (1, 2): Fraction(-1, 2),
            (2, 1): Fraction(1, 2),
        }

    def test_additive_inverse(self):
        u = enumerate_spectrum(formula_example2, 5)
        assert dt_add(u, dt_scale(-1, u)).is_zero()

    def test_order_mismatch_rejected(self):
        with pytest.raises(DtmError, match="order"):
            dt_add(make_spectrum(2), make_spectrum(3))


class TestScale:
    def test_identity_and_annihilation(self):
        u = enumerate_spectrum(formula_example1, 5)
        assert dt_scale(1, u) == u
        assert dt_scale(0, u).is_zero()

    def test_double_sinh_row(self):
        row = make_spectrum(3, [(1, 0, 1), (3, 0, Fraction(1, 6))])
        doubled = dt_scale(2, row)
        assert dict(doubled.entries) == {(1, 0): Fraction(2), (3, 0): Fraction(1, 3)}


class TestProduct:
    def test_multiplicative_identity(self):
        u = enumerate_spectrum(formula_example2, 5)
        one = make_spectrum(5, [(0, 0, 1)])
        assert dt_product(u, one) == u

    def test_monomial_product(self):
        x = make_spectrum(2, [(1, 0, 1)])
        y = make_spectrum(2, [(0, 1, 1)])
        assert dict(dt_product(x, y).entries) == {(1, 1): Fraction(1)}

    def test_sinh_times_cos_is_example1(self):
        order = 6
        sinh_row = outer_product(
            taylor_coeffs(FuncSpec(kind="sinh"), order), [1] + [0] * order, order
        )
        cos_col = outer_product(
            [1] + [0] * order, taylor_coeffs(FuncSpec(kind="cos"), order), order
        )
        assert dt_product(sinh_row, cos_col) == enumerate_spectrum(formula_example1, order)

    @settings(max_examples=100, deadline=None)
    @given(spectrum_pairs(max_order=6))
    def test_commutative(self, pair):
        v, w = pair
        assert dt_product(v, w) == dt_product(w, v)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_associative_up_to_truncation(self, data):
        order = data.draw(st.integers(0, 5))
        specs = []
        for _ in range(3):
            keys = data.draw(
                st.lists(st.sampled_from(triangle_keys(order)), unique=True, max_size=6)
            )
            specs.append(
                make_spectrum(order, [(m, n, data.draw(small_fractions)) for m, n in keys])
            )
        u, v, w = specs
        assert dt_product(dt_product(u, v), w) == dt_product(u, dt_product(v, w))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_distributes_over_add(self, data):
        pair = data.draw(spectrum_pairs(max_order=6))
        v, w = pair
        keys = data.draw(
            st.lists(st.sampled_from(triangle_keys(v.order)), unique=True, max_size=6)
        )
        u = make_spectrum(v.order, [(m, n, data.draw(small_fractions)) for m, n in keys])
        lhs = dt_product(u, dt_add(v, w))
        rhs = dt_add(dt_product(u, v), dt_product(u, w))
        assert lhs == rhs

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(spectrum_pairs(max_order=6), product_operands()))
    @example((  # (1+x)(1-x): the x entries cancel and must be dropped
        make_spectrum(3, [(0, 0, 1), (1, 0, 1)]), make_spectrum(3, [(0, 0, 1), (1, 0, -1)])
    ))
    @example((_prime_spectrum(5, PRIMES[::2]), _prime_spectrum(5, PRIMES[1::2])))
    def test_index_pattern_equals_conventional(self, pair):
        # conventional double Cauchy product: sum V(k,l) W(m-k,n-l), built
        # in (m, n) order; the rule must match it in value and key order
        v, w = pair
        order = v.order
        table = {}
        for m in range(order + 1):
            for n in range(order + 1 - m):
                acc = Fraction(0)
                for k in range(m + 1):
                    for l in range(n + 1):
                        acc += v.get(k, l) * w.get(m - k, n - l)
                if acc != 0:
                    table[(m, n)] = acc
        got = dt_product(v, w)
        assert got == Spectrum2D(order, entries=table)
        assert list(got.entries) == list(table)


class TestDerivative:
    def test_zeroth_derivative(self):
        u = enumerate_spectrum(formula_example1, 5)
        assert dt_derivative(u, 0, 0) == u

    def test_rule_d_on_example1(self):
        u = enumerate_spectrum(formula_example1, 5)
        d2 = dt_derivative(u, 2, 0)
        assert d2.get(1, 0) == 6 * Fraction(1, 6)

    def test_mixed_derivative_of_x2y(self):
        u = make_spectrum(3, [(2, 1, 1)])
        d = dt_derivative(u, 1, 1)
        assert dict(d.entries) == {(1, 0): Fraction(2)}

    def test_order_exhausted_rejected(self):
        with pytest.raises(DtmError):
            dt_derivative(make_spectrum(2), 2, 1)
        with pytest.raises(DtmError):
            dt_derivative(make_spectrum(2), -1, 0)


class TestExp:
    def test_exp_of_zero(self):
        u = dt_exp(make_spectrum(4), 7)
        assert dict(u.entries) == {(0, 0): Fraction(1)}

    def test_exp_of_x(self):
        u = dt_exp(make_spectrum(4, [(1, 0, 1)]), 1)
        assert dict(u.entries) == {(m, 0): Fraction(1, fact(m)) for m in range(5)}

    def test_exp_of_two_x_plus_two_y(self):
        # independent 1d series product: e^(2x) e^(2y) -> 2^(m+n)/(m! n!)
        v = make_spectrum(3, [(1, 0, 1), (0, 1, 1)])
        u = dt_exp(v, 2)
        e2 = [Fraction(2**k, fact(k)) for k in range(4)]
        assert u == outer_product(e2, e2, 3)

    def test_nonzero_base_rejected_on_exact_path(self):
        with pytest.raises(DtmError, match="dt_exp_factored"):
            dt_exp(make_spectrum(2, [(0, 0, 1)]), 1)

    def test_factored_splits_prefactor(self):
        v = make_spectrum(3, [(0, 0, Fraction(3, 2)), (1, 0, 1)])
        u, pre = dt_exp_factored(v, 2)
        assert pre.exponent == 3
        assert abs(pre.to_float() - math.exp(3)) < 1e-12
        # past the float range the prefactor reads 0.0 or inf
        assert ExpPrefactor(Fraction(-10**400)).to_float() == 0.0
        assert ExpPrefactor(Fraction(710)).to_float() == math.inf
        shifted = make_spectrum(3, [(1, 0, 1)])
        assert u == dt_exp(shifted, 2)

    @settings(max_examples=100, deadline=None)
    @given(polynomials(max_degree=5, zero_at_origin=True), small_fractions)
    def test_exp_matches_composition_oracle(self, poly, a):
        order = 5
        v = poly_to_spectrum(poly, order)
        got = dt_exp(v, a)
        expected = poly_to_spectrum(poly_exp(poly, a, order), order)
        assert got == expected

    @settings(max_examples=100, deadline=None)
    @given(polynomials(max_degree=5, zero_at_origin=True), small_fractions)
    def test_branch_agreement_on_overlap(self, poly, a):
        # both rule branches, written out from the recurrence, must agree
        # wherever m >= 1 and n >= 1
        order = 5
        v = poly_to_spectrum(poly, order)
        u = dt_exp(v, a)
        for m in range(1, order + 1):
            for n in range(1, order + 1 - m):
                m_branch = a * sum(
                    Fraction(m - k, m) * v.get(m - k, l) * u.get(k, n - l)
                    for k in range(m)
                    for l in range(n + 1)
                )
                n_branch = a * sum(
                    Fraction(n - l, n) * v.get(k, n - l) * u.get(m - k, l)
                    for k in range(m + 1)
                    for l in range(n)
                )
                assert m_branch == n_branch == u.get(m, n)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_bit_identical_to_per_term_recurrence(self, data):
        # non-separable v: mixed entries V(k, l) with k, l >= 1 included
        order = data.draw(st.integers(1, 12))
        keys = triangle_keys(order)[1:]  # every key but (0, 0)
        chosen = data.draw(st.lists(st.sampled_from(keys), unique=True, max_size=8))
        v = make_spectrum(order, [(m, n, data.draw(nonzero_fractions)) for m, n in chosen])
        a = data.draw(nonzero_fractions)
        got, ref = dt_exp(v, a), per_term_exp(v, a)
        assert got == ref
        assert list(got.entries) == list(ref.entries)


class TestMonomials:
    def test_constant_one(self):
        assert dict(dt_monomial(0, 0, 3).entries) == {(0, 0): Fraction(1)}

    def test_single_delta(self):
        assert dict(dt_monomial(2, 3, 5).entries) == {(2, 3): Fraction(1)}

    def test_monomial_algebra_closure(self):
        lhs = dt_product(dt_monomial(1, 0, 4), dt_monomial(0, 2, 4))
        assert lhs == dt_monomial(1, 2, 4)

    def test_degree_overflow(self):
        with pytest.raises(DtmError):
            dt_monomial(3, 3, 5)


class TestMonomialExp:
    def test_trivial(self):
        assert dict(dt_monomial_exp(0, 0, 4).entries) == {(0, 0): Fraction(1)}

    def test_x2_exp_y(self):
        u = dt_monomial_exp(2, 1, 5)
        assert dict(u.entries) == {
            (2, 0): Fraction(1),
            (2, 1): Fraction(1),
            (2, 2): Fraction(1, 2),
            (2, 3): Fraction(1, 6),
        }

    def test_k_beyond_order(self):
        with pytest.raises(DtmError):
            dt_monomial_exp(6, 1, 5)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 6), small_fractions)
    def test_composes_from_rules_f_and_e(self, k, a):
        order = 8
        y = make_spectrum(order, [(0, 1, 1)])
        composed = dt_product(dt_monomial(k, 0, order), dt_exp(y, a))
        assert dt_monomial_exp(k, a, order) == composed


class TestVectorSpaceAxioms:
    @settings(max_examples=60, deadline=None)
    @given(spectrum_pairs(), small_fractions, small_fractions)
    def test_linearity_axioms(self, pair, a, b):
        u, v = pair
        zero = Spectrum2D(u.order)
        assert dt_add(u, v) == dt_add(v, u)
        assert dt_add(u, zero) == u
        assert dt_add(u, dt_scale(-1, u)) == zero
        assert dt_scale(a, dt_add(u, v)) == dt_add(dt_scale(a, u), dt_scale(a, v))
        assert dt_scale(a + b, u) == dt_add(dt_scale(a, u), dt_scale(b, u))
        assert dt_scale(a * b, u) == dt_scale(a, dt_scale(b, u))
        assert dt_scale(1, u) == u
        assert dt_sub(u, v) == dt_add(u, dt_scale(-1, v))

    @settings(max_examples=100, deadline=None)
    @given(polynomials(), polynomials())
    def test_product_matches_polynomial_oracle(self, p, q):
        order = 6
        sp, sq = poly_to_spectrum(p, order), poly_to_spectrum(q, order)
        oracle = poly_to_spectrum(poly_mul(p, q), order)
        assert dt_product(sp, sq) == oracle

    @settings(max_examples=100, deadline=None)
    @given(polynomials(), st.integers(0, 2), st.integers(0, 2))
    def test_derivative_matches_symbolic_oracle(self, p, r, s):
        order = 6
        sp = poly_to_spectrum(p, order)
        got = dt_derivative(sp, r, s)
        expected = poly_to_spectrum(poly_diff(p, r, s), order - r - s)
        assert got == expected
