"""Spectrum construction, access, truncation and serialization."""

import json
import math
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from dtm2d import (
    DtmError,
    Spectrum2D,
    make_spectrum,
    spectrum_from_json,
    spectrum_to_json,
    truncate,
)
from dtm2d.spectrum import as_coeff, coeff_str, to_float

from conftest import formula_example1, formula_example3, enumerate_spectrum, spectra, small_fractions


class TestCoefficients:
    def test_as_coeff_forms(self):
        assert as_coeff(3) == Fraction(3)
        assert as_coeff("-1/6") == Fraction(-1, 6)
        assert as_coeff(Fraction(2, 4)) == Fraction(1, 2)

    def test_as_coeff_rejects_garbage(self):
        for bad in ("x", "1/0", 1.5, None, True):
            with pytest.raises(DtmError):
                as_coeff(bad)

    def test_coeff_str_explicit_denominator(self):
        assert coeff_str(Fraction(3)) == "3/1"
        assert coeff_str(Fraction(-1, 6)) == "-1/6"

    def test_float_projection_exact(self):
        # float(Fraction) is correctly rounded, well within 1 ulp
        assert float(Fraction(1, 2)) == 0.5
        assert abs(float(Fraction(1, 3)) - 1 / 3) == 0.0


class TestMakeSpectrum:
    def test_single_entry(self):
        s = make_spectrum(2, [(1, 0, 1)])
        assert s.get(1, 0) == 1
        assert s.get(0, 0) == 0
        assert len(s.entries) == 1

    def test_sinh_row_to_degree_three(self):
        # n=0 row of the first model: U(m,0) = 1/m! for odd m
        s = make_spectrum(3, [(1, 0, 1), (3, 0, Fraction(1, 6))])
        for m in range(4):
            assert s.get(m, 0) == formula_example1(m, 0)

    def test_zero_dropped(self):
        s = make_spectrum(2, [(0, 0, 0)])
        assert s.is_zero()
        assert s.entries == {}

    def test_degree_overflow(self):
        with pytest.raises(DtmError, match="exceeds order"):
            make_spectrum(2, [(2, 1, 1)])

    def test_duplicate_key(self):
        with pytest.raises(DtmError, match="duplicate"):
            make_spectrum(3, [(1, 0, 1), (1, 0, 2)])

    def test_negative_index(self):
        with pytest.raises(DtmError):
            make_spectrum(3, [(-1, 0, 1)])

    def test_positional_origin_field(self):
        # perfbench/ builds Spectrum2D(order, origin, entries) positionally and
        # passes s.origin back in; the origin is always (0, 0)
        s = Spectrum2D(3, (Fraction(0), Fraction(0)), {(1, 2): Fraction(-1, 2)})
        assert s == make_spectrum(3, [(1, 2, Fraction(-1, 2))])
        assert Spectrum2D(s.order, s.origin, dict(s.entries)) == s
        with pytest.raises(DtmError, match="origin"):
            Spectrum2D(2, (1, 0))


class TestGetCoeff:
    def test_known_value_example1(self):
        s = enumerate_spectrum(formula_example1, 5)
        assert s.get(1, 2) == Fraction(-1, 2)

    def test_out_of_triangle_reads_zero(self):
        s = make_spectrum(2, [(1, 0, 1)])
        assert s.get(3, 0) == 0
        assert s.get(0, 7) == 0

    def test_known_value_example3(self):
        s = enumerate_spectrum(formula_example3, 4)
        assert s.get(2, 2) == -4


class TestTruncate:
    def test_identity(self):
        s = enumerate_spectrum(formula_example1, 5)
        assert truncate(s, s.order) == s

    def test_example1_to_order_three(self):
        s = enumerate_spectrum(formula_example1, 5)
        t = truncate(s, 3)
        assert dict(t.entries) == {
            (1, 0): Fraction(1),
            (3, 0): Fraction(1, 6),
            (1, 2): Fraction(-1, 2),
        }

    def test_to_zero(self):
        s = make_spectrum(4, [(0, 0, 2), (1, 1, 3)])
        t = truncate(s, 0)
        assert t.order == 0
        assert dict(t.entries) == {(0, 0): Fraction(2)}

    def test_beyond_order_rejected(self):
        s = make_spectrum(2, [(1, 0, 1)])
        with pytest.raises(DtmError):
            truncate(s, 3)
        with pytest.raises(DtmError):
            truncate(s, -1)


class TestProperties:
    @given(spectra())
    def test_canonical_form_is_fixed_point(self, s):
        rebuilt = make_spectrum(s.order, [(m, n, c) for (m, n), c in s.entries.items()])
        assert rebuilt == s
        assert all(c != 0 for c in s.entries.values())
        assert all(m + n <= s.order for (m, n) in s.entries)

    @given(st.data())
    def test_get_matches_construction(self, data):
        order = data.draw(st.integers(0, 6))
        keys = [(m, n) for m in range(order + 1) for n in range(order + 1 - m)]
        subset = data.draw(st.lists(st.sampled_from(keys), unique=True))
        values = {k: data.draw(small_fractions) for k in subset}
        s = make_spectrum(order, [(m, n, v) for (m, n), v in values.items()])
        for m, n in keys:
            assert s.get(m, n) == values.get((m, n), Fraction(0))

    @given(st.data())
    def test_truncate_composes_as_min(self, data):
        s = data.draw(spectra(min_order=0, max_order=8))
        a = data.draw(st.integers(0, s.order))
        b = data.draw(st.integers(0, s.order))
        lhs = truncate(truncate(s, a), min(a, b))
        rhs = truncate(s, min(a, b))
        assert lhs == rhs


# Fractions across the whole float range and past it: any float nudged by a
# rational, subnormals and values below them, values either side of the
# overflow threshold 2**1024 - 2**970, and quotients of integers of up to
# about 1100 bits.
_FLOAT_EDGE = 2**1024
wide_fractions = st.one_of(
    st.builds(lambda x, d: Fraction(x) + d, st.floats(allow_nan=False, allow_infinity=False),
              st.fractions(max_denominator=2**1100) | st.just(Fraction(0))),
    st.builds(lambda k, e: Fraction(k, 2**e), st.integers(-2**60, 2**60), st.integers(1000, 1140)),
    st.builds(lambda k, s: s * (_FLOAT_EDGE - Fraction(k, 3) * 2**965),
              st.integers(-2**7, 2**7), st.sampled_from((1, -1))),
    st.builds(Fraction, st.integers(-2**1100, 2**1100), st.integers(1, 2**1100)),
)


class TestToFloat:
    @given(wide_fractions)
    @example(Fraction(1, 2**1074))  # least subnormal
    @example(Fraction(-1, 2**1076))  # rounds to -0.0
    @example(Fraction(_FLOAT_EDGE - 2**971) + Fraction(1, 3))  # the largest float
    @example(Fraction(_FLOAT_EDGE - 2**970))  # halfway past the largest float: inf
    @example(Fraction(-(_FLOAT_EDGE - 2**970) + 1))  # just short of halfway: finite
    def test_bit_equal_to_float_or_signed_inf(self, c):
        got = to_float(*c.as_integer_ratio())
        try:
            expected = float(c)
        except OverflowError:
            assert got == (math.inf if c > 0 else -math.inf)
        else:
            assert got.hex() == expected.hex()


class TestSerialization:
    def test_json_shape_and_sorting(self):
        s = make_spectrum(3, [(0, 1, Fraction(1, 2)), (1, 0, -2), (3, 0, Fraction(1, 6))])
        data = spectrum_to_json(s)
        assert data["order"] == 3
        assert data["origin"] == [0.0, 0.0]
        assert data["entries"] == [[0, 1, "1/2"], [1, 0, "-2/1"], [3, 0, "1/6"]]

    def test_round_trip(self):
        s = enumerate_spectrum(formula_example3, 6)
        assert spectrum_from_json(spectrum_to_json(s)) == s

    @given(spectra())
    def test_round_trip_property(self, s):
        data = json.loads(json.dumps(spectrum_to_json(s)))
        assert data["origin"] == [0.0, 0.0]
        assert spectrum_from_json(data) == s

    def test_malformed_rejected(self):
        for text in (
            '{"order": 2}',
            # once read as order 2, index 1, order 1 and the entry 1/10
            '{"order": 2.7, "entries": []}',
            '{"order": 2, "entries": [[1.9, 0, "1/2"]]}',
            '{"order": true, "entries": []}',
            '{"order": "3", "entries": [[1, 0, "1/2"]]}',
            '{"order": 2, "entries": [[1, 0, 0.1]]}',
            # every spectrum is expanded at (0, 0): any other origin is refused
            '{"order": 2, "origin": [1, 0], "entries": []}',
            '{"order": 2, "origin": ["1/3", 0], "entries": []}',
            '{"order": 2, "origin": [Infinity, 0], "entries": []}',
            '{"order": 2, "origin": [0, NaN], "entries": []}',
            '{"order": 2, "origin": [0], "entries": []}',
        ):
            with pytest.raises(DtmError):
                spectrum_from_json(json.loads(text))
        for origin in ('', ', "origin": [0, 0]', ', "origin": [0.0, 0.0]'):
            text = '{"order": 2%s, "entries": [[1, 0, "1/2"]]}' % origin
            assert spectrum_from_json(json.loads(text)) == make_spectrum(2, [(1, 0, "1/2")])
        # the order must be a non-negative integer, never a bool or a float
        for order in (True, 2.5, -1):
            with pytest.raises(DtmError, match="order"):
                make_spectrum(order, [(1, 0, 1)])
            with pytest.raises(DtmError, match="order"):
                Spectrum2D(order, entries={(1, 0): Fraction(1)})
        # make_spectrum is the one index validator: never a bool or a float
        for entry in ((0.5, 0, 1), (True, 1, 2)):
            with pytest.raises(DtmError, match="not a pair of integers"):
                make_spectrum(2, [entry])
