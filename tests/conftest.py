"""Shared oracles, model-spectrum enumerators, hypothesis strategies and the
fresh-interpreter runner.

The polynomial oracle is an independent dict-based implementation of
bivariate polynomial arithmetic (full product, symbolic differentiation,
truncated exponential composition) used to cross-check the transform rules.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from hypothesis import strategies as st

import dtm2d
from dtm2d import Spectrum2D, make_spectrum

fact = math.factorial
README = Path(__file__).resolve().parents[1] / "README.md"


def run_limited(*args, seconds=60):
    """(exit status, stdout, stderr) of python run with args in a fresh
    interpreter that imports this dtm2d; a run longer than seconds fails the
    test."""
    env = dict(os.environ, PYTHONPATH=str(Path(dtm2d.__file__).resolve().parents[1]))
    run = subprocess.run([sys.executable, *args], env=env,
                         capture_output=True, text=True, timeout=seconds)
    return run.returncode, run.stdout, run.stderr


# --------------------------------------------------------------------------
# The four solved spectra as executable enumerations
# --------------------------------------------------------------------------

def formula_example1(m: int, n: int) -> Fraction:
    """sinh x cos y: odd m, even n."""
    if m % 2 == 1 and n % 2 == 0:
        return Fraction((-1) ** (n // 2), fact(m) * fact(n))
    return Fraction(0)


def formula_example2(m: int, n: int) -> Fraction:
    """cosh x sin y: even m, odd n."""
    if m % 2 == 0 and n % 2 == 1:
        return Fraction((-1) ** ((n - 1) // 2), fact(m) * fact(n))
    return Fraction(0)


def formula_example3(m: int, n: int) -> Fraction:
    """cos 2x cosh 2y: even m, even n."""
    if m % 2 == 0 and n % 2 == 0:
        return Fraction((-1) ** (m // 2) * 2 ** (m + n), fact(m) * fact(n))
    return Fraction(0)


def formula_example4(m: int, n: int) -> Fraction:
    """cos x sinh y: even m, odd n."""
    if m % 2 == 0 and n % 2 == 1:
        return Fraction((-1) ** (m // 2), fact(m) * fact(n))
    return Fraction(0)


MODEL_FORMULAS = {
    "example1": formula_example1,
    "example2": formula_example2,
    "example3": formula_example3,
    "example4": formula_example4,
}

# Names symbolic amplitudes had before they were trace objects; none is read.
LEGACY_TOKEN_NAMES = ("none", "sinh_pi", "cosh_pi", "sinh_2pi", "cosh_2pi")


def enumerate_spectrum(formula, order: int) -> Spectrum2D:
    """Materialize a coefficient formula over the triangle m + n <= order."""
    entries = []
    for m in range(order + 1):
        for n in range(order + 1 - m):
            value = formula(m, n)
            if value != 0:
                entries.append((m, n, value))
    return make_spectrum(order, entries)


def reference_descriptor(terms) -> str:
    """The closed-form descriptor of sum a*F(kx x)*G(ky y) over (a, F, kx, G, ky),
    e.g. "-3/2*sin(2x)*sinh(2y)+1*cos(1x)*cosh(1y)"."""
    return "".join(
        f"{'-' if a < 0 else '+' if i else ''}{abs(a)}*{f}({kx}x)*{g}({ky}y)"
        for i, (a, f, kx, g, ky) in enumerate(terms)
    )


# --------------------------------------------------------------------------
# Independent polynomial oracle
# --------------------------------------------------------------------------

Poly = dict  # (m, n) -> Fraction, zero coefficients absent


def poly_from_spectrum(s: Spectrum2D) -> Poly:
    return dict(s.entries)


def poly_to_spectrum(p: Poly, order: int) -> Spectrum2D:
    return make_spectrum(
        order, [(m, n, c) for (m, n), c in p.items() if m + n <= order]
    )


def poly_mul(p: Poly, q: Poly) -> Poly:
    out: Poly = {}
    for (a, b), c1 in p.items():
        for (u, v), c2 in q.items():
            key = (a + u, b + v)
            total = out.get(key, Fraction(0)) + c1 * c2
            if total == 0:
                out.pop(key, None)
            else:
                out[key] = total
    return out


def poly_scale(a: Fraction, p: Poly) -> Poly:
    return {} if a == 0 else {k: a * c for k, c in p.items()}


def poly_add(p: Poly, q: Poly) -> Poly:
    out = dict(p)
    for k, c in q.items():
        total = out.get(k, Fraction(0)) + c
        if total == 0:
            out.pop(k, None)
        else:
            out[k] = total
    return out


def poly_truncate(p: Poly, order: int) -> Poly:
    return {k: c for k, c in p.items() if k[0] + k[1] <= order}


def poly_diff(p: Poly, r: int, s: int) -> Poly:
    """Symbolic partial derivative d^(r+s)/dx^r dy^s."""
    out: Poly = {}
    for (m, n), c in p.items():
        if m < r or n < s:
            continue
        factor = Fraction(
            fact(m) * fact(n), fact(m - r) * fact(n - s)
        )
        out[(m - r, n - s)] = c * factor
    return out


def poly_exp(p: Poly, a: Fraction, order: int) -> Poly:
    """Truncation of exp(a*p) = sum_j (a*p)**j / j!; needs p(0,0) = 0."""
    assert (0, 0) not in p, "exp oracle needs a vanishing constant term"
    ap = poly_truncate(poly_scale(a, p), order)
    out: Poly = {(0, 0): Fraction(1)}
    power: Poly = {(0, 0): Fraction(1)}
    for j in range(1, order + 1):
        power = poly_truncate(poly_mul(power, ap), order)
        if not power:
            break
        out = poly_add(out, poly_scale(Fraction(1, fact(j)), power))
    return out


# --------------------------------------------------------------------------
# Strategies
# --------------------------------------------------------------------------

small_fractions = st.fractions(
    min_value=Fraction(-4), max_value=Fraction(4), max_denominator=6
)
nonzero_fractions = small_fractions.filter(lambda f: f != 0)


def triangle_keys(order: int) -> list[tuple[int, int]]:
    return [(m, n) for m in range(order + 1) for n in range(order + 1 - m)]


@st.composite
def spectra(draw, min_order: int = 0, max_order: int = 8, max_terms: int = 10):
    order = draw(st.integers(min_order, max_order))
    keys = draw(
        st.lists(
            st.sampled_from(triangle_keys(order)),
            unique=True,
            max_size=max_terms,
        )
    )
    entries = [(m, n, draw(small_fractions)) for (m, n) in keys]
    return make_spectrum(order, entries)


@st.composite
def spectrum_pairs(draw, min_order: int = 0, max_order: int = 8, max_terms: int = 8):
    order = draw(st.integers(min_order, max_order))
    out = []
    for _ in range(2):
        keys = draw(
            st.lists(
                st.sampled_from(triangle_keys(order)),
                unique=True,
                max_size=max_terms,
            )
        )
        out.append(make_spectrum(order, [(m, n, draw(small_fractions)) for m, n in keys]))
    return out[0], out[1]


@st.composite
def polynomials(draw, max_degree: int = 6, max_terms: int = 8, zero_at_origin: bool = False):
    keys = triangle_keys(max_degree)
    if zero_at_origin:
        keys = [k for k in keys if k != (0, 0)]
    chosen = draw(st.lists(st.sampled_from(keys), unique=True, max_size=max_terms))
    poly = {}
    for key in chosen:
        value = draw(small_fractions)
        if value != 0:
            poly[key] = value
    return poly
