"""Seeded workloads for the dtm2d benchmark, with their correctness oracles.

Each workload turns a seed into rounds of operations.  A round holds one
operation per stratum (model or input shape crossed with an order band), in
a seeded order with seeded parameters inside each stratum, so every run
measures the same mix of work and only the concrete inputs change with the
seed.  Inside a stratum the orders come from a seeded deck that deals every
order of the band once before any repeats, so runs of the same length also
hold nearly the same mix of orders.  The program sees nothing but the
generated inputs.

An operation is ``run(inputs) -> output``; ``check(inputs, output)`` runs
outside the timed region and returns ``(ok, max_abs_err)``.  Every call into
dtm2d is looked up through its module at call time, so the tracer's
wrappers (installed in those modules' namespaces) see it.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from fractions import Fraction

import dtm2d
import dtm2d.cli
import dtm2d.rules
import dtm2d.solver
from dtm2d import FuncSpec, outer_product, taylor_coeffs
from dtm2d.spectrum import Spectrum2D

# Closed forms of the four catalog models as separable products F(x) G(y),
# (kind, arg_scale) per factor; the catalog's model_catalog() is the source
# of truth for the boundary data, these are the oracle's own copy.
CLOSED_FORMS = {
    "example1": (("sinh", 1), ("cos", 1)),
    "example2": (("cosh", 1), ("sin", 1)),
    "example3": (("cos", 2), ("cosh", 2)),
    "example4": (("cos", 1), ("sinh", 1)),
}


def _bands(lo: int, hi: int, count: int) -> list[tuple[int, int]]:
    """Split [lo, hi] into `count` contiguous integer bands."""
    edges = [lo + round(i * (hi - lo + 1) / count) for i in range(count + 1)]
    return [(edges[i], edges[i + 1] - 1) for i in range(count)]


def _order_deck(rng: random.Random):
    """draw(stratum, (lo, hi)) -> the next order of the stratum's deck, which
    deals every order in [lo, hi] once, in a seeded order, and then refills."""
    decks: dict = {}

    def draw(stratum, band: tuple[int, int]) -> int:
        deck = decks.setdefault(stratum, [])
        if not deck:
            deck.extend(range(band[0], band[1] + 1))
            rng.shuffle(deck)
        return deck.pop()

    return draw


def _rational(rng: random.Random, top: int, signed: bool = True) -> Fraction:
    value = Fraction(rng.randint(1, top), rng.randint(1, top))
    return -value if signed and rng.random() < 0.5 else value


def _frac(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


# --------------------------------------------------------------------------
# catalog_solve: the everyday CLI path, dominated by float verification.
# --------------------------------------------------------------------------

class CatalogSolve:
    name = "catalog_solve"
    why = (
        "in-process `dtm solve --format json` on the catalog at N in [40, 60]; "
        "float verification (eval2d) is most of each op"
    )
    ORDERS = (40, 60)  # example3 misses the 1e-8 threshold at N=36
    BANDS = _bands(*ORDERS, 3)
    params = {"examples": [1, 2, 3, 4], "order": list(ORDERS), "order_bands": BANDS,
              "grid": "21x21", "boundary_samples": 41, "ops_per_round": 12}
    # Orders just above the timed range, so no timed op repeats a warm-up input.
    WARMUP = ({"example": 3, "order": 61}, {"example": 1, "order": 62})

    def warmup(self) -> list[dict]:
        return list(self.WARMUP)

    def rounds(self, rng: random.Random):
        draw = _order_deck(rng)
        while True:
            ops = [{"example": k, "order": draw((k, band), band)}
                   for k in (1, 2, 3, 4) for band in self.BANDS]
            rng.shuffle(ops)
            yield ops

    @staticmethod
    def describe(op: dict) -> list:
        return [op["example"], op["order"]]

    @staticmethod
    def run(op: dict):
        argv = ["solve", "--example", str(op["example"]), "--order", str(op["order"]),
                "--format", "json"]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = dtm2d.cli.main(argv)
        return status, out.getvalue()

    @staticmethod
    def check(op: dict, output) -> tuple[bool, float]:
        status, text = output
        try:
            payload = json.loads(text)
        except json.JSONDecodeError:
            return False, float("inf")
        errors = list(payload.get("edges", {}).values())
        if payload.get("closed_form_max_err") is not None:
            errors.append(payload["closed_form_max_err"])
        ok = (
            status == 0
            and payload.get("checks", {}).get("passed") is True
            and payload.get("pde_residual") == "exact-zero"
            and payload.get("model") == f"example{op['example']}"
            and payload.get("order") == op["order"]
            and len(errors) == 5
        )
        return ok, max(errors, default=float("inf"))


# --------------------------------------------------------------------------
# spectrum_high_order: exact spectrum production, solver and rules heavy.
# --------------------------------------------------------------------------

def _scaled(spec: FuncSpec, c: Fraction) -> FuncSpec:
    if spec.terms is not None:
        return FuncSpec(terms=tuple(_scaled(t, c) for t in spec.terms))
    return FuncSpec(kind=spec.kind, arg_scale=spec.arg_scale, amplitude=spec.amplitude * c,
                    sym_amp=spec.sym_amp, poly_coeffs=spec.poly_coeffs)


class SpectrumHighOrder:
    name = "spectrum_high_order"
    why = (
        "solve_model on catalog data scaled by a random rational at N in [100, 140], "
        "no closed form, 2 boundary samples; inference and transform rules dominate"
    )
    ORDERS = (100, 140)
    BANDS = _bands(*ORDERS, 3)
    params = {"models": sorted(CLOSED_FORMS), "order": list(ORDERS), "order_bands": BANDS,
              "scale": "p/q, p, q in 1..12, random sign", "reference": None,
              "boundary_samples": 2, "ops_per_round": 12}
    WARMUP = ({"model": "example3", "order": 141, "c": Fraction(3, 2)},
              {"model": "example1", "order": 142, "c": Fraction(-2, 5)})

    def warmup(self) -> list[dict]:
        return list(self.WARMUP)

    def rounds(self, rng: random.Random):
        draw = _order_deck(rng)
        while True:
            ops = [{"model": model, "order": draw((model, band), band), "c": _rational(rng, 12)}
                   for model in sorted(CLOSED_FORMS) for band in self.BANDS]
            rng.shuffle(ops)
            yield ops

    @staticmethod
    def describe(op: dict) -> list:
        return [op["model"], op["order"], _frac(op["c"])]

    @staticmethod
    def run(op: dict):
        model = dtm2d.solver.model_catalog()[op["model"]]
        c = op["c"]
        bc = dtm2d.solver.BoundarySpec(tuple(
            dtm2d.solver.EdgeCondition(cond.edge, cond.kind, _scaled(cond.trace, c))
            for cond in model.bc.conditions
        ))
        return dtm2d.solver.solve_model(
            bc, op["order"], model_id=op["model"], origin_value=model.origin_value * c,
            reference=None, boundary_samples=2,
        )

    @staticmethod
    def check(op: dict, report) -> tuple[bool, float]:
        order = op["order"]
        (fx, sx), (gy, sy) = CLOSED_FORMS[op["model"]]
        f = taylor_coeffs(FuncSpec(kind=fx, arg_scale=sx, amplitude=op["c"]), order)
        g = taylor_coeffs(FuncSpec(kind=gy, arg_scale=sy), order)
        expected = outer_product(f, g, order)
        ok = report.spectrum == expected and report.pde_residual_is_zero
        return ok, max(report.boundary_residuals.values())


# --------------------------------------------------------------------------
# transform_algebra: dt_product and dt_exp on sparse to dense inputs.
# --------------------------------------------------------------------------

SPARSE_KINDS = ("sin", "cos", "sinh", "cosh", "polynomial")
DENSE_KINDS = ("exp",)


def _trace(rng: random.Random, kinds) -> dict:
    kind = rng.choice(kinds)
    term = {"kind": kind, "scale": _rational(rng, 3, signed=False),
            "amp": _rational(rng, 4)}
    if kind == "polynomial":
        term["poly"] = [_rational(rng, 4) for _ in range(rng.randint(3, 6))]
    return term


def _coeffs(term: dict, order: int) -> list[Fraction]:
    poly = tuple(term["poly"]) if "poly" in term else None
    spec = FuncSpec(kind=term["kind"], arg_scale=term["scale"], amplitude=term["amp"],
                    poly_coeffs=poly)
    return taylor_coeffs(spec, order)


def _cauchy(a: list[Fraction], b: list[Fraction], order: int) -> list[Fraction]:
    return [sum((a[i] * b[k - i] for i in range(k + 1)), Fraction(0)) for k in range(order + 1)]


def _exp_series(f: list[Fraction], a: Fraction, order: int) -> list[Fraction]:
    """Coefficients of e**(a*f) for f(0) = 0, from E' = a f' E."""
    e = [Fraction(1)] + [Fraction(0)] * order
    for k in range(1, order + 1):
        e[k] = a * sum((j * f[j] * e[k - j] for j in range(1, k + 1)), Fraction(0)) / k
    return e


def _separable(pairs, order: int) -> dict:
    """Entries of sum_i F_i(x) G_i(y) over the triangle, zeros dropped."""
    table: dict[tuple[int, int], Fraction] = {}
    for f, g in pairs:
        for m in range(order + 1):
            if f[m]:
                for n in range(order + 1 - m):
                    table[(m, n)] = table.get((m, n), Fraction(0)) + f[m] * g[n]
    return {k: v for k, v in table.items() if v != 0}


def _spectrum(pairs, order: int) -> Spectrum2D:
    return Spectrum2D(order, (Fraction(0), Fraction(0)), _separable(pairs, order))


class TransformAlgebra:
    name = "transform_algebra"
    why = (
        "dt_product and dt_exp at N in [16, 28] on separable inputs from parity-sparse "
        "(sin x cos y) to dense (exp); the only path into those two rules"
    )
    ORDERS = (16, 28)
    BANDS = _bands(*ORDERS, 3)
    # (op, shape of v, shape of w): each is one stratum per order band.
    SHAPES = (
        ("product", "sparse", "sparse"),
        ("product", "sparse", "dense"),
        ("product", "dense", "dense"),
        ("product", "mixed2", "mixed2"),
        ("exp", "sparse", None),
        ("exp", "dense", None),
    )
    params = {"orders": list(ORDERS), "order_bands": BANDS,
              "shapes": [list(s) for s in SHAPES], "sparse_kinds": SPARSE_KINDS,
              "dense_kinds": DENSE_KINDS, "scales": "p/q, p, q in 1..3",
              "amplitudes": "p/q, p, q in 1..4, random sign", "ops_per_round": 18}
    WARMUP = (
        {"op": "product", "order": 15, "a": None,
         "v": [[{"kind": "sin", "scale": Fraction(1), "amp": Fraction(1)},
                {"kind": "cos", "scale": Fraction(1), "amp": Fraction(1)}]],
         "w": [[{"kind": "exp", "scale": Fraction(1, 2), "amp": Fraction(2)},
                {"kind": "exp", "scale": Fraction(1), "amp": Fraction(-1)}]]},
        {"op": "exp", "order": 15, "a": Fraction(1, 2),
         "v": [[{"kind": "exp", "scale": Fraction(1), "amp": Fraction(1)},
                {"kind": "sin", "scale": Fraction(2), "amp": Fraction(1)}]],
         "w": None},
    )

    @staticmethod
    def _factors(rng: random.Random, shape: str) -> list[list[dict]]:
        if shape == "sparse":
            return [[_trace(rng, SPARSE_KINDS), _trace(rng, SPARSE_KINDS)]]
        if shape == "dense":
            return [[_trace(rng, DENSE_KINDS), _trace(rng, DENSE_KINDS)]]
        return [[_trace(rng, SPARSE_KINDS), _trace(rng, DENSE_KINDS)],
                [_trace(rng, DENSE_KINDS), _trace(rng, SPARSE_KINDS)]]

    def rounds(self, rng: random.Random):
        draw = _order_deck(rng)
        while True:
            ops = []
            for shape in self.SHAPES:
                op, v_shape, w_shape = shape
                for band in self.BANDS:
                    ops.append({
                        "op": op,
                        "order": draw((shape, band), band),
                        "a": _rational(rng, 3) if op == "exp" else None,
                        "v": self._factors(rng, v_shape),
                        "w": self._factors(rng, w_shape) if w_shape else None,
                    })
            rng.shuffle(ops)
            yield [self.prepare(op) for op in ops]

    def warmup(self) -> list[dict]:
        return [self.prepare(dict(op)) for op in self.WARMUP]

    @staticmethod
    def prepare(op: dict) -> dict:
        """Build the input spectra (untimed); dt_exp gets F(x) - F(0) + G(y) - G(0)."""
        order = op["order"]
        if op["op"] == "product":
            op["v_pairs"] = [[_coeffs(t, order) for t in pair] for pair in op["v"]]
            op["w_pairs"] = [[_coeffs(t, order) for t in pair] for pair in op["w"]]
            op["v_spec"] = _spectrum(op["v_pairs"], order)
            op["w_spec"] = _spectrum(op["w_pairs"], order)
        else:
            (fx, gy), = op["v"]
            f = [Fraction(0)] + _coeffs(fx, order)[1:]
            g = [Fraction(0)] + _coeffs(gy, order)[1:]
            unit = [Fraction(1)] + [Fraction(0)] * order
            op["f"], op["g"] = f, g
            op["v_spec"] = _spectrum([(f, unit), (unit, g)], order)
        return op

    @staticmethod
    def describe(op: dict) -> list:
        def term(t):
            return [t["kind"], _frac(t["scale"]), _frac(t["amp"]),
                    [_frac(c) for c in t.get("poly", [])]]
        sides = [[[term(t) for t in pair] for pair in side] if side else None
                 for side in (op["v"], op["w"])]
        return [op["op"], op["order"], _frac(op["a"]) if op["a"] is not None else None, sides]

    @staticmethod
    def run(op: dict):
        if op["op"] == "product":
            return dtm2d.rules.dt_product(op["v_spec"], op["w_spec"])
        return dtm2d.rules.dt_exp(op["v_spec"], op["a"])

    @staticmethod
    def check(op: dict, result) -> tuple[bool, float]:
        order = op["order"]
        if op["op"] == "product":
            pairs = [(_cauchy(f, h, order), _cauchy(g, k, order))
                     for f, g in op["v_pairs"] for h, k in op["w_pairs"]]
        else:
            a = op["a"]
            pairs = [(_exp_series(op["f"], a, order), _exp_series(op["g"], a, order))]
        ok = result.order == order and dict(result.entries) == _separable(pairs, order)
        return ok, 0.0


WORKLOADS = {w.name: w for w in (CatalogSolve(), SpectrumHighOrder(), TransformAlgebra())}
