"""Bit-identity harness: one sha256 per section of dtm2d's observable results.

Two trees give the same results when every section has the same digest:

    PYTHONPATH=src python tools/identity.py
    PYTHONPATH=/path/to/other/checkout/src python tools/identity.py

``dtm2d`` is imported from ``PYTHONPATH``, so the same script measures any
tree; its first line is ``dtm2d.__file__``, then one ``<section> <sha256>``
line per section:

* ``reports``: every ``ModelReport`` field, floats by ``float.hex`` and
  spectra in key order, for the four catalog models at every order 0-140;
* ``families``: the same for a fixed list of generated closed forms through
  ``closed_form_model``, in both kinds, at orders 4, 17, 30 and 61;
* ``float_route``: every ``InferredLayer`` field, raw floats included, of
  polynomial closures in both kinds and both layer indices;
* ``cli``: stdout, stderr and exit status of ``cli.main`` for the CI
  console-script commands, the README config and a list of refusals.

A refusal (``DtmError``) is hashed by its message; any other exception
escapes.  The output does not depend on ``PYTHONHASHSEED``.  Standard
library only.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import re
import tempfile
from fractions import Fraction
from pathlib import Path

import dtm2d
from dtm2d import (
    DtmError,
    EdgeCondition,
    FuncSpec,
    Spectrum2D,
    closed_form_model,
    infer_missing_seed,
    model_catalog,
    solve_model,
    taylor_coeffs,
)
from dtm2d import cli

README = Path(__file__).resolve().parents[1] / "README.md"

ORDERS = range(141)
FAMILIES = (
    "sin(x)*sinh(y)",
    "2*sinh(2x)*cos(2y)",
    "cos(3/2x)*cosh(3/2y)",
    "-1/3*cosh(5/2x)*sin(5/2y)",
    "sinh(4x)*cos(4y)",
    "sin(x)*sinh(y)-1/2*cos(2x)*cosh(2y)",
    "sin(x)*cosh(y)+cos(2x)*sinh(2y)",
    "sin(x)*sinh(y)+sin(6x)*sinh(6y)",
    "sin(10x)*sinh(10y)",
    "cos(x)*cosh(2y)",  # not harmonic: refused
)
FAMILY_ORDERS = (4, 17, 30, 61)
POLYNOMIALS = ((0, 0, Fraction(1, 3)), (1, 2, 3), (0, 1), (5,), (0, 0, 0, Fraction(-1, 7)))
SCALE_60 = {"model": "custom", "order": 10, "bc": {
    "y=0": {"kind": "dirichlet", "trace": {"kind": "sin", "arg_scale": 60}},
    "y=pi": {"kind": "dirichlet", "trace": {"kind": "zero"}},
    "x=0": {"kind": "dirichlet", "trace": {"kind": "zero"}},
    "x=pi": {"kind": "dirichlet", "trace": {"kind": "zero"}}}}
# argv of cli.main; "{readme}" and "{scale60}" name the two config files
COMMANDS = (
    ("verify",),
    ("verify", "--format", "json"),
    ("solve", "--example", "1", "--order", "36", "--format", "json"),
    ("solve", "--example", "3", "--convergence-orders", "24,36,48,60", "--format", "csv"),
    ("solve", "--example", "3", "--convergence-orders", "24,36,48,60", "--format", "json",
     "--emit-spectrum"),
    ("spectrum", "--example", "3", "--order", "8", "--format", "csv"),
    ("spectrum", "--example", "3", "--order", "8", "--format", "json"),
    ("solve", "--config", "{readme}"),
    ("solve", "--example", "1", "--order", "-1"),
    ("solve", "--example", "1", "--grid", "1"),
    ("solve", "--config", "{scale60}"),
    ("solve", "--example", "2", "--order", "600"),
)


def canon(value):
    """A value as nested lists of str, int, bool and None, with nothing lost:
    floats by ``float.hex``, Fractions as "p/q", spectra as (order, entries
    in key order), dataclasses as (field, value) pairs in field order."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, Spectrum2D):
        return [value.order, [[m, n, canon(c)] for (m, n), c in sorted(value.entries.items())]]
    if dataclasses.is_dataclass(value):
        return [[f.name, canon(getattr(value, f.name))] for f in dataclasses.fields(value)]
    if isinstance(value, dict):
        return [[k, canon(v)] for k, v in value.items()]
    if isinstance(value, (list, tuple)):
        return [canon(v) for v in value]
    return value


def _outcome(call, *args, **kwargs):
    """call's result, or the message of the DtmError it raises."""
    try:
        return call(*args, **kwargs)
    except DtmError as exc:
        return ["refused", type(exc).__name__, str(exc)]


def reports(orders=ORDERS):
    for model_id, model in sorted(model_catalog().items()):
        for order in orders:
            yield model_id, order, _outcome(
                solve_model, model.bc, order, model_id=model_id,
                origin_value=model.origin_value, reference=model.reference)


def _family(descriptor, kind, order):
    model = closed_form_model("family", descriptor, kind, order)
    return solve_model(model.bc, order, model_id="family", origin_value=model.origin_value,
                       reference=model.reference)


def families(descriptors=FAMILIES):
    for descriptor in descriptors:
        for kind in ("dirichlet", "neumann"):
            for order in FAMILY_ORDERS:
                yield descriptor, kind, order, _outcome(_family, descriptor, kind, order)


def float_route():
    for order in (12, 44):
        for known in ([Fraction(0)] * (order + 1), taylor_coeffs(FuncSpec(kind="sin"), order)):
            for poly in POLYNOMIALS:
                for kind in ("dirichlet", "neumann"):
                    for index in (0, 1):
                        closure = EdgeCondition(
                            "y=pi", kind, FuncSpec(kind="polynomial", poly_coeffs=poly))
                        yield order, poly, kind, index, _outcome(
                            infer_missing_seed, known, index, closure)


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = cli.main(list(argv))
    return status, out.getvalue(), err.getvalue()


def cli_runs(commands=COMMANDS):
    config = re.search(r"```json\n(.*?)```", README.read_text(encoding="utf-8"), re.S).group(1)
    with tempfile.TemporaryDirectory() as tmp:
        files = {"readme": Path(tmp, "readme.json"), "scale60": Path(tmp, "scale60.json")}
        files["readme"].write_text(config, encoding="utf-8")
        files["scale60"].write_text(json.dumps(SCALE_60), encoding="utf-8")
        for command in commands:
            status, out, err = _run_cli(arg.format(**files) for arg in command)
            yield command, status, out, err.replace(tmp, "<tmp>")


def digest(items) -> str:
    """sha256 over the :func:`canon` form of each item, one line each."""
    h = hashlib.sha256()
    for item in items:
        h.update(repr(canon(item)).encode("utf-8") + b"\n")
    return h.hexdigest()


def digests(orders=ORDERS, descriptors=FAMILIES, commands=COMMANDS) -> dict[str, str]:
    """One sha256 per section, over the given orders, families and commands."""
    return {
        "reports": digest(reports(orders)),
        "families": digest(families(descriptors)),
        "float_route": digest(float_route()),
        "cli": digest(cli_runs(commands)),
    }


def main() -> None:
    print(dtm2d.__file__)
    for section, hexdigest in digests().items():
        print(section, hexdigest)


if __name__ == "__main__":
    main()
