"""Batch front-end: solve the built-in models or a custom config.

Emits spectra, residual reports and convergence tables as JSON, CSV or a
human-readable summary.  Exit status: 0 when all residual checks pass their
thresholds, 2 on a threshold violation, a failed inference or a spectrum that
is not exact, 1 on configuration errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional, Sequence

from . import verify
from .solver import (
    BoundarySpec,
    EDGES,
    EdgeCondition,
    InferenceError,
    Model,
    ModelReport,
    model_catalog,
    solve_model,
)
from .spectrum import DtmError, coeff_str, spectrum_to_json, to_float
from .taylor import funcspec_from_json

# Residual thresholds for the pass/fail exit status.  The pde residual must
# vanish identically; boundary and closed-form errors get head-room over the
# expected truncation level to absorb float evaluation noise.
FLOAT_THRESHOLD = 1e-8

FORMATS = ("json", "csv", "pretty")
# Config-file keys besides "model": each flag's, then those only the custom
# model reads.
_FLAG_KEYS = ("order", "format", "grid", "convergence_orders", "out", "emit_spectrum")
_CUSTOM_KEYS = ("bc", "reference", "origin_value")

__all__ = ["RunConfig", "main", "parse_config", "run"]


class ConfigError(DtmError):
    """Bad flags or config file; maps to exit status 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse would exit(2); config errors are 1
        raise ConfigError(message)


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved invocation: model, order, output and verification grid
    (a bad order or grid is refused by :func:`solve_model`, before any work)."""

    model: Model
    order: int
    command: str = "solve"  # "solve" or "spectrum"
    output_format: str = "pretty"
    grid: int = 21
    emit_spectrum: bool = False
    convergence_orders: Optional[tuple[int, ...]] = None
    out_path: Optional[Path] = None

    def __post_init__(self) -> None:
        if self.output_format not in FORMATS:
            raise ConfigError(
                f"unknown format {self.output_format!r}; choose from {FORMATS}"
            )
        if self.convergence_orders is not None:
            orders = self.convergence_orders
            if list(orders) != sorted(set(orders)):
                raise ConfigError(
                    f"convergence orders must be strictly increasing, got {list(orders)}"
                )


def _parse_bc(data) -> BoundarySpec:
    if not isinstance(data, dict):
        raise ConfigError(f"custom bc must be an object, got {data!r}")
    unknown = set(data) - set(EDGES)
    if unknown:
        raise ConfigError(f"bc[{min(unknown)!r}]: unknown edge; expected one of {EDGES}")
    conditions = []
    for edge in EDGES:
        if edge not in data:
            raise ConfigError(f"custom bc is missing edge {edge!r}")
        entry = data[edge]
        if not isinstance(entry, dict):
            raise ConfigError(f"bc[{edge!r}] must be an object, got {entry!r}")
        unknown = set(entry) - {"kind", "trace"}
        if unknown:
            raise ConfigError(
                f"bc[{edge!r}]: unknown key {min(unknown)!r}; an edge takes kind and trace"
            )
        kind = entry.get("kind")
        trace = entry.get("trace")
        if kind is None or trace is None:
            raise ConfigError(f"bc[{edge!r}] needs 'kind' and 'trace' fields")
        try:
            conditions.append(EdgeCondition(edge, kind, funcspec_from_json(trace)))
        except DtmError as exc:
            raise ConfigError(f"bc[{edge!r}]: {exc}") from exc
    return BoundarySpec(tuple(conditions))


def _custom_model(file_cfg: dict) -> Model:
    """The model named "custom": the config's bc, reference and origin_value."""
    if "bc" not in file_cfg:
        raise ConfigError("custom model requires a 'bc' object in the config")
    reference = file_cfg.get("reference")
    if reference is not None:
        reference = verify.ReferenceSolution(reference)
    origin_value = None  # not given: solve_model warns if it leaves u(0, 0) at 0
    if "origin_value" in file_cfg:
        try:
            origin_value = Fraction(str(file_cfg["origin_value"]))
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"bad origin_value: {exc}") from exc
    return Model("custom", _parse_bc(file_cfg["bc"]), reference, 36, origin_value)


def _parse_grid(text: str) -> int:
    parts = text.lower().split("x")
    try:
        sizes = [int(p) for p in parts]
    except ValueError as exc:
        raise ConfigError(f"bad grid size {text!r}; expected K or KxK") from exc
    if len(sizes) == 2 and sizes[0] != sizes[1]:
        raise ConfigError(f"grid must be square, got {text!r}")
    if len(sizes) not in (1, 2):
        raise ConfigError(f"bad grid size {text!r}; expected K or KxK")
    return sizes[0]


def _parse_order(text: str) -> int:
    """What ``--order`` accepts (argparse's ``int``), as a ConfigError."""
    try:
        return int(text)
    except ValueError as exc:
        raise ConfigError(f"bad order {text!r}; expected an integer") from exc


def _parse_orders(text: str) -> tuple[int, ...]:
    try:
        return tuple(_parse_order(p) for p in text.split(","))
    except ConfigError as exc:
        raise ConfigError(f"bad order list {text!r}: {exc}") from exc


def _parse_out(text: Optional[str]) -> Optional[Path]:
    """``--out`` as a path; an empty or absent one means stdout."""
    return Path(text) if text else None


def _flag_text(key: str, value) -> str:
    """A config-file value as its flag's text: a JSON integer as its digits,
    a string as it is, and for ``convergence_orders`` a list of these joined
    by commas; any other value is an error."""
    items = value if key == "convergence_orders" and isinstance(value, list) else [value]
    for item in items:
        if isinstance(item, bool) or not isinstance(item, (int, str)):
            raise ConfigError(f"config {key} must be an integer or a string, got {item!r}")
    return ",".join(str(item) for item in items)


def parse_config(args: argparse.Namespace) -> RunConfig:
    """Merge config-file values and command-line flags (flags win)."""
    file_cfg: dict = {}
    if getattr(args, "config", None) is not None:
        path = Path(args.config)
        try:
            file_cfg = json.loads(path.read_text(encoding="utf-8"))
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
        if not isinstance(file_cfg, dict):
            raise ConfigError(f"config {path} must hold a JSON object")

    unknown = set(file_cfg) - {"model", *_FLAG_KEYS, *_CUSTOM_KEYS}
    if unknown:
        raise ConfigError(f"unknown config key {min(unknown)!r}")
    if getattr(args, "example", None) is not None:
        name = f"example{args.example}"
    elif "model" in file_cfg:
        name = str(file_cfg["model"])
    else:
        raise ConfigError("no model: pass --example 1..4 or a config with 'model'")

    catalog = model_catalog()
    if name == "custom":
        model = _custom_model(file_cfg)
    elif name not in catalog:
        known = sorted(catalog) + ["custom"]
        raise ConfigError(f"unknown model {name!r}; choose from {known}")
    else:
        model = catalog[name]
        for key in _CUSTOM_KEYS:
            if key in file_cfg:
                raise ConfigError(f"config key {key!r} applies only to model 'custom'")

    def setting(key: str, parse: Callable, default=None):
        """The flag, else the file value as the flag's text; null reads as absent."""
        value = getattr(args, key, None)
        if value is None and file_cfg.get(key) is not None:
            value = _flag_text(key, file_cfg[key])
        return default if value is None else parse(value)

    emit = getattr(args, "emit_spectrum", False) or file_cfg.get("emit_spectrum")
    if emit is not None and not isinstance(emit, bool):
        raise ConfigError(f"config emit_spectrum must be true or false, got {emit!r}")
    return RunConfig(
        model=model,
        order=setting("order", _parse_order, model.default_order),
        command=getattr(args, "command", "solve"),
        output_format=setting("format", str, "pretty"),
        grid=setting("grid", _parse_grid, 21),
        emit_spectrum=bool(emit),
        convergence_orders=setting("convergence_orders", _parse_orders),
        out_path=setting("out", _parse_out),
    )


def _solve(model: Model, order: int, grid: int = 21) -> ModelReport:
    return solve_model(
        model.bc,
        order,
        model_id=model.model_id,
        origin_value=model.origin_value,
        reference=model.reference,
        grid=grid,
        boundary_samples=41,
    )


def _checks_pass(report: ModelReport) -> bool:
    if not report.pde_residual_is_zero:
        return False
    # not below: a NaN error fails too
    if any(not r < FLOAT_THRESHOLD for r in report.boundary_residuals.values()):
        return False
    if report.closed_form_error is not None and not report.closed_form_error < FLOAT_THRESHOLD:
        return False
    return True


def _row(report: ModelReport) -> dict:
    """One order's residuals and verdict: what every solve and verify report shows."""
    return {
        "order": report.order,
        "edges": {e: report.boundary_residuals[e] for e in sorted(report.boundary_residuals)},
        "closed_form_max_err": report.closed_form_error,
        "passed": _checks_pass(report),
    }


def _summary(row: dict) -> str:
    """A row's worst edge and closed-form error, as the pretty reports print them."""
    err = row["closed_form_max_err"]
    err_text = "n/a" if err is None else f"{err:.3e}"
    return f"boundary {verify._worst(row['edges'].values()):.3e}  closed-form {err_text}"


def _pde_label(report: ModelReport) -> str:
    return "exact-zero" if report.pde_residual_is_zero else "NONZERO"


def _json_safe(value):
    """value with each non-finite float as the string CSV and pretty output
    print ("nan", "inf" or "-inf"), which JSON can hold; null means no value."""
    if isinstance(value, float):
        return value if math.isfinite(value) else repr(value)
    if isinstance(value, dict):
        return {key: _json_safe(v) for key, v in value.items()}
    if isinstance(value, list):
        return [_json_safe(v) for v in value]
    return value


def _text(out: dict | list[str]) -> str:
    """A JSON payload as sorted, indented JSON; a list of lines as text."""
    if isinstance(out, dict):
        return json.dumps(_json_safe(out), indent=2, sort_keys=True, allow_nan=False) + "\n"
    return "\n".join(out) + "\n"


def _spectrum(report: ModelReport, fmt: str) -> dict | list[str]:
    """The ``dtm spectrum`` report; a spectrum that is not exact is refused."""
    if report.inference_method != "exact":
        raise InferenceError(
            f"spectrum of {report.model} is not exact (float inference route); "
            f"dtm solve --emit-spectrum reports it with its route"
        )
    if fmt == "json":
        return spectrum_to_json(report.spectrum)
    entries = sorted(report.spectrum.entries.items())
    if fmt == "csv":
        return ["m,n,coefficient"] + [f"{m},{n},{coeff_str(v)}" for (m, n), v in entries]
    head = f"spectrum of {report.model} at order {report.order}"
    return [head] + [f"  U({m},{n}) = {v}" for (m, n), v in entries]


def _pretty(report: ModelReport, row: dict, rows: list[dict]) -> list[str]:
    out = [
        f"model {report.model}  order {report.order}  entries {report.size}",
        f"  pde residual     : {_pde_label(report)}",
    ]
    out += [f"  edge {edge:6s}      : {value:.3e}" for edge, value in row["edges"].items()]
    if row["closed_form_max_err"] is not None:
        out.append(f"  closed-form error: {row['closed_form_max_err']:.3e}")
    out.append(
        f"  inference        : {report.inference_method}"
        f" (residual {report.inference_residual:.3e})"
    )
    if report.warning:
        out.append(f"  warning          : {report.warning}")
    if rows:
        out.append("  convergence:")
        out += [f"    order {r['order']:3d}: {_summary(r)}" for r in rows]
    status = "PASS" if row["passed"] else "FAIL"
    out.append(f"  status           : {status} (threshold {FLOAT_THRESHOLD:.0e})")
    return out


def run(config: RunConfig) -> tuple[int, str]:
    """Execute one resolved config; returns (exit status, report text)."""
    report = _solve(config.model, config.order, config.grid)
    if config.command == "spectrum":
        return 0, _text(_spectrum(report, config.output_format))

    # Exit status reflects the requested order only; convergence rows at
    # lower orders are informational and carry their own per-row flag.  A
    # rung at the requested order reuses its report.
    row = _row(report)
    rows = [
        row if order == config.order else _row(_solve(config.model, order, config.grid))
        for order in config.convergence_orders or ()
    ]
    if config.output_format == "json":
        out = {
            **row,
            "model": report.model,
            "pde_residual": "exact-zero"
            if report.pde_residual_is_zero
            else verify._worst(abs(to_float(*v.as_integer_ratio()))
                               for v in report.pde_residual_spectrum.entries.values()),
            "grid": {"x_points": config.grid, "y_points": config.grid},
            "inference": {
                "method": report.inference_method,
                "residual": report.inference_residual,
                "warning": report.warning,
            },
            "size": report.size,
        }
        out["checks"] = {"passed": out.pop("passed"), "threshold": FLOAT_THRESHOLD}
        if config.emit_spectrum:
            out["spectrum"] = spectrum_to_json(report.spectrum)
        if rows:
            out["convergence"] = rows
    elif config.output_format == "csv":
        out = ["order,edge,residual,closed_form_err"]
        for r in rows or [row]:
            err = "" if r["closed_form_max_err"] is None else repr(r["closed_form_max_err"])
            out += [f"{r['order']},{edge},{value!r},{err}" for edge, value in r["edges"].items()]
    else:
        out = _pretty(report, row, rows)
    return (0 if row["passed"] else 2), _text(out)


def _run_verify(fmt: str) -> tuple[int, str]:
    """Solve all four built-in models at their default orders and check them."""
    rows, lines = [], []
    for model_id, model in sorted(model_catalog().items()):
        report = _solve(model, model.default_order)
        row = _row(report)
        lines.append(
            f"{model_id}  order {row['order']:3d}  pde {_pde_label(report):10s}  "
            f"{_summary(row)}  {'PASS' if row['passed'] else 'FAIL'}"
        )
        row["max_boundary_residual"] = verify._worst(row.pop("edges").values())
        rows.append(dict(row, model=model_id, pde_residual=_pde_label(report).lower()))
    passed = all(r["passed"] for r in rows)
    lines.append("all models PASS" if passed else "FAILURES present")
    out = {"models": rows, "passed": passed} if fmt == "json" else lines
    return (0 if passed else 2), _text(out)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dtm", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--example", type=int, choices=[1, 2, 3, 4], default=None)
        p.add_argument("--config", type=str, default=None, help="JSON config file")
        p.add_argument("--order", type=int, default=None)
        p.add_argument("--format", type=str, choices=list(FORMATS), default=None)
        p.add_argument("--out", type=str, default=None, help="write output to this path")

    solve_cmd = sub.add_parser("solve", help="solve a model and report residuals")
    add_common(solve_cmd)
    solve_cmd.add_argument("--grid", type=str, default=None, help="verification grid, K or KxK")
    solve_cmd.add_argument("--convergence-orders", type=str, default=None, help="e.g. 12,20,28,36")
    solve_cmd.add_argument("--emit-spectrum", action="store_true")

    spectrum_cmd = sub.add_parser("spectrum", help="emit the solved spectrum only")
    add_common(spectrum_cmd)

    verify_cmd = sub.add_parser("verify", help="run all four built-in models at default orders")
    verify_cmd.add_argument("--format", type=str, choices=["json", "pretty"], default="pretty")
    verify_cmd.add_argument("--out", type=str, default=None)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` reuses, built on its first call."""
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _parser().parse_args(argv)
        if args.command == "verify":
            status, text = _run_verify(args.format)
            out_path = _parse_out(args.out)
        else:
            config = parse_config(args)
            status, text = run(config)
            out_path = config.out_path
        if out_path is None:
            sys.stdout.write(text)
            return status
        try:
            out_path.write_text(text, encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"cannot write {out_path}: {exc}") from exc
        return status
    except InferenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DtmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
