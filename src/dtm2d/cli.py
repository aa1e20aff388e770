"""Batch front-end: solve the built-in models or a custom config.

Emits spectra, residual reports and convergence tables as JSON, CSV or a
human-readable summary.  Exit status: 0 when all residual checks pass their
thresholds, 2 on a threshold violation, a failed inference or a spectrum that
is not exact, 1 on configuration errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Optional, Sequence

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
from .spectrum import DtmError, coeff_str, spectrum_to_json
from .taylor import funcspec_from_json
from .verify import GridSpec, ReferenceSolution

# Residual thresholds for the pass/fail exit status.  The pde residual must
# vanish identically; boundary and closed-form errors get head-room over the
# expected truncation level to absorb float evaluation noise.
FLOAT_THRESHOLD = 1e-8

FORMATS = ("json", "csv", "pretty")

__all__ = ["RunConfig", "main", "parse_config", "run"]


class ConfigError(DtmError):
    """Bad flags or config file; maps to exit status 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse would exit(2); config errors are 1
        raise ConfigError(message)


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved invocation: model, order, output and verification grid.

    ``custom`` is the model named "custom"; catalog models are looked up.
    """

    model: str
    order: int
    command: str = "solve"  # "solve" or "spectrum"
    custom: Optional[Model] = None
    output_format: str = "pretty"
    grid: int = 21
    emit_spectrum: bool = False
    convergence_orders: Optional[tuple[int, ...]] = None
    out_path: Optional[Path] = None

    def __post_init__(self) -> None:
        if self.model == "custom" and self.custom is None:
            raise ConfigError("custom model requires boundary conditions ('bc')")
        if self.output_format not in FORMATS:
            raise ConfigError(
                f"unknown format {self.output_format!r}; choose from {FORMATS}"
            )
        if self.order < 0:
            raise ConfigError(f"order must be non-negative, got {self.order}")
        if self.grid < 2:
            raise ConfigError(f"grid must be at least 2x2, got {self.grid}")
        if self.convergence_orders is not None:
            orders = self.convergence_orders
            if list(orders) != sorted(set(orders)):
                raise ConfigError(
                    f"convergence orders must be strictly increasing, got {list(orders)}"
                )


def _parse_bc(data: dict) -> BoundarySpec:
    conditions = []
    for edge in EDGES:
        if edge not in data:
            raise ConfigError(f"custom bc is missing edge {edge!r}")
        entry = data[edge]
        kind = entry.get("kind")
        trace = entry.get("trace")
        if kind is None or trace is None:
            raise ConfigError(f"bc[{edge!r}] needs 'kind' and 'trace' fields")
        try:
            conditions.append(EdgeCondition(edge, kind, funcspec_from_json(trace)))
        except DtmError as exc:
            raise ConfigError(f"bc[{edge!r}]: {exc}") from exc
    return BoundarySpec(tuple(conditions))


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


def _parse_orders(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"bad order list {text!r}; expected a,b,c") from exc


def _parse_order(text: str) -> int:
    """What ``--order`` accepts (argparse's ``int``), as a ConfigError."""
    try:
        return int(text)
    except ValueError as exc:
        raise ConfigError(f"bad order {text!r}; expected an integer") from exc


def _flag_text(key: str, value) -> str:
    """A config-file value as its flag's text: a JSON integer as its digits,
    a string as it is; any other value is an error."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ConfigError(f"config {key} must be an integer or a string, got {value!r}")
    return str(value)


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

    model = None
    if getattr(args, "example", None) is not None:
        model = f"example{args.example}"
    elif "model" in file_cfg:
        model = str(file_cfg["model"])
    if model is None:
        raise ConfigError("no model: pass --example 1..4 or a config with 'model'")

    catalog = model_catalog()
    custom = None
    if model == "custom":
        if "bc" not in file_cfg:
            raise ConfigError("custom model requires a 'bc' object in the config")
        reference = file_cfg.get("reference")
        if reference is not None:
            ReferenceSolution(reference)  # fails early on a descriptor it cannot parse
        try:
            origin_value = Fraction(str(file_cfg.get("origin_value", 0)))
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"bad origin_value: {exc}") from exc
        custom = Model("custom", _parse_bc(file_cfg["bc"]), reference, 36, origin_value)
    elif model not in catalog:
        known = sorted(catalog) + ["custom"]
        raise ConfigError(f"unknown model {model!r}; choose from {known}")

    # File values go through the flags' parsers; null reads as absent.
    file_order, file_grid, file_conv = (
        file_cfg.get(key) for key in ("order", "grid", "convergence_orders")
    )
    order = getattr(args, "order", None)
    if order is None and file_order is not None:
        order = _parse_order(_flag_text("order", file_order))
    if order is None:
        order = (custom or catalog[model]).default_order

    fmt = getattr(args, "format", None) or file_cfg.get("format", "pretty")
    grid = getattr(args, "grid", None)
    if grid is None and file_grid is not None:
        grid = _flag_text("grid", file_grid)
    grid = _parse_grid(grid) if grid is not None else 21
    conv = getattr(args, "convergence_orders", None)
    if conv is None and isinstance(file_conv, list):  # the JSON form of a,b,c
        conv_orders = tuple(
            _parse_order(_flag_text("convergence_orders", v)) for v in file_conv
        )
    else:
        if conv is None and file_conv is not None:
            conv = _flag_text("convergence_orders", file_conv)
        conv_orders = _parse_orders(conv) if conv is not None else None
    emit = bool(getattr(args, "emit_spectrum", False) or file_cfg.get("emit_spectrum", False))
    out = getattr(args, "out", None) or file_cfg.get("out")

    return RunConfig(
        model=model,
        order=order,
        command=getattr(args, "command", "solve"),
        custom=custom,
        output_format=fmt,
        grid=grid,
        emit_spectrum=emit,
        convergence_orders=conv_orders,
        out_path=Path(out) if out is not None else None,
    )


def _solve(config: RunConfig, order: int) -> ModelReport:
    model = config.custom or model_catalog()[config.model]
    return solve_model(
        model.bc,
        order,
        model_id=config.model,
        origin_value=model.origin_value,
        reference=model.reference,
        grid=GridSpec.uniform(config.grid),
        boundary_samples=41,
    )


def _checks_pass(report: ModelReport) -> bool:
    if not report.pde_residual_is_zero:
        return False
    if any(r >= FLOAT_THRESHOLD for r in report.boundary_residuals.values()):
        return False
    if report.closed_form_error is not None and report.closed_form_error >= FLOAT_THRESHOLD:
        return False
    return True


def _report_payload(report: ModelReport, config: RunConfig) -> dict:
    residual = report.pde_residual_spectrum
    payload = {
        "model": report.model,
        "order": report.order,
        "pde_residual": "exact-zero"
        if residual.is_zero()
        else max(abs(float(v)) for v in residual.entries.values()),
        "edges": {e: report.boundary_residuals[e] for e in sorted(report.boundary_residuals)},
        "closed_form_max_err": report.closed_form_error,
        "grid": {"x_points": config.grid, "y_points": config.grid},
        "inference": {
            "method": report.inference_method,
            "residual": report.inference_residual,
            "warning": report.warning,
        },
        "size": report.size,
        "checks": {"passed": _checks_pass(report), "threshold": FLOAT_THRESHOLD},
    }
    if config.emit_spectrum:
        payload["spectrum"] = spectrum_to_json(report.spectrum)
    return payload


def _spectrum_csv(report: ModelReport) -> str:
    lines = ["m,n,coefficient"]
    for (m, n), value in sorted(report.spectrum.entries.items()):
        lines.append(f"{m},{n},{coeff_str(value)}")
    return "\n".join(lines) + "\n"


def _row(report: ModelReport) -> dict:
    """One order's residuals: a row of the convergence table."""
    return {
        "order": report.order,
        "edges": {e: report.boundary_residuals[e] for e in sorted(report.boundary_residuals)},
        "closed_form_max_err": report.closed_form_error,
        "passed": _checks_pass(report),
    }


def _convergence_csv(rows: list[dict]) -> str:
    lines = ["order,edge,residual,closed_form_err"]
    for row in rows:
        err = row["closed_form_max_err"]
        err_text = "" if err is None else repr(err)
        for edge in sorted(row["edges"]):
            lines.append(f"{row['order']},{edge},{row['edges'][edge]!r},{err_text}")
    return "\n".join(lines) + "\n"


def _pretty(report: ModelReport, config: RunConfig, rows: list[dict]) -> str:
    out = [
        f"model {report.model}  order {report.order}  entries {report.size}",
        f"  pde residual     : "
        + ("exact-zero" if report.pde_residual_is_zero else "NONZERO"),
    ]
    for edge in sorted(report.boundary_residuals):
        out.append(f"  edge {edge:6s}      : {report.boundary_residuals[edge]:.3e}")
    if report.closed_form_error is not None:
        out.append(f"  closed-form error: {report.closed_form_error:.3e}")
    out.append(
        f"  inference        : {report.inference_method}"
        f" (residual {report.inference_residual:.3e})"
    )
    if report.warning:
        out.append(f"  warning          : {report.warning}")
    if rows:
        out.append("  convergence:")
        for row in rows:
            err = row["closed_form_max_err"]
            err_text = "n/a" if err is None else f"{err:.3e}"
            worst_edge = max(row["edges"].values())
            out.append(
                f"    order {row['order']:3d}: boundary {worst_edge:.3e}"
                f"  closed-form {err_text}"
            )
    status = "PASS" if _checks_pass(report) else "FAIL"
    out.append(f"  status           : {status} (threshold {FLOAT_THRESHOLD:.0e})")
    return "\n".join(out) + "\n"


def run(config: RunConfig) -> tuple[int, str]:
    """Execute one resolved config; returns (exit status, report text)."""
    report = _solve(config, config.order)
    if config.command == "spectrum" and report.inference_method != "exact":
        raise InferenceError(
            f"spectrum of {report.model} is not exact (float inference route); "
            f"dtm solve --emit-spectrum reports it with its route"
        )
    if config.command == "spectrum":
        if config.output_format == "csv":
            text = _spectrum_csv(report)
        elif config.output_format == "json":
            text = json.dumps(spectrum_to_json(report.spectrum), indent=2, sort_keys=True) + "\n"
        else:
            lines = [f"spectrum of {report.model} at order {report.order}"]
            for (m, n), value in sorted(report.spectrum.entries.items()):
                lines.append(f"  U({m},{n}) = {value}")
            text = "\n".join(lines) + "\n"
        return 0, text

    # Exit status reflects the requested order only; convergence rows at
    # lower orders are informational and carry their own per-row flag.
    rows = [_row(_solve(config, order)) for order in config.convergence_orders or ()]
    passed = _checks_pass(report)
    if config.output_format == "json":
        payload = _report_payload(report, config)
        if rows:
            payload["convergence"] = rows
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    elif config.output_format == "csv":
        text = _convergence_csv(rows or [_row(report)])
    else:
        text = _pretty(report, config, rows)
    return (0 if passed else 2), text


def _run_verify(fmt: str) -> tuple[int, str]:
    """Solve all four built-in models at their default orders and check them."""
    lines = []
    results = []
    for model_id, model in sorted(model_catalog().items()):
        report = _solve(RunConfig(model=model_id, order=model.default_order), model.default_order)
        ok = _checks_pass(report)
        results.append(
            {
                "model": model_id,
                "order": report.order,
                "pde_residual": "exact-zero" if report.pde_residual_is_zero else "nonzero",
                "max_boundary_residual": max(report.boundary_residuals.values()),
                "closed_form_max_err": report.closed_form_error,
                "passed": ok,
            }
        )
        lines.append(
            f"{model_id}  order {report.order:3d}  "
            f"pde {'exact-zero' if report.pde_residual_is_zero else 'NONZERO':10s}  "
            f"boundary {max(report.boundary_residuals.values()):.3e}  "
            f"closed-form {report.closed_form_error:.3e}  "
            f"{'PASS' if ok else 'FAIL'}"
        )
    all_ok = all(r["passed"] for r in results)
    if fmt == "json":
        text = json.dumps({"models": results, "passed": all_ok}, indent=2, sort_keys=True) + "\n"
    else:
        lines.append("all models PASS" if all_ok else "FAILURES present")
        text = "\n".join(lines) + "\n"
    return (0 if all_ok else 2), text


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


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "verify":
            status, text = _run_verify(args.format)
            out_path = Path(args.out) if args.out else None
        else:
            config = parse_config(args)
            status, text = run(config)
            out_path = config.out_path
        if out_path is not None:
            try:
                out_path.write_text(text, encoding="utf-8")
            except OSError as exc:
                print(f"error: cannot write {out_path}: {exc}", file=sys.stderr)
                return 1
        else:
            sys.stdout.write(text)
        return status
    except InferenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DtmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
