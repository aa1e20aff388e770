"""CLI behavior: flags, config files, output formats, exit codes."""

import io
import json
import math
import re
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dtm2d.cli import (
    FORMATS,
    ConfigError,
    RunConfig,
    _row,
    _summary,
    build_parser,
    main,
    parse_config,
)
from dtm2d.solver import EDGES, MAX_WORKING_ORDER, model_catalog, solve_example
from dtm2d.taylor import TOKEN_KINDS

from conftest import (
    LEGACY_TOKEN_NAMES,
    README,
    enumerate_spectrum,
    formula_example3,
    run_limited,
)


def run_cli(capsys, argv):
    status = main(argv)
    captured = capsys.readouterr()
    return status, captured.out, captured.err


class TestSolve:
    def test_example1_json_passes(self, capsys):
        status, out, _ = run_cli(
            capsys, ["solve", "--example", "1", "--order", "36", "--format", "json"]
        )
        assert status == 0
        payload = json.loads(out)
        assert payload["pde_residual"] == "exact-zero"
        assert payload["closed_form_max_err"] < 1e-8
        assert payload["checks"]["passed"] is True
        assert set(payload["edges"]) == {"x=0", "x=pi", "y=0", "y=pi"}

    def test_degenerate_order_fails_thresholds(self, capsys):
        status, out, _ = run_cli(
            capsys, ["solve", "--example", "1", "--order", "0", "--format", "json"]
        )
        assert status == 2
        payload = json.loads(out)
        assert payload["closed_form_max_err"] == pytest.approx(math.sinh(math.pi))
        assert payload["checks"]["passed"] is False

    @pytest.mark.parametrize("order", [MAX_WORKING_ORDER + 1, 650, 100000])
    def test_order_above_working_ceiling_is_config_error(self, capsys, monkeypatch, order):
        def no_seed(*args):
            raise AssertionError("seed work entered")

        monkeypatch.setattr("dtm2d.solver.taylor_coeffs", no_seed)
        status, out, err = run_cli(capsys, ["solve", "--example", "1", "--order", str(order)])
        assert status == 1
        assert out == ""
        assert err.startswith(f"error: working order {order} is outside 0 to {MAX_WORKING_ORDER}")

    def test_custom_origin_value_absent_warns(self, capsys, tmp_path):
        # u = 1 on all-Neumann zero data: only origin_value fixes the constant
        zero = {"kind": "neumann", "trace": {"kind": "zero"}}
        bc = dict.fromkeys(("y=0", "y=pi", "x=0", "x=pi"), zero)
        path = tmp_path / "model.json"
        for extra, warns in (({}, True), ({"origin_value": "1"}, False)):
            path.write_text(json.dumps({"model": "custom", "order": 4, "bc": bc, **extra}))
            status, out, _ = run_cli(capsys, ["solve", "--config", str(path), "--format", "json"])
            assert status == 0
            warning = json.loads(out)["inference"]["warning"]
            assert (warning or "").startswith("U(0,0) set to 0") == warns

    def test_pretty_output_mentions_status(self, capsys):
        status, out, _ = run_cli(capsys, ["solve", "--example", "2", "--order", "24"])
        assert status == 0
        assert "status" in out and "PASS" in out

    def test_deterministic_bytes(self, capsys):
        argv = ["solve", "--example", "1", "--order", "20", "--format", "json",
                "--emit-spectrum"]
        _, out1, _ = run_cli(capsys, argv)
        _, out2, _ = run_cli(capsys, argv)
        assert out1 == out2

    def test_emit_spectrum_round_trips(self, capsys):
        from dtm2d import spectrum_from_json, spectrum_diff

        status, out, _ = run_cli(
            capsys,
            ["solve", "--example", "3", "--order", "12", "--format", "json",
             "--emit-spectrum"],
        )
        assert status == 2  # order 12 cannot meet the float thresholds
        payload = json.loads(out)
        got = spectrum_from_json(payload["spectrum"])
        assert spectrum_diff(got, enumerate_spectrum(formula_example3, 12)) == (Fraction(0), [])

    def test_convergence_rows_non_increasing(self, capsys):
        status, out, _ = run_cli(
            capsys,
            ["solve", "--example", "1", "--order", "36", "--format", "json",
             "--convergence-orders", "12,20,28,36"],
        )
        assert status == 0
        rows = json.loads(out)["convergence"]
        errors = [row["closed_form_max_err"] for row in rows]
        assert [row["order"] for row in rows] == [12, 20, 28, 36]
        for earlier, later in zip(errors, errors[1:]):
            assert later <= earlier + 1e-13

    def test_convergence_csv_shape(self, capsys):
        status, out, _ = run_cli(
            capsys,
            ["solve", "--example", "4", "--format", "csv",
             "--convergence-orders", "12,20"],
        )
        assert status == 0
        lines = out.strip().splitlines()
        assert lines[0] == "order,edge,residual,closed_form_err"
        assert len(lines) == 1 + 2 * 4  # two orders, four edges

    def test_convergence_ladder_solves_each_order_once(self, capsys, monkeypatch):
        # the README ladder: the requested order 60 is also the top rung, and
        # its one report serves both
        import dtm2d.cli

        real = dtm2d.cli.solve_model
        orders = []

        def counting(bc, order, **kwargs):
            orders.append(order)
            return real(bc, order, **kwargs)

        monkeypatch.setattr(dtm2d.cli, "solve_model", counting)
        argv = ["solve", "--example", "3", "--convergence-orders", "24,36,48,60"]
        for fmt in ("csv", "json"):
            orders.clear()
            status, out, _ = run_cli(capsys, [*argv, "--format", fmt])
            assert (status, orders) == (0, [60, 24, 36, 48])
        payload = json.loads(out)
        assert payload["convergence"][-1] == {
            "order": 60,
            "edges": payload["edges"],
            "closed_form_max_err": payload["closed_form_max_err"],
            "passed": payload["checks"]["passed"],
        }

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        status, out, _ = run_cli(
            capsys,
            ["solve", "--example", "2", "--order", "36", "--format", "json",
             "--out", str(target)],
        )
        assert status == 0
        assert out == ""
        assert json.loads(target.read_text())["model"] == "example2"

    def test_unwritable_out(self, capsys, tmp_path):
        target = tmp_path / "missing-dir" / "report.json"
        status, _, err = run_cli(
            capsys, ["solve", "--example", "2", "--order", "8", "--out", str(target)]
        )
        assert status == 1
        assert "cannot write" in err


def _y0_config(tmp_path, trace, kind="dirichlet", **extra):
    """A custom config file: the y=0 trace given, Dirichlet unless ``kind``
    says otherwise, other edges zero Dirichlet; ``extra`` adds config keys."""
    zero = {"kind": "dirichlet", "trace": {"kind": "zero"}}
    bc = {"y=0": {"kind": kind, "trace": trace}, "y=pi": zero, "x=0": zero, "x=pi": zero}
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"model": "custom", "order": 10, "bc": bc, **extra}))
    return str(path)


_SIN_1E305 = {"kind": "sin", "arg_scale": 20, "amplitude": "1e305"}

# Random custom configs: a kind per edge, constants up to 1e300 in size,
# argument scales up to 60 (from 54 no working order resolves them).
_CONSTANTS = st.builds(lambda sign, digit, exponent: f"{sign}{digit}e{exponent}",
                       st.sampled_from(("", "-")), st.integers(1, 9), st.integers(-3, 299))
_SCALES = st.builds(lambda p, q: f"{p}/{q}", st.integers(0, 60), st.integers(1, 4))
_TERMS = st.one_of(
    st.fixed_dictionaries(
        {"kind": st.sampled_from(("sin", "cos", "sinh", "cosh", "exp", "zero"))},
        optional={"amplitude": _CONSTANTS, "arg_scale": _SCALES, "sym_amp": st.fixed_dictionaries(
            {"kind": st.sampled_from(TOKEN_KINDS), "arg_scale": _SCALES})},
    ),
    st.fixed_dictionaries({"kind": st.just("polynomial"),
                           "poly_coeffs": st.lists(_CONSTANTS, min_size=1, max_size=4)}),
)
_TRACES = st.one_of(_TERMS, st.lists(_TERMS, min_size=1, max_size=2).map(lambda t: {"terms": t}))
_BCS = st.fixed_dictionaries({edge: st.fixed_dictionaries(
    {"kind": st.sampled_from(("dirichlet", "neumann")), "trace": _TRACES}) for edge in EDGES})


class TestFailures:
    # Each row: the argv of `dtm solve`, or the _y0_config arguments of its
    # config file; the exit status; the stderr message after "error: ".
    @pytest.mark.parametrize("args, status, message", [
        (["--example", "1", "--order", "650"], 1,
         f"working order 650 is outside 0 to {MAX_WORKING_ORDER}"),
        (["--example", "1", "--order", "100000"], 1,
         f"working order 100000 is outside 0 to {MAX_WORKING_ORDER}"),
        ({"trace": {"kind": "sin", "arg_scale": 10**7}}, 1,
         f"argument scale 10000000 needs working order above {MAX_WORKING_ORDER} "),
        ({"trace": {"kind": "sin", "arg_scale": "1e300"}}, 1,
         f"argument scale {10**300} needs working order above {MAX_WORKING_ORDER} "),
        ({"trace": {"kind": "sin", "amplitude": "1e400"}}, 1,
         "y=0 trace has a constant beyond the float range"),
        ({"trace": {"kind": "sin", "arg_scale": "1e400"}}, 1,
         "y=0 trace has a constant beyond the float range"),
        ({"trace": _SIN_1E305}, 2, "closure condition on y=pi cannot be checked"),
        ({"trace": _SIN_1E305, "kind": "neumann"}, 2,
         "closure condition on y=pi cannot be checked"),
        ({"trace": {"kind": "sin"}}, 2, "closure condition on y=pi inconsistent"),
    ], ids=["order_650", "order_100000", "scale_1e7", "scale_1e300", "amplitude_1e400",
            "arg_scale_1e400", "seed_1e305_dirichlet", "seed_1e305_neumann",
            "inconsistent_closure"])
    def test_refusal_in_fresh_interpreter(self, tmp_path, args, status, message):
        # a fresh process under a timeout: a refusal that hangs fails its row
        if isinstance(args, dict):
            args = ["--config", _y0_config(tmp_path, **args)]
        code, out, err = run_limited("-m", "dtm2d.cli", "solve", *args, seconds=20)
        assert (code, out) == (status, ""), err
        assert err.startswith(f"error: {message}"), err
        assert "Traceback" not in err

    @settings(max_examples=200, deadline=None)
    @given(_BCS, st.integers(0, 36), st.sampled_from(("solve", "spectrum")),
           st.sampled_from(FORMATS))
    def test_random_config_ends_in_a_status(self, bc, order, command, output_format):
        # a report or one "error: " line, never a traceback or non-strict JSON
        def no_constant(token):
            raise ValueError(f"{token} is not JSON")

        out, err = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "model.json"
            path.write_text(json.dumps({"model": "custom", "order": order, "bc": bc}))
            with redirect_stdout(out), redirect_stderr(err):
                status = main([command, "--config", str(path), "--format", output_format])
        assert status in (0, 1, 2)
        if not out.getvalue():
            assert err.getvalue().startswith("error: "), err.getvalue()
        elif output_format == "json":
            json.loads(out.getvalue(), parse_constant=no_constant)

    def test_reference_past_float_range_exits_2(self, capsys, tmp_path):
        # strict JSON: a non-finite error is the string "nan", not the token
        # NaN, in the report and in each convergence row
        def no_constant(token):
            raise ValueError(f"{token} is not JSON")

        path = _y0_config(tmp_path, {"kind": "zero"}, order=36,
                          reference="sin(300x)*sinh(300y)")
        for ladder, errors in (([], []), (["--convergence-orders", "20,36"], ["nan", "nan"])):
            argv = ["solve", "--config", path, "--format", "json", *ladder]
            status, out, err = run_cli(capsys, argv)
            assert (status, err) == (2, "")
            payload = json.loads(out, parse_constant=no_constant)
            assert payload["closed_form_max_err"] == "nan"
            assert [row["closed_form_max_err"] for row in payload.get("convergence", [])] == errors
            assert payload["checks"]["passed"] is False

    def test_nan_error_fails_checks(self, capsys, monkeypatch):
        report = solve_example(1)
        assert _row(report)["passed"]
        nan_edge = dict(report.boundary_residuals, **{"y=pi": math.nan})
        nan_report = replace(report, boundary_residuals=nan_edge)
        assert not _row(nan_report)["passed"]
        assert not _row(replace(report, closed_form_error=math.nan))["passed"]
        # the NaN edge is the last of the sorted four; no summary may hide it
        assert _summary(_row(nan_report)).startswith("boundary nan")
        monkeypatch.setattr("dtm2d.cli._solve", lambda *args: nan_report)
        status, out, _ = run_cli(capsys, ["verify", "--format", "json"])
        assert status == 2
        assert {row["max_boundary_residual"] for row in json.loads(out)["models"]} == {"nan"}


class TestSpectrumCommand:
    def test_example3_csv_matches_formula(self, capsys):
        status, out, _ = run_cli(
            capsys, ["spectrum", "--example", "3", "--order", "8", "--format", "csv"]
        )
        assert status == 0
        lines = out.strip().splitlines()
        assert lines[0] == "m,n,coefficient"
        got = {}
        for line in lines[1:]:
            m, n, frac = line.split(",")
            got[(int(m), int(n))] = Fraction(frac)
        expected = dict(enumerate_spectrum(formula_example3, 8).entries)
        assert got == expected

    def test_json_spectrum(self, capsys):
        status, out, _ = run_cli(
            capsys, ["spectrum", "--example", "1", "--order", "4", "--format", "json"]
        )
        assert status == 0
        payload = json.loads(out)
        assert payload["order"] == 4
        assert [1, 0, "1/1"] in payload["entries"]

    def test_float_route_spectrum_refused(self, capsys, tmp_path):
        # u(x,0) = 0, u_y(x,pi) = x^2/3: U(0,1) = pi^2/3 reaches the spectrum
        # only through the float route, so it is not exact
        zero = {"kind": "neumann", "trace": {"kind": "zero"}}
        bc = {
            "y=0": {"kind": "dirichlet", "trace": {"kind": "zero"}},
            "y=pi": {"kind": "neumann",
                     "trace": {"kind": "polynomial", "poly_coeffs": ["0", "0", "1/3"]}},
            "x=0": zero,
            "x=pi": zero,
        }
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"model": "custom", "order": 12, "bc": bc}))
        for fmt in ("pretty", "csv", "json"):
            status, out, err = run_cli(
                capsys, ["spectrum", "--config", str(path), "--format", fmt]
            )
            assert status == 2
            assert out == ""
            assert err == (
                "error: spectrum of custom is not exact (float inference route); "
                "dtm solve --emit-spectrum reports it with its route\n"
            )
        status, out, _ = run_cli(
            capsys, ["solve", "--config", str(path), "--format", "json", "--emit-spectrum"]
        )
        payload = json.loads(out)
        assert payload["inference"]["method"] == "float"
        assert payload["spectrum"]["order"] == 12

    def test_solves_only_the_requested_order(self, capsys, tmp_path, monkeypatch):
        # convergence rows belong to the solve report; the spectrum command
        # must not solve rungs it never prints
        import dtm2d.cli

        real = dtm2d.cli.solve_model
        orders = []

        def counting(bc, order, **kwargs):
            orders.append(order)
            return real(bc, order, **kwargs)

        plain, with_rungs = tmp_path / "plain.json", tmp_path / "rungs.json"
        plain.write_text(json.dumps({"model": "example1", "order": 8}))
        with_rungs.write_text(json.dumps(
            {"model": "example1", "order": 8, "convergence_orders": [20, 40, 60]}
        ))
        monkeypatch.setattr(dtm2d.cli, "solve_model", counting)
        for fmt in ("pretty", "csv", "json"):
            expected = run_cli(capsys, ["spectrum", "--config", str(plain), "--format", fmt])
            orders.clear()
            got = run_cli(capsys, ["spectrum", "--config", str(with_rungs), "--format", fmt])
            assert orders == [8]
            assert got == expected and got[0] == 0


class TestConfigHandling:
    def test_defaults_from_example_flag(self):
        args = build_parser().parse_args(["solve", "--example", "2"])
        config = parse_config(args)
        assert config.model == model_catalog()["example2"]
        assert config.order == 36
        assert config.output_format == "pretty"
        assert config.grid == 21

    def test_example3_default_order(self):
        args = build_parser().parse_args(["solve", "--example", "3"])
        assert parse_config(args).order == 60

    def test_invalid_example_number(self, capsys):
        status, _, err = run_cli(capsys, ["solve", "--example", "5"])
        assert status == 1
        assert "1, 2, 3, 4" in err

    def test_custom_config_file(self, capsys, tmp_path):
        config = {
            "model": "custom",
            "order": 36,
            "format": "json",
            "reference": "sinh(x)*cos(y)",
            "bc": {
                "y=0": {"kind": "dirichlet", "trace": {"kind": "sinh"}},
                "y=pi": {"kind": "dirichlet",
                         "trace": {"kind": "sinh", "amplitude": "-1/1"}},
                "x=0": {"kind": "dirichlet", "trace": {"kind": "zero"}},
                "x=pi": {"kind": "dirichlet",
                         "trace": {"kind": "cos", "sym_amp": {"kind": "sinh"}}},
            },
        }
        path = tmp_path / "model.json"
        path.write_text(json.dumps(config))
        status, out, _ = run_cli(capsys, ["solve", "--config", str(path)])
        assert status == 0
        payload = json.loads(out)
        assert payload["model"] == "custom"
        assert payload["order"] == 36
        assert payload["closed_form_max_err"] < 1e-8

    def test_custom_config_with_token_traces(self, capsys, tmp_path):
        # u = cos(3x/2) sinh(3y/2): tokens and reference beyond the catalog
        token = {"kind": "sinh", "arg_scale": "3/2"}
        config = {
            "model": "custom",
            "order": 40,
            "format": "json",
            "reference": "cos(3/2x)*sinh(3/2y)",
            "bc": {
                "y=0": {"kind": "dirichlet", "trace": {"kind": "zero"}},
                "y=pi": {"kind": "dirichlet",
                         "trace": {"kind": "cos", "arg_scale": "3/2", "sym_amp": token}},
                "x=0": {"kind": "dirichlet", "trace": {"kind": "sinh", "arg_scale": "3/2"}},
                "x=pi": {"kind": "dirichlet",
                         "trace": {"kind": "sinh", "arg_scale": "3/2",
                                   "sym_amp": {"kind": "cos", "arg_scale": "3/2"}}},
            },
        }
        path = tmp_path / "model.json"
        path.write_text(json.dumps(config))
        status, out, _ = run_cli(capsys, ["solve", "--config", str(path)])
        assert status == 0
        payload = json.loads(out)
        assert payload["inference"]["method"] == "exact"
        assert payload["closed_form_max_err"] < 1e-8

    def test_custom_bad_reference(self, capsys, tmp_path):
        zero = {"kind": "dirichlet", "trace": {"kind": "zero"}}
        config = {"model": "custom", "reference": "tan(x)*cos(y)",
                  "bc": {edge: zero for edge in ("y=0", "y=pi", "x=0", "x=pi")}}
        path = tmp_path / "model.json"
        path.write_text(json.dumps(config))
        status, _, err = run_cli(capsys, ["solve", "--config", str(path)])
        assert status == 1
        assert "unknown reference" in err

    @pytest.mark.parametrize("name", LEGACY_TOKEN_NAMES)
    def test_legacy_token_name_is_a_config_error(self, capsys, tmp_path, name):
        zero = {"kind": "dirichlet", "trace": {"kind": "zero"}}
        bc = {edge: zero for edge in ("y=0", "y=pi", "x=0")}
        bc["x=pi"] = {"kind": "dirichlet", "trace": {"kind": "cos", "sym_amp": name}}
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"model": "custom", "order": 12, "bc": bc}))
        status, out, err = run_cli(capsys, ["solve", "--config", str(path)])
        assert (status, out) == (1, "")
        # the message shows the trace-object spelling of a token
        assert err.startswith("error: bc['x=pi']: ") and repr(name) in err
        assert '{"kind": "sinh", "arg_scale": "2"}' in err

    def test_unknown_config_key_is_an_error(self, capsys, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"model": "example1", "order": 8, "formt": "json"}))
        status, out, err = run_cli(capsys, ["solve", "--config", str(path)])
        assert (status, out, err) == (1, "", "error: unknown config key 'formt'\n")

    @pytest.mark.parametrize("key, value", [
        ("bc", {}), ("reference", "cos(x)*cosh(y)"), ("origin_value", "1"),
    ])
    def test_custom_only_key_on_a_catalog_model_is_an_error(self, capsys, tmp_path, key, value):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"model": "example1", key: value}))
        status, out, err = run_cli(capsys, ["solve", "--config", str(path)])
        assert (status, out) == (1, "")
        assert err.startswith("error: config key ") and repr(key) in err

    def test_incompatible_corner_exits_1(self, capsys, tmp_path):
        # u(x,pi) = 1 with zero data elsewhere: no continuous u meets it at (0,pi)
        zero = {"kind": "dirichlet", "trace": {"kind": "zero"}}
        bc = {edge: zero for edge in ("y=0", "x=0", "x=pi")}
        bc["y=pi"] = {"kind": "dirichlet", "trace": {"kind": "polynomial", "poly_coeffs": ["1"]}}
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"model": "custom", "order": 12, "bc": bc}))
        status, out, err = run_cli(capsys, ["solve", "--config", str(path)])
        assert status == 1
        assert out == ""
        assert "corner (0,pi)" in err

    def test_flags_override_file(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"model": "example1", "order": 8, "format": "json"}))
        args = build_parser().parse_args(
            ["solve", "--config", str(path), "--order", "12", "--format", "csv"]
        )
        config = parse_config(args)
        assert config.order == 12
        assert config.output_format == "csv"

    def test_custom_requires_bc(self, capsys, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"model": "custom", "order": 8}))
        status, _, err = run_cli(capsys, ["solve", "--config", str(path)])
        assert status == 1
        assert "bc" in err

    def test_custom_bad_trace_field(self, capsys, tmp_path):
        config = {
            "model": "custom",
            "bc": {
                "y=0": {"kind": "dirichlet", "trace": {"kind": "tan"}},
                "y=pi": {"kind": "dirichlet", "trace": {"kind": "zero"}},
                "x=0": {"kind": "dirichlet", "trace": {"kind": "zero"}},
                "x=pi": {"kind": "dirichlet", "trace": {"kind": "zero"}},
            },
        }
        path = tmp_path / "model.json"
        path.write_text(json.dumps(config))
        status, _, err = run_cli(capsys, ["solve", "--config", str(path)])
        assert status == 1
        assert "y=0" in err

    def test_missing_model(self, capsys):
        status, _, err = run_cli(capsys, ["solve"])
        assert status == 1
        assert "no model" in err

    def test_run_config_validation(self, capsys, monkeypatch):
        model = model_catalog()["example1"]
        with pytest.raises(ConfigError):
            RunConfig(model=model, order=8, output_format="yaml")
        with pytest.raises(ConfigError):
            RunConfig(model=model, order=8, convergence_orders=(12, 12))

        # a 1x1 grid is refused by the library's count rule, before inference
        def no_inference(*args):
            raise AssertionError("inference entered")

        monkeypatch.setattr("dtm2d.solver.infer_missing_seed", no_inference)
        status, out, err = run_cli(capsys, ["solve", "--example", "1", "--order", "8", "--grid", "1"])
        assert (status, out) == (1, "")
        assert "grid" in err

    def test_bad_grid_argument(self, capsys):
        status, _, err = run_cli(
            capsys, ["solve", "--example", "1", "--order", "8", "--grid", "21x22"]
        )
        assert status == 1
        assert "grid" in err

    @pytest.mark.parametrize("key, value, fragment", [
        ("order", "abc", "bad order 'abc'"),
        ("order", 12.7, "order must be an integer"),
        ("order", True, "order must be an integer"),
        ("grid", "7x5", "grid must be square"),
        ("grid", "seven", "bad grid size"),
        ("grid", [7, 7], "grid must be an integer"),
        ("convergence_orders", "4,x", "bad order list"),
        ("convergence_orders", [4, "x"], "bad order 'x'"),
        ("convergence_orders", [4, 6.5], "convergence_orders must be an integer"),
        ("convergence_orders", [4, None], "convergence_orders must be an integer"),
        ("convergence_orders", {"a": 4}, "convergence_orders must be an integer"),
        ("emit_spectrum", "no", "emit_spectrum must be true or false, got 'no'"),
        ("emit_spectrum", 1, "emit_spectrum must be true or false, got 1"),
        ("out", ["report.json"], "out must be an integer or a string"),
    ])
    def test_malformed_file_value_is_a_config_error(self, capsys, tmp_path, key, value, fragment):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"model": "example1", "order": 8, key: value}))
        status, out, err = run_cli(capsys, ["solve", "--config", str(path)])
        assert status == 1
        assert out == ""
        assert err.startswith("error: ") and fragment in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("key, value, flags", [
        ("order", "12", ["--order", "12"]),
        ("grid", "7x7", ["--grid", "7x7"]),
        ("grid", 7, ["--grid", "7"]),
        ("convergence_orders", 20, ["--convergence-orders", "20"]),
        ("convergence_orders", "6,10", ["--convergence-orders", "6,10"]),
        ("convergence_orders", [6, 10], ["--convergence-orders", "6,10"]),
        ("format", "csv", ["--format", "csv"]),
        ("emit_spectrum", True, ["--emit-spectrum"]),
    ])
    def test_file_value_parsed_as_its_flag(self, capsys, tmp_path, key, value, flags):
        base = {"model": "example1", "order": 8, "format": "json"}
        path = tmp_path / "model.json"
        path.write_text(json.dumps({**base, key: value}))
        from_file = run_cli(capsys, ["solve", "--config", str(path)])
        path.write_text(json.dumps(base))
        from_flags = run_cli(capsys, ["solve", "--config", str(path), *flags])
        assert from_file == from_flags
        assert from_file[0] in (0, 2) and from_file[2] == ""

    @pytest.mark.parametrize("edge_entry, fragment", [
        (None, "custom bc must be an object, got 5"),
        (5, "bc['y=0'] must be an object, got 5"),
        ({"kind": "dirichlet", "trace": 5}, "trace JSON must be an object, got 5"),
        ({"kind": "dirichlet", "trace": {"terms": 5}}, "'terms' must be a list, got 5"),
        ({"kind": "dirichlet", "trace": {"kind": "polynomial", "poly_coeffs": 5}},
         "'poly_coeffs' must be a list, got 5"),
    ], ids=["bc", "edge", "trace", "terms", "poly_coeffs"])
    def test_malformed_bc_is_a_config_error(self, capsys, tmp_path, edge_entry, fragment):
        zero = {"kind": "dirichlet", "trace": {"kind": "zero"}}
        bc = {edge: zero for edge in ("y=0", "y=pi", "x=0", "x=pi")}
        bc = 5 if edge_entry is None else {**bc, "y=0": edge_entry}
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"model": "custom", "order": 8, "bc": bc}))
        status, out, err = run_cli(capsys, ["solve", "--config", str(path)])
        assert status == 1
        assert out == ""
        assert err.startswith("error: ") and fragment in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("change, fragment", [
        (lambda bc: bc["y=0"]["trace"].update(amplitud="2"),
         "bc['y=0']: unknown trace key 'amplitud'"),
        (lambda bc: bc["y=0"].update(knd="neumann"), "bc['y=0']: unknown key 'knd'"),
        (lambda bc: bc.update({"z=0": bc["y=0"]}), "bc['z=0']: unknown edge"),
        (lambda bc: bc["x=pi"]["trace"]["sym_amp"].update(scale="2"),
         "bc['x=pi']: unknown trace key 'scale'"),
        (lambda bc: bc["x=0"].update(trace={"terms": [{"kind": "sin"}], "kind": "cos"}),
         "bc['x=0']: unknown trace key 'kind'; a sum takes terms"),
    ], ids=["trace", "edge", "extra_edge", "token", "sum"])
    def test_unknown_bc_key_is_a_config_error(self, capsys, tmp_path, change, fragment):
        # the README's custom config solves sinh x cos y; one misspelt or
        # extra key must fail the run, not be skipped
        readme = README.read_text(encoding="utf-8")
        config = json.loads(re.search(r"```json\n(.*?)```", readme, re.S).group(1))
        bc = config["bc"]
        path = tmp_path / "model.json"
        path.write_text(json.dumps(config))
        assert run_cli(capsys, ["solve", "--config", str(path)])[0] == 0
        change(bc)
        path.write_text(json.dumps(config))
        status, out, err = run_cli(capsys, ["solve", "--config", str(path)])
        assert (status, out) == (1, "")
        assert err.startswith("error: " + fragment), err

    def test_null_file_values_take_the_defaults(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(
            {"model": "example1", "order": None, "grid": None, "convergence_orders": None}
        ))
        config = parse_config(build_parser().parse_args(["solve", "--config", str(path)]))
        assert (config.order, config.grid, config.convergence_orders) == (36, 21, None)


class TestReportRows:
    """Every report shows the same per-order facts as a standalone solve."""

    def test_verify_rows_match_solve(self, capsys):
        _, out, _ = run_cli(capsys, ["verify", "--format", "json"])
        for row in json.loads(out)["models"]:
            example = row["model"].removeprefix("example")
            _, solved, _ = run_cli(capsys, ["solve", "--example", example, "--format", "json"])
            solved = json.loads(solved)
            assert row["order"] == solved["order"]
            assert row["closed_form_max_err"] == solved["closed_form_max_err"]
            assert row["passed"] == solved["checks"]["passed"]
            assert row["max_boundary_residual"] == max(solved["edges"].values())

    @pytest.mark.parametrize("example", ["1", "3"])
    def test_convergence_rows_match_solves(self, capsys, example):
        common = ["solve", "--example", example, "--format", "json", "--grid", "9"]
        _, out, _ = run_cli(capsys, [*common, "--convergence-orders", "4,12,24"])
        rows = json.loads(out)["convergence"]
        assert [row["order"] for row in rows] == [4, 12, 24]
        for row in rows:
            _, solved, _ = run_cli(capsys, [*common, "--order", str(row["order"])])
            solved = json.loads(solved)
            assert row == {
                "order": solved["order"],
                "edges": solved["edges"],
                "closed_form_max_err": solved["closed_form_max_err"],
                "passed": solved["checks"]["passed"],
            }


class TestVerifyCommand:
    def test_all_models_pass(self, capsys):
        status, out, _ = run_cli(capsys, ["verify"])
        assert status == 0
        for model in ("example1", "example2", "example3", "example4"):
            assert model in out
        assert "all models PASS" in out

    def test_json_format(self, capsys):
        status, out, _ = run_cli(capsys, ["verify", "--format", "json"])
        assert status == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        assert len(payload["models"]) == 4
        assert all(r["pde_residual"] == "exact-zero" for r in payload["models"])
