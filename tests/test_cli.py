"""CLI behavior: flags, config files, output formats, exit codes."""

import json
import math
from fractions import Fraction

import pytest

from dtm2d.cli import ConfigError, RunConfig, build_parser, main, parse_config

from conftest import enumerate_spectrum, formula_example3


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
        assert config.model == "example2"
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
                         "trace": {"kind": "cos", "sym_amp": "sinh_pi"}},
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

    def test_run_config_validation(self):
        with pytest.raises(ConfigError):
            RunConfig(model="example1", order=8, output_format="yaml")
        with pytest.raises(ConfigError):
            RunConfig(model="example1", order=8, convergence_orders=(12, 12))
        with pytest.raises(ConfigError):
            RunConfig(model="example1", order=8, grid=1)
        with pytest.raises(ConfigError):
            RunConfig(model="custom", order=8)

    def test_bad_grid_argument(self, capsys):
        status, _, err = run_cli(
            capsys, ["solve", "--example", "1", "--order", "8", "--grid", "21x22"]
        )
        assert status == 1
        assert "grid" in err


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
