import argparse
import json
import math
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

import unitransform as ut
from unitransform import cli, io_formats
from unitransform.cli import _COMMANDS, build_parser, main, parse_complex, parse_pi_float
from unitransform.cli import UsageError


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


class TestNumberParsing:
    def test_plain_decimals(self):
        assert parse_pi_float("2") == 2.0
        assert parse_pi_float("-0.25") == -0.25

    def test_pi_multiples(self):
        assert parse_pi_float("pi") == math.pi
        assert parse_pi_float("0.5pi") == 0.5 * math.pi
        assert parse_pi_float("-2pi") == -2.0 * math.pi
        assert parse_pi_float("-pi") == -math.pi

    def test_rejects_garbage(self):
        with pytest.raises(UsageError):
            parse_pi_float("two")

    def test_complex_literals(self):
        assert parse_complex("2+0i") == 2.0 + 0j
        assert parse_complex("1.5-2i") == 1.5 - 2j
        assert parse_complex("3") == 3.0 + 0j
        with pytest.raises(UsageError):
            parse_complex("1+?i")


class TestSeriesCommands:
    def test_series_sawtooth(self, capsys):
        doc = run_json(capsys, "series", "--expr", "x", "--L", "1", "--K", "3")
        assert doc["kind"] == "fourier-coefficients"
        entries = {k: complex(re, im) for k, re, im in doc["c"]}
        assert entries[1] == pytest.approx(1j / math.pi, abs=1e-10)
        assert doc["meta"]["request"]["command"] == "series"

    def test_real_series(self, capsys):
        doc = run_json(capsys, "real-series", "--expr", "x^2", "--L", "1", "--K", "2")
        a = {k: v for k, v in doc["a"]}
        assert a[0] == pytest.approx(2.0 / 3.0, abs=1e-10)

    def test_pi_valued_interval(self, capsys):
        doc = run_json(capsys, "series", "--expr", "sin(x)", "--L", "pi", "--K", "1")
        entries = {k: complex(re, im) for k, re, im in doc["c"]}
        assert entries[1] == pytest.approx(0.5j, abs=1e-10)

    def test_series_never_evaluates_f_at_the_ends(self, capsys):
        # log(1-x^2) is undefined at x = +-L; the coefficients integrate it on Gauss nodes
        # alone, as real-series does, so c_0 is a_0 / 2.
        expr = "(1-x^2)*log(1-x^2)"
        c = run_json(capsys, "series", "--expr", expr, "--L", "1", "--K", "2")["c"]
        a = run_json(capsys, "real-series", "--expr", expr, "--L", "1", "--K", "2")["a"]
        c0 = {k: complex(re, im) for k, re, im in c}[0]
        assert abs(c0 - dict(a)[0] / 2.0) <= 1e-10

    def test_requires_exactly_one_source(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "series", "--L", "1", "--K", "1")
        assert code == 1
        assert err.startswith("error: validation:")


class TestTransformPipelines:
    def test_lt_value(self, capsys):
        doc = run_json(capsys, "lt", "--expr", "1", "--s", "2+0i", "--X", "40")
        assert doc["kind"] == "value"
        assert doc["value"][0] == pytest.approx(0.5, abs=1e-10)
        assert "tail_estimate" in doc["meta"]

    def test_ft_then_ift(self, capsys, tmp_path):
        spectrum_path = str(tmp_path / "spec.json")
        code, _, err = run_cli(
            capsys,
            "ft", "--expr", "exp(-x^2/2)", "--A", "12",
            "--lambda-min", "-12", "--lambda-max", "12", "--lambda-step", "0.05",
            "--output", spectrum_path,
        )
        assert code == 0, err
        doc = run_json(
            capsys,
            "ift", "--input", spectrum_path,
            "--x-min", "-1", "--x-max", "1", "--x-step", "0.5",
        )
        values = {x: complex(re, im) for x, (re, im) in zip(doc["grid"], doc["values"])}
        assert values[0.0].real == pytest.approx(1.0, abs=1e-6)
        assert values[1.0].real == pytest.approx(math.exp(-0.5), abs=1e-6)

    def test_ift_of_a_spectrum_on_a_nonuniform_grid(self, capsys, tmp_path):
        # A spectrum file's grid is its points, uneven ones included: steps of 0.05 on
        # [-12, 0] and 0.1 on [0, 12].  The even real part of the trapezoid sum is exact to
        # rounding (TestInverse::test_nonuniform_grid_recovers_the_gaussian).
        lam = ut.Grid(np.concatenate((np.linspace(-12.0, 0.0, 241), np.linspace(0.1, 12.0, 120))))
        spectrum = ut.ContinuousSpectrum(lam, np.exp(-lam.points**2 / 2) / math.sqrt(2 * math.pi))
        path = tmp_path / "uneven.json"
        path.write_bytes(io_formats.to_json_bytes(io_formats.spectrum_payload(spectrum, {})))
        doc = run_json(capsys, "ift", "--input", str(path),
                       "--x-min", "-1", "--x-max", "1", "--x-step", "0.5")
        real = np.array([re for re, _ in doc["values"]])
        assert np.max(np.abs(real - np.exp(-np.array(doc["grid"]) ** 2 / 2))) <= 1e-13

    def test_lt_line_damps_growth_below_sigma(self, capsys):
        # The guards read |f| e^{-sigma t} = e^{-t/2}, not the growing |f|.
        doc = run_json(capsys, "lt", "--expr", "exp(0.5*x)", "--sigma", "1", "--X", "60",
                       "--tau-min", "-2", "--tau-max", "2", "--tau-step", "1")
        values = np.array([complex(re, im) for re, im in doc["values"]])
        exact = 1.0 / (0.5 + 1j * np.array(doc["tau_grid"]))
        assert np.max(np.abs(values - exact)) <= 1e-10

    def test_lt_line_then_ilt(self, capsys, tmp_path):
        line_path = str(tmp_path / "line.json")
        code, _, err = run_cli(
            capsys,
            "lt", "--expr", "x^3*exp(-x)/6", "--sigma", "0", "--X", "50",
            "--tau-min", "-60", "--tau-max", "60", "--tau-step", "0.05",
            "--output", line_path,
        )
        assert code == 0, err
        doc = run_json(capsys, "ilt", "--input", line_path, "--t", "2")
        expected = 8.0 * math.exp(-2.0) / 6.0
        assert doc["value"][0] == pytest.approx(expected, abs=1e-3)
        assert doc["meta"]["imag_residual"] <= 1e-6

    def test_ilt_truncation_escalates_to_exit_2(self, capsys, tmp_path):
        line_path = str(tmp_path / "line.json")
        code, _, err = run_cli(
            capsys,
            "lt", "--expr", "1", "--sigma", "1", "--X", "40",
            "--tau-min", "-30", "--tau-max", "30", "--tau-step", "0.05",
            "--output", line_path,
        )
        assert code == 0, err
        code, _, err = run_cli(capsys, "ilt", "--input", line_path, "--t", "1")
        assert code == 2
        assert err.startswith("error: numerical:")
        assert "\n" not in err.strip()

    def test_ilt_coarse_contour_exit_2(self, capsys, tmp_path):
        line_path = str(tmp_path / "line.json")
        code, _, err = run_cli(
            capsys,
            "lt", "--expr", "x^3*exp(-x)", "--sigma", "0.5", "--X", "40",
            "--tau-min", "-25", "--tau-max", "25", "--tau-step", "0.5",
            "--output", line_path,
        )
        assert code == 0, err
        code, out, err = run_cli(capsys, "ilt", "--input", line_path, "--t", "1")
        assert code == 2
        assert out == ""
        assert err.startswith("error: numerical: contour step 0.5 exceeds the bound")

    def test_flt_then_iflt(self, capsys, tmp_path):
        spec_path = str(tmp_path / "fl.json")
        code, _, err = run_cli(
            capsys,
            "flt", "--expr", "exp(-x^2/2)*exp(-t)", "--sigma", "1",
            "--A", "10", "--X", "30",
            "--lambda-min", "-2", "--lambda-max", "2", "--lambda-step", "1",
            "--tau-min", "-2", "--tau-max", "2", "--tau-step", "1",
            "--output", spec_path,
        )
        assert code == 0, err
        doc = json.load(open(spec_path))
        assert doc["convention"] == "fourier-laplace"
        # value at (lambda=0, tau=0): gaussian transform times 1/(s+1) at s=1
        expected = (1.0 / math.sqrt(2 * math.pi)) * 0.5
        assert doc["values"][2][2][0] == pytest.approx(expected, abs=1e-8)

    def test_flt_from_sampled_2d_file(self, capsys, tmp_path):
        from unitransform import Grid, SampledFunction2D
        from unitransform import io_formats as io

        xg = Grid.uniform(-8.0, 8.0, 161)
        tg = Grid.uniform(0.0, 25.0, 251)
        values = np.exp(-xg.points[:, None] ** 2 / 2.0) * np.exp(-tg.points[None, :]) + 0j
        fn = SampledFunction2D(xg, tg, values)
        path = tmp_path / "f2.json"
        path.write_bytes(io.to_json_bytes(io.function2d_payload(fn, {"request": {}})))
        doc = run_json(
            capsys,
            "flt", "--input", str(path), "--sigma", "1", "--A", "8", "--X", "25",
            "--lambda-min", "-1", "--lambda-max", "1", "--lambda-step", "1",
            "--tau-min", "-1", "--tau-max", "1", "--tau-step", "1",
        )
        expected = (1.0 / math.sqrt(2 * math.pi)) * 0.5
        assert doc["values"][1][1][0] == pytest.approx(expected, abs=1e-3)

    def test_function2d_with_one_point_axis_is_constant_along_it(self):
        from unitransform import Grid, SampledFunction2D
        from unitransform.cli import _interp_function2d

        xg = Grid.uniform(-1.0, 1.0, 5)
        values = np.array([[1.0 + 2j], [3.0], [4.0], [5.0 - 1j], [6.0]])
        f = _interp_function2d(SampledFunction2D(xg, Grid(np.array([0.5])), values))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = f(xg.points, np.full(5, 0.5))
            mid = f(np.array([-0.75, 0.25]), np.array([0.5, 0.5 + 1e-13]))
        np.testing.assert_array_equal(out, values[:, 0])
        np.testing.assert_allclose(mid, [2.0 + 1j, 4.5 - 0.5j], rtol=1e-15)

    @pytest.mark.parametrize("t_max, x_min, axis, cover", [
        ("10", "-8", "t", "t in [0, 10]"), ("25", "-4", "x", "x in [-4, 8]"),
    ])
    def test_flt_input_off_the_grid_names_the_axis(self, capsys, tmp_path, t_max, x_min,
                                                   axis, cover):
        from unitransform import Grid, SampledFunction2D
        from unitransform import io_formats as io

        xg = Grid.uniform(float(x_min), 8.0, 25)
        tg = Grid.uniform(0.0, float(t_max), 26)
        values = np.exp(-xg.points[:, None] ** 2 / 2.0) * np.exp(-tg.points[None, :]) + 0j
        path = tmp_path / "f2.json"
        path.write_bytes(io.to_json_bytes(io.function2d_payload(
            SampledFunction2D(xg, tg, values), {"request": {}})))
        code, out, err = run_cli(
            capsys,
            "flt", "--input", str(path), "--sigma", "1", "--A", "8", "--X", "25",
            "--lambda-min", "-1", "--lambda-max", "1", "--lambda-step", "1",
            "--tau-min", "-1", "--tau-max", "1", "--tau-step", "1",
        )
        assert (code, out) == (1, "")
        assert err.startswith(f"error: validation: input samples cover {cover} but "
                              f"evaluation needs {axis} in [")

    def test_series_input_off_the_grid(self, capsys, tmp_path):
        from unitransform import Grid, SampledFunction
        from unitransform import io_formats as io

        grid = Grid.uniform(-0.5, 0.5, 11)
        path = tmp_path / "f.json"
        path.write_bytes(io.to_json_bytes(io.function_payload(
            SampledFunction(grid, grid.points + 0j), {"request": {}})))
        code, out, err = run_cli(capsys, "series", "--input", str(path), "--L", "1", "--K", "1")
        assert (code, out) == (1, "")
        assert err.startswith("error: validation: input samples cover x in [-0.5, 0.5] but "
                              "evaluation needs x in [-")

    def test_estimate_abscissa_from_expr(self, capsys):
        doc = run_json(
            capsys,
            "estimate-abscissa", "--expr", "exp(2*x)",
            "--x-min", "0.1", "--x-max", "10", "--x-step", "0.1",
        )
        assert doc["sigma_hat"] == pytest.approx(2.0, abs=0.01)

    def test_non_fatal_warning_printed(self, capsys):
        # the sample at x = 1 is zero and is dropped from the fit
        argv = [
            "estimate-abscissa", "--expr", "abs(x-1)*exp(x)",
            "--x-min", "0.5", "--x-max", "10", "--x-step", "0.5",
        ]
        code, out, err = run_cli(capsys, *argv)
        assert code == 0
        assert err == (
            "warning: ExcludedSampleWarning: excluded 1 zero-magnitude samples from the fit\n"
        )
        assert json.loads(out)["check"] == "abscissa"

    def test_estimate_abscissa_from_file(self, capsys, tmp_path):
        from unitransform import Grid, SampledFunction
        from unitransform import io_formats as io

        grid = Grid.uniform(0.1, 10.0, 100)
        fn = SampledFunction(grid, 5.0 * np.ones(100) + 0j)
        path = tmp_path / "f.json"
        path.write_bytes(io.to_json_bytes(io.function_payload(fn, {"request": {}})))
        doc = run_json(capsys, "estimate-abscissa", "--input", str(path))
        assert abs(doc["sigma_hat"]) <= 1e-10
        assert doc["M_hat"] == pytest.approx(5.0, rel=1e-8)


class TestVerifyCommands:
    def test_orthogonality_report(self, capsys):
        doc = run_json(capsys, "verify-orthogonality", "--L", "1", "--K", "2")
        assert doc["check"] == "orthogonality"
        assert doc["passed"] is True
        assert doc["offdiagonal_max"] <= 1e-10

    def test_residual_report(self, capsys):
        doc = run_json(capsys, "verify-residual", "--lam", "0", "--lam", "2", "--n", "4", "--n", "8")
        assert doc["passed"] is True
        assert all(0.4 <= d <= 0.6 for d in doc["decay_factors"])

    @pytest.mark.parametrize("widths", [("4",), ("4", "3"), ("4", "8", "32")])
    def test_residual_widths_must_double(self, capsys, widths):
        code, out, err = run_cli(capsys, "verify-residual", "--lam", "1",
                                 *(a for n in widths for a in ("--n", n)))
        assert (code, out) == (1, "")
        assert err == ("error: validation: --n needs at least two widths, each twice the one "
                       f"before, got [{', '.join(widths)}]\n")


class TestErrorSurface:
    def test_unknown_command(self, capsys):
        code, _, err = run_cli(capsys, "mellin", "--L", "1")
        assert code == 1
        assert err.startswith("error: validation:")

    def test_deleted_verify_sl_is_unknown(self, capsys):
        code, out, err = run_cli(capsys, "verify-sl", "--L", "1", "--k-max", "2")
        assert (code, out) == (1, "")
        assert err.startswith("error: validation:") and err.count("\n") == 1

    def test_missing_parameter(self, capsys):
        code, _, err = run_cli(capsys, "series", "--expr", "x", "--K", "3")
        assert code == 1
        assert "--L" in err

    def test_unreadable_input_file(self, capsys):
        code, _, err = run_cli(
            capsys, "ift", "--input", "missing.json",
            "--x-min", "0", "--x-max", "1", "--x-step", "0.5",
        )
        assert code == 1
        assert err.startswith("error: validation:")

    @pytest.mark.parametrize("reader", [
        ("ilt", "--t", "1"),
        ("ift", "--x-min", "0", "--x-max", "1", "--x-step", "0.5"),
        ("iflt", "--x", "0", "--t", "1"),
    ])
    def test_csv_input_is_refused_as_output_only(self, capsys, tmp_path, reader):
        line_path = str(tmp_path / "line.csv")
        code, _, err = run_cli(
            capsys,
            "lt", "--expr", "x*exp(-2*x)", "--sigma", "0.5", "--X", "40",
            "--tau-min", "-20", "--tau-max", "20", "--tau-step", "0.05",
            "--format", "csv", "--output", line_path,
        )
        assert code == 0, err
        code, out, err = run_cli(capsys, reader[0], "--input", line_path, *reader[1:])
        assert code == 1
        assert out == ""
        assert err == (
            f"error: validation: cannot read {line_path}: CSV is an output-only format; "
            "write the file with --format json\n"
        )

    def test_spectrum_cut_before_it_decays_exit_2(self, capsys, tmp_path):
        # |F| at lambda = +-1 is e^-0.5 of its peak: summed as it stands, ift read 0.6826,
        # 0.5877 and 0.3534 where f is 1, 0.6065 and 0.1353.
        path = str(tmp_path / "ft.json")
        code, _, err = run_cli(capsys, "ft", "--expr", "exp(-x^2/2)", "--A", "12",
                               "--lambda-min", "-1", "--lambda-max", "1", "--lambda-step", "0.05",
                               "--output", path)
        assert code == 0, err
        code, out, err = run_cli(capsys, "ift", "--input", path,
                                 "--x-min", "0", "--x-max", "2", "--x-step", "1")
        assert (code, out) == (2, "")
        assert err == ("error: numerical: spectrum at the endpoints is 6.07e-01 of its peak; "
                       "raise the largest |lambda| of the spectrum grid for full accuracy\n")

    def test_expression_error_positioned(self, capsys):
        code, _, err = run_cli(capsys, "series", "--expr", "foo(x)", "--L", "1", "--K", "0")
        assert code == 1
        assert "offset 0" in err

    def test_numerical_divergence_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "lt", "--expr", "exp(3*x)", "--s", "2+0i", "--X", "40")
        assert code == 2
        assert err.startswith("error: numerical:")

    @pytest.mark.parametrize("argv", [
        ("ft", "--expr", "x^-1*exp(-x^2)", "--A", "6",
         "--lambda-min", "-0.5", "--lambda-max", "0.5", "--lambda-step", "0.5"),
        ("ft", "--expr", "x^-1*exp(-x)+1", "--A", "6",
         "--lambda-min", "-4", "--lambda-max", "4", "--lambda-step", "0.5"),
        ("series", "--expr", "x^(-2)", "--L", "1", "--K", "1"),
    ], ids=["ft-pole", "ft-pole-no-decay", "series-double-pole"])
    def test_non_integrable_integrand_exit_2(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: numerical:") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ("lt", "--expr", "exp(-x)", "--s", "1+1e308i", "--X", "40"),
        ("lt", "--expr", "exp(-x)", "--s", "1+1e12i", "--X", "40"),
        ("ft", "--expr", "exp(-x^2)", "--A", "1e12",
         "--lambda-min", "-1", "--lambda-max", "1", "--lambda-step", "0.5"),
        ("ft", "--expr", "exp(-x^2)", "--A", "1e300",
         "--lambda-min", "-1", "--lambda-max", "1", "--lambda-step", "0.5"),
    ], ids=["lt-overflow", "lt-1e12", "ft-1e12", "ft-1e300"])
    def test_rule_over_the_panel_budget_exit_2(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: numerical: the rule needs ") and err.count("\n") == 1
        assert "over the budget of 200000 panels" in err

    @pytest.mark.parametrize("argv", [
        ("lt", "--expr", "1", "--s", "1+250i", "--X", "40"),
        ("lt", "--expr", "exp(-x)", "--sigma", "1", "--X", "40",
         "--tau-min", "-250", "--tau-max", "250", "--tau-step", "250"),
        ("flt", "--expr", "exp(-x^2-t)", "--sigma", "1", "--A", "5", "--X", "40",
         "--lambda-min", "-1", "--lambda-max", "1", "--lambda-step", "1",
         "--tau-min", "-250", "--tau-max", "250", "--tau-step", "250"),
    ], ids=["lt", "lt-sigma", "flt"])
    def test_rule_over_the_node_budget_exit_2(self, capsys, argv):
        # 2,388 panels are within the panel budget; at order 1000 they are 2.4e6 nodes, over
        # the node budget, refused before any is built (s = 1+20000i, 1.9e8 nodes, would ask
        # numpy for gigabytes; the rule here is only just over, so a lost check fails safely).
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv, "--quad-order", "1000")
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        assert err == ("error: numerical: the rule needs 2388 panels of order 1000, "
                       "2.388e+06 nodes, over the budget of 2000000 nodes; lower the quadrature "
                       "order or the largest frequency, or shorten the interval\n")

    def test_default_order_within_the_node_budget(self, capsys):
        # s = 1+20000i needs 190,986 panels: 1.9e8 nodes at order 1000, refused as above, and
        # 1,909,860 at the default order 10, within the budget, so it still answers.
        value = run_json(capsys, "lt", "--expr", "1", "--s", "1+20000i", "--X", "40")["value"]
        assert complex(*value) == pytest.approx(1 / (1 + 20000j), abs=1e-10)

    def test_series_over_the_panel_budget_exit_2(self, capsys, monkeypatch):
        # K = 100 needs 150 panels for its k = -100 coefficient; the budget is lowered so that
        # a regression fails quickly instead of building a rule of 1.5e8 panels for K = 1e8.
        monkeypatch.setattr("unitransform.numerics._MAX_SPLITS", 100)
        code, out, err = run_cli(capsys, "series", "--expr", "x", "--L", "1", "--K", "100")
        assert (code, out) == (2, "")
        assert err == ("error: numerical: coefficient k=-100: the rule needs 150 panels, over the "
                       "budget of 100 panels; lower the largest frequency or shorten the "
                       "interval\n")

    def test_half_line_tail_over_tolerance_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "lt", "--expr", "exp(-0.1*x)", "--s", "1", "--X", "10")
        assert (code, out) == (2, "")
        assert err == ("error: numerical: half-line tail estimate 1.518e-05 beyond X=10 exceeds "
                       "tolerance 1.000e-10; raise X for full accuracy\n")
        doc = run_json(capsys, "lt", "--expr", "exp(-0.1*x)", "--s", "1", "--X", "40")
        assert doc["value"][0] == pytest.approx(1.0 / 1.1, rel=1e-12)

    @pytest.mark.parametrize("command, index", [("series", "coefficient k=-1"),
                                                ("real-series", "coefficient a_0")])
    def test_series_failure_names_the_index(self, capsys, command, index):
        code, out, err = run_cli(capsys, command, "--expr", "abs(x)^(-1/2)", "--L", "1", "--K", "1")
        assert (code, out) == (2, "")
        assert err.startswith(f"error: numerical: {index}: adaptive quadrature")

    def test_ft_without_decay_at_truncation_exit_2(self, capsys):
        code, out, err = run_cli(
            capsys, "ft", "--expr", "1", "--A", "5",
            "--lambda-min", "-1", "--lambda-max", "1", "--lambda-step", "0.5",
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: numerical: integrand f at the endpoints is 1.00e+00 of its peak")

    def test_flt_without_decay_in_x_exit_2(self, capsys):
        code, out, err = run_cli(
            capsys, "flt", "--expr", "exp(-x^2/200)*exp(-t)", "--sigma", "0.5", "--A", "2",
            "--X", "40", "--lambda-min", "-1", "--lambda-max", "1", "--lambda-step", "1",
            "--tau-min", "-1", "--tau-max", "1", "--tau-step", "1",
        )
        assert (code, out) == (2, "")
        assert err == ("error: numerical: x axis: integrand f at the endpoints is 9.81e-01 of "
                       "its peak; raise the truncation A for full accuracy\n")

    LAMBDA = ("--lambda-min", "-1", "--lambda-max", "1", "--lambda-step", "0.5")

    @pytest.mark.parametrize("argv, code, message", [
        (("ft", "--expr", "exp(-x^2)", "--A", "6", "--lambda-min", "-1", "--lambda-max", "1"),
         1, "validation: missing --lambda-step"),
        (("ft", "--expr", "exp(-x^2)", "--A", "6",
          "--lambda-min", "1", "--lambda-max", "-1", "--lambda-step", "0.5"),
         1, "validation: --lambda-max must exceed --lambda-min"),
        (("series", "--expr", "x*t", "--L", "1", "--K", "1"),
         1, "validation: this command takes a function of x only; expression uses t"),
        (("ilt", "--input", "ft.json", "--t", "1"),
         1, "validation: ilt needs a spectrum with convention laplace-line"),
        (("lt", "--expr", "exp(-x)", "--X", "40"),
         1, "validation: lt needs --s, or --sigma with --tau-min/--tau-max/--tau-step"),
        (("flt", "--expr", "exp(-x^2-t)", "--A", "6", "--X", "40", *LAMBDA,
          "--tau-min", "-1", "--tau-max", "1", "--tau-step", "1"),
         1, "validation: flt needs --sigma"),
        (("verify-orthogonality", "--L", "1", "--K", "1"),
         2, "numerical: verification check failed; see the report output"),
    ], ids=["ft-no-lambda-step", "ft-lambda-max-below-min", "series-uses-t", "ilt-of-ft",
            "lt-no-s-no-sigma", "flt-no-sigma", "verify-orthogonality-failed"])
    def test_refusal_from_argv(self, capsys, monkeypatch, tmp_path, argv, code, message):
        # ft.json is an FT spectrum for ilt to refuse.  No real Gram matrix fails its check,
        # so the tolerance is set to 0, which its rounding-level off-diagonal exceeds.
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli, "GRAM_OFFDIAG_TOL", 0.0)
        ft = ("ft", "--expr", "exp(-x^2)", "--A", "6", *self.LAMBDA, "--output", "ft.json")
        assert run_cli(capsys, *ft)[0] == 0
        got, out, err = run_cli(capsys, *argv)
        assert (got, err) == (code, f"error: {message}\n")
        if code == 1:
            assert out == ""
        else:
            report = json.loads(out)
            assert report["check"] == "orthogonality" and report["passed"] is False
            assert report["tolerance"] == 0 and report["offdiagonal_max"] > 0

    def test_aliasing_exit_2(self, capsys, tmp_path):
        spectrum_path = str(tmp_path / "coarse.json")
        code, _, err = run_cli(
            capsys,
            "ft", "--expr", "exp(-x^2/2)", "--A", "6",
            "--lambda-min", "-6", "--lambda-max", "6", "--lambda-step", "1",
            "--output", spectrum_path,
        )
        assert code == 0, err
        code, _, err = run_cli(
            capsys,
            "ift", "--input", spectrum_path,
            "--x-min", "-3", "--x-max", "3", "--x-step", "0.5",
        )
        assert code == 2
        assert err.startswith("error: numerical:")


class TestDeterminismAndEnv:
    def test_roundtrip_byte_identical(self, tmp_path):
        args = [
            "roundtrip", "--expr", "exp(-x^2/2)", "--A", "12",
            "--lambda-min", "-12", "--lambda-max", "12", "--lambda-step", "0.05",
            "--x-min", "-3", "--x-max", "3", "--x-step", "0.25",
        ]
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        assert main(args + ["--output", str(out_a)]) == 0
        assert main(args + ["--output", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        doc = json.loads(out_a.read_text())
        assert doc["sup_error"] <= 1e-6

    def test_csv_output(self, capsys):
        code, out, err = run_cli(
            capsys, "series", "--expr", "x", "--L", "1", "--K", "1", "--format", "csv"
        )
        assert code == 0, err
        lines = out.strip().split("\n")
        assert lines[0] == "k,re,im"
        assert len(lines) == 4

    @pytest.mark.parametrize("argv, message", [
        (("--s", "1+1e308i", "--X", "40"), "the rule needs inf panels"),
        (("--s", "1", "--X", "10"), "half-line tail estimate 1.518e-05"),
        (("--sigma", "0", "--X", "10", "--tau-min", "-1", "--tau-max", "1", "--tau-step", "1"),
         "half-line tail estimate 3.679e+00 beyond X=10"),
    ], ids=["panel-budget", "half-line-tail", "line-tail"])
    def test_entry_point_numerical_error_is_one_line(self, argv, message):
        result = subprocess.run(
            [sys.executable, "-m", "unitransform", "lt", "--expr", "exp(-0.1*x)", *argv],
            capture_output=True, text=True,
        )
        assert (result.returncode, result.stdout) == (2, "")
        assert result.stderr.startswith(f"error: numerical: {message}")
        assert result.stderr.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ("lt", "--expr", "exp(-30*x)", "--sigma", "-20", "--X", "40",
         "--tau-min", "-1", "--tau-max", "1", "--tau-step", "1"),
        ("flt", "--expr", "exp(-x^2/2)*exp(-30*t)", "--sigma", "-20", "--A", "8", "--X", "40",
         "--lambda-min", "-1", "--lambda-max", "1", "--lambda-step", "1",
         "--tau-min", "-1", "--tau-max", "1", "--tau-step", "1"),
        ("lt", "--expr", "exp(-30*x)", "--s", "-20", "--X", "40"),
    ], ids=["lt-line", "flt", "lt-point"])
    def test_damping_outside_float_range_is_one_line(self, argv):
        # e^{-sigma X} = e^{800} is refused before it is formed, with no RuntimeWarning.
        result = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "unitransform", *argv],
            capture_output=True, text=True,
        )
        assert (result.returncode, result.stdout) == (2, "")
        assert result.stderr == ("error: numerical: e^(-sigma*X) at sigma=-20, X=40 overflows a "
                                 "float: exponent 800 > 709.78\n")

    def test_entry_point_subprocess(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "unitransform", "lt", "--expr", "1", "--s", "2+0i", "--X", "40"],
            capture_output=True,
        )
        assert result.returncode == 0
        doc = json.loads(result.stdout)
        assert doc["value"][0] == pytest.approx(0.5, abs=1e-10)


class TestCommandTable:
    QUAD = {"--quad-order", "--quad-tol"}
    FIXED_RULE = {
        "lt": ["lt", "--expr", "x*exp(-x)", "--sigma", "0.5", "--X", "40",
               "--tau-min", "-1", "--tau-max", "1", "--tau-step", "0.5"],
        "flt": ["flt", "--expr", "exp(-x^2/2)*exp(-t)", "--sigma", "0.5", "--A", "12",
                "--X", "40", "--lambda-min", "-1", "--lambda-max", "1", "--lambda-step", "0.5",
                "--tau-min", "-1", "--tau-max", "1", "--tau-step", "0.5"],
    }

    def _subparsers(self):
        parser = build_parser()
        action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        return action.choices

    def test_each_parser_accepts_exactly_the_declared_flags(self):
        subparsers = self._subparsers()
        assert set(subparsers) == set(_COMMANDS)
        for name, command in _COMMANDS.items():
            declared = {"--output"} | {f"--{f}" for f in (*command.source, *command.flags)}
            if command.quad:
                declared |= self.QUAD
            if command.csv:
                declared.add("--format")
            accepted = {
                opt for a in subparsers[name]._actions for opt in a.option_strings
            } - {"-h", "--help"}
            assert accepted == declared, name

    def test_flag_homes(self):
        subparsers = self._subparsers()

        def having(flag):
            return {
                name for name, sub in subparsers.items()
                if any(flag in a.option_strings for a in sub._actions)
            }

        assert having("--quad-tol") == {
            "series", "real-series", "ft", "lt", "flt",
            "verify-orthogonality", "verify-residual", "roundtrip",
        }
        assert having("--format") == {"series", "real-series", "ft", "ift", "lt", "ilt", "iflt"}
        assert having("--expr") == {
            "series", "real-series", "ft", "lt", "flt", "estimate-abscissa", "roundtrip",
        }
        assert having("--input") == {
            "series", "real-series", "ft", "ift", "lt", "ilt", "flt", "iflt", "estimate-abscissa",
        }

    @pytest.fixture
    def stored(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        for argv in (
            ["lt", "--expr", "x*exp(-x)", "--sigma", "0.5", "--X", "40",
             "--tau-min", "-1", "--tau-max", "1", "--tau-step", "0.05", "--output", "line.json"],
            # lambda on [-6, 6]: |F| has decayed to e^-18 of its peak at the ends, so ift reads it.
            ["ft", "--expr", "exp(-x^2/2)", "--A", "12", "--lambda-min", "-6",
             "--lambda-max", "6", "--lambda-step", "0.25", "--output", "spectrum.json"],
            ["ift", "--input", "spectrum.json", "--x-min", "-2", "--x-max", "2",
             "--x-step", "0.1", "--output", "f.json"],
        ):
            assert main(argv) == 0

    @pytest.mark.parametrize(
        "argv",
        [
            ["ilt", "--input", "line.json", "--t", "1", "--quad-tol", "5"],
            ["ift", "--input", "spectrum.json", "--expr", "x",
             "--x-min", "0", "--x-max", "1", "--x-step", "0.5"],
            ["verify-residual", "--format", "csv"],
            ["roundtrip", "--expr", "exp(-x^2/2)", "--input", "f.json", "--A", "12",
             "--lambda-min", "-1", "--lambda-max", "1", "--lambda-step", "0.5",
             "--x-min", "0", "--x-max", "1", "--x-step", "0.5"],
            ["lt", "--expr", "1", "--s", "2+0i", "--X", "40", "--tau-max", "5"],
            ["estimate-abscissa", "--input", "f.json", "--x-step", "1"],
            ["lt", "--expr", "1", "--s", "2+0i", "--X", "40", "--quad-method", "gauss-legendre"],
            [*FIXED_RULE["flt"], "--quad-method", "adaptive"],
        ],
        ids=["ilt-quad-tol", "ift-expr", "verify-residual-format", "roundtrip-input",
             "lt-s-tau-max", "abscissa-input-x-step", "lt-s-quad-method", "flt-quad-method"],
    )
    def test_flag_that_would_not_be_read_is_rejected(self, capsys, stored, argv):
        capsys.readouterr()
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error: validation:")
        assert err.count("\n") == 1

    def test_stored_spectrum_reader_echoes_no_quadrature(self, capsys, stored):
        capsys.readouterr()
        doc = run_json(
            capsys, "ift", "--input", "spectrum.json", "--x-min", "-1", "--x-max", "1",
            "--x-step", "0.5",
        )
        assert doc["meta"]["request"] == {
            "command": "ift", "input": "spectrum.json", "x-min": -1.0, "x-max": 1.0, "x-step": 0.5,
        }

    def test_verify_residual_echoes_given_flags(self, capsys):
        doc = run_json(capsys, "verify-residual", "--lam", "0", "--n", "4", "--n", "8")
        request = doc["meta"]["request"]
        assert request["lam"] == [0.0]
        assert request["n"] == [4, 8]
        assert list(request)[-3:] == ["quad_method", "quad_order", "quad_tol"]

    @pytest.mark.parametrize("command", ["lt", "flt"])
    @pytest.mark.parametrize("flag", [["--quad-tol", "1e-8"]], ids=["tol"])
    def test_fixed_rule_rejects_unread_quad_flags(self, capsys, command, flag):
        code, out, err = run_cli(capsys, *self.FIXED_RULE[command], *flag)
        assert code == 1
        assert out == ""
        assert err == f"error: validation: {command} uses a fixed Gauss rule; give only --quad-order\n"

    @pytest.mark.parametrize("command", ["lt", "flt"])
    def test_fixed_rule_echoes_only_quad_order(self, capsys, command):
        doc = run_json(capsys, *self.FIXED_RULE[command], "--quad-order", "12")
        request = doc["meta"]["request"]
        assert list(request)[-1] == "quad_order"
        assert request["quad_order"] == 12
        assert "quad_method" not in request and "quad_tol" not in request

    def test_non_finite_time_is_a_validation_error(self, capsys, stored):
        capsys.readouterr()
        code, out, err = run_cli(capsys, "ilt", "--input", "line.json", "--t", "inf")
        assert code == 1
        assert out == ""
        assert err.startswith("error: validation: evaluation time t must be finite")

    def test_too_few_samples_is_a_validation_error(self, capsys):
        code, out, err = run_cli(
            capsys, "estimate-abscissa", "--expr", "exp(x)",
            "--x-min", "0.5", "--x-max", "2", "--x-step", "0.5",
        )
        assert code == 1
        assert out == ""
        assert err == (
            "error: validation: abscissa estimation needs at least 8 usable samples, got 4\n"
        )


class TestRealSeriesOfInverseTransform:
    def test_ft_ift_real_series_chain(self, capsys, tmp_path):
        """ift output carries rounding-level imaginary parts; real-series must accept it."""
        spectrum_path, function_path = str(tmp_path / "spec.json"), str(tmp_path / "f.json")
        for argv in (
            ("ft", "--expr", "exp(-x^2/2)", "--A", "12", "--lambda-min", "-12",
             "--lambda-max", "12", "--lambda-step", "0.05", "--output", spectrum_path),
            ("ift", "--input", spectrum_path, "--x-min", "-3", "--x-max", "3",
             "--x-step", "0.05", "--output", function_path),
        ):
            code, _, err = run_cli(capsys, *argv)
            assert code == 0, err
        imag = [im for _, im in json.loads(open(function_path).read())["values"]]
        assert 0 < max(map(abs, imag)) < 1e-12
        doc = run_json(capsys, "real-series", "--input", function_path, "--L", "3", "--K", "4")
        series = run_json(capsys, "series", "--input", function_path, "--L", "3", "--K", "4")
        c = {k: complex(re, im) for k, re, im in series["c"]}
        a = dict((k, v) for k, v in doc["a"])
        assert a[0] == pytest.approx((2.0 * c[0]).real, abs=1e-10)
        assert a[1] == pytest.approx((c[1] + c[-1]).real, abs=1e-10)
