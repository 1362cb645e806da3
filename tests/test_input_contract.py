"""The input contract: every problem-defining scalar and every array of sampled
values is checked where it enters, by ``numerics._scalar`` and
``numerics._sampled``, and a bad one is a ContractViolationError (CLI exit 1)."""

import json
import math

import numpy as np
import pytest

from unitransform import (
    ContinuousSpectrum,
    ContractViolationError,
    EigenProblemSpec,
    Eigenvalue,
    FourierCoefficientSet,
    FourierLaplaceSpectrum,
    Grid,
    LaplaceSpectrum,
    QuadratureSpec,
    RealFourierCoefficientSet,
    SampledFunction,
    SampledFunction2D,
    WindowedTestSequence,
    bromwich_inverse,
    bromwich_inverse_from_samples,
    complex_coefficients,
    dirichlet_delta,
    discrete_eigenvalues,
    eigenfunction_eval,
    forward_fl,
    forward_ft,
    forward_laplace,
    gram_matrix,
    integrate,
    inverse_ft,
    laplace_line,
    real_coefficients,
    residual_ratio,
    synthesize,
    weighted_orthogonality_check,
)
from unitransform import cli
from unitransform.cli import main
from unitransform.io_formats import load_spectrum, spectrum_payload, to_json_bytes
from unitransform.numerics import _sampled, _scalar

INF, NAN = math.inf, math.nan
H = 10**400  # an int beyond float range: complex(H) overflows
RAGGED = [[1.0], [2.0, 3.0]]
TAU = Grid.uniform(-1.0, 1.0, 5)
LAM = Grid.uniform(-1.0, 1.0, 3)


def f(x):
    return np.exp(-np.asarray(x, float)) + 0j


def f2(x, t):
    return np.exp(-np.asarray(x, float) ** 2 - np.asarray(t, float)) + 0j


def fhat(s):
    return 1.0 / (s + 1.0) ** 2


def with_nan(shape):
    values = np.ones(shape, dtype=complex)
    values.flat[-1] = NAN
    return values


REJECTED = {
    # a non-finite truncation
    "laplace_line X": lambda: laplace_line(f, 0.5, TAU, INF),
    "bromwich_inverse T": lambda: bromwich_inverse(fhat, 0.5, INF, 1.0),
    "forward_laplace X": lambda: forward_laplace(f, 1.0, INF),
    "forward_fl A": lambda: forward_fl(f2, LAM, 0.5, TAU, (INF, 40.0)),
    "weighted_orthogonality_check A": lambda: weighted_orthogonality_check(1.0, 2.0, 0.5, INF),
    "dirichlet_delta A": lambda: dirichlet_delta(1.0, INF),
    # a product of finite inputs beyond float range
    "dirichlet_delta a * A": lambda: dirichlet_delta(1e200, 1e200),
    "weighted_orthogonality_check A * (lam - mu)":
        lambda: weighted_orthogonality_check(1e200, -1e200, 0.0, 1e200),
    # L = inf
    "complex_coefficients L": lambda: complex_coefficients(f, INF, 2),
    "real_coefficients L": lambda: real_coefficients(f, INF, 2),
    "gram_matrix L": lambda: gram_matrix(INF, 2),
    # a NaN sigma
    "laplace_line sigma": lambda: laplace_line(f, NAN, TAU, 40.0),
    "bromwich_inverse sigma": lambda: bromwich_inverse(fhat, NAN, 10.0, 1.0),
    "LaplaceSpectrum sigma": lambda: LaplaceSpectrum(NAN, TAU, np.ones(5)),
    "FourierLaplaceSpectrum sigma": lambda: FourierLaplaceSpectrum(LAM, NAN, TAU, np.ones((3, 5))),
    # a NaN s
    "forward_laplace s": lambda: forward_laplace(f, complex(NAN, 0.0), 40.0),
    "QuadratureSpec tolerance": lambda: QuadratureSpec(tolerance=INF),
    # a NaN sample
    "SampledFunction values": lambda: SampledFunction(TAU, with_nan(5)),
    "SampledFunction2D values": lambda: SampledFunction2D(LAM, TAU, with_nan((3, 5))),
    "ContinuousSpectrum values": lambda: ContinuousSpectrum(TAU, with_nan(5)),
    "LaplaceSpectrum values": lambda: LaplaceSpectrum(0.5, TAU, with_nan(5)),
    "FourierLaplaceSpectrum values":
        lambda: FourierLaplaceSpectrum(LAM, 0.5, TAU, with_nan((3, 5))),
}


@pytest.mark.parametrize("call", REJECTED.values(), ids=REJECTED.keys())
def test_non_finite_input_is_a_contract_violation(call):
    with pytest.raises(ContractViolationError, match="must be finite"):
        call()


@pytest.mark.parametrize(
    "order, message",
    [(NAN, "a non-negative integer, got nan"), (2.5, "a non-negative integer, got 2.5"),
     (None, "a non-negative integer, got None"), (1001, ">= 2 and <= 1000, got 1001")],
    ids=["nan", "2.5", "None", "1001"],
)
def test_quadrature_order(order, message):
    with pytest.raises(ContractViolationError) as info:
        QuadratureSpec(order=order)
    assert str(info.value) == f"quadrature order must be {message}"


NOT_A_NUMBER = {
    # a boolean is not a number, though Python counts it as an int
    "complex_coefficients L=True": (lambda: complex_coefficients(f, True, 2),
                                    "L must be finite and > 0, got True"),
    "WindowedTestSequence n=nan": (lambda: WindowedTestSequence(lam=0.0, n=NAN),
                                   "window-width index n must be an integer >= 1, got nan"),
    "WindowedTestSequence n=2.5": (lambda: WindowedTestSequence(lam=0.0, n=2.5),
                                   "window-width index n must be an integer >= 1, got 2.5"),
    "WindowedTestSequence n=inf": (lambda: WindowedTestSequence(lam=0.0, n=INF),
                                   "window-width index n must be an integer >= 1, got inf"),
    "WindowedTestSequence n=None": (lambda: WindowedTestSequence(lam=0.0, n=None),
                                    "window-width index n must be an integer >= 1, got None"),
    "integrate panels=2.5": (lambda: integrate(f, (0.0, 1.0), panels=2.5),
                             "panel count must be an integer >= 1, got 2.5"),
    "integrate panels=nan": (lambda: integrate(f, (0.0, 1.0), panels=NAN),
                             "panel count must be an integer >= 1, got nan"),
    "FourierCoefficientSet c_0=nan": (lambda: FourierCoefficientSet(1.0, {0: NAN}),
                                      "coefficient with k=0 must be a finite number, got nan"),
    "FourierCoefficientSet c_1='a'": (lambda: FourierCoefficientSet(1.0, {-1: 1j, 0: 1, 1: "a"}),
                                      "coefficient with k=1 must be a finite number, got a"),
    "FourierCoefficientSet c_0=True": (lambda: FourierCoefficientSet(1.0, {0: True}),
                                       "coefficient with k=0 must be a finite number, got True"),
    "FourierCoefficientSet c_0=None": (lambda: FourierCoefficientSet(1.0, {0: None}),
                                       "coefficient with k=0 must be a finite number, got None"),
    "FourierCoefficientSet c_0=inf first": (
        lambda: FourierCoefficientSet(1.0, {-1: 1j, 0: complex(0, INF), 1: "a"}),
        "coefficient with k=0 must be a finite number, got infj"),
    "FourierCoefficientSet c_1=np.inf": (
        lambda: FourierCoefficientSet(1.0, {-1: np.complex128(1j), 0: np.float64(2), 1: np.inf}),
        "coefficient with k=1 must be a finite number, got inf"),
    "RealFourierCoefficientSet b_1=1j": (
        lambda: RealFourierCoefficientSet(1.0, {0: 1.0, 1: 2}, {1: 1j}),
        "coefficient with k=1 must be finite, got 1j"),
    "RealFourierCoefficientSet a_1=nan before b": (
        lambda: RealFourierCoefficientSet(1.0, {0: 1.0, 1: NAN}, {1: None}),
        "coefficient with k=1 must be finite, got nan"),
    "Eigenvalue nan": (lambda: Eigenvalue(NAN), "eigenvalue must be finite, got nan"),
    "Eigenvalue (1, nan)": (lambda: Eigenvalue((1.0, NAN), "continuum"),
                            "eigenvalue must be finite, got nan"),
}


@pytest.mark.parametrize("call, message", NOT_A_NUMBER.values(), ids=NOT_A_NUMBER.keys())
def test_scalar_that_is_not_a_finite_number(call, message):
    with pytest.raises(ContractViolationError) as info:
        call()
    assert str(info.value) == message


LINE = EigenProblemSpec.whole_line()
SERIES = FourierCoefficientSet(1.0, {-1: 0.5, 0: 1.0, 1: 0.5})
# Each is refused where it enters, not left to raise a TypeError, return NaN or fail in
# quadrature; True is not the number 1.
FAILED_LATE_OR_SILENTLY = {
    "Grid.uniform num=2.5": (lambda: Grid.uniform(0.0, 1.0, 2.5),
                             "grid point count must be an integer >= 1, got 2.5"),
    "Grid.uniform num=nan": (lambda: Grid.uniform(0.0, 1.0, NAN),
                             "grid point count must be an integer >= 1, got nan"),
    "Grid.uniform num=None": (lambda: Grid.uniform(0.0, 1.0, None),
                              "grid point count must be an integer >= 1, got None"),
    "Grid.uniform num=True": (lambda: Grid.uniform(0.0, 1.0, True),
                              "grid point count must be an integer >= 1, got True"),
    "weighted_orthogonality_check sigma=nan":
        (lambda: weighted_orthogonality_check(1.0, 2.0, NAN, 5.0), "sigma must be finite, got nan"),
    "weighted_orthogonality_check sigma='a'":
        (lambda: weighted_orthogonality_check(1.0, 2.0, "a", 5.0), "sigma must be finite, got a"),
    "synthesize x=nan": (lambda: synthesize(SERIES, NAN), "evaluation point x must be finite, got nan"),
    "synthesize x=[0, inf]": (lambda: synthesize(SERIES, np.array([0.0, INF])),
                              "evaluation point x must be finite, got inf"),
    "eigenfunction_eval x=nan": (lambda: eigenfunction_eval(LINE, Eigenvalue(1.0), NAN),
                                 "evaluation point x must be finite, got nan"),
    "eigenfunction_eval x=[0, inf]":
        (lambda: eigenfunction_eval(LINE, Eigenvalue(1.0), np.array([0.0, INF])),
         "evaluation point x must be finite, got inf"),
    "eigenfunction_eval t=nan":
        (lambda: eigenfunction_eval(EigenProblemSpec.product_2d(0.5), Eigenvalue((1.0, 2.0)),
                                    (0.0, NAN)), "evaluation point t must be finite, got nan"),
    "residual_ratio lam=nan": (lambda: residual_ratio(LINE, NAN, WindowedTestSequence(0.0, 4)),
                               "lam must be finite, got nan"),
    "residual_ratio lam=True": (lambda: residual_ratio(LINE, True, WindowedTestSequence(0.0, 4)),
                                "lam must be finite, got True"),
}


@pytest.mark.parametrize("call, message", FAILED_LATE_OR_SILENTLY.values(),
                         ids=FAILED_LATE_OR_SILENTLY.keys())
def test_checked_where_it_enters(call, message):
    with pytest.raises(ContractViolationError) as info:
        call()
    assert str(info.value) == message


# Each once escaped as a bare OverflowError, ValueError, TypeError or RuntimeWarning; each
# is refused by the guard it enters through, which names its parameter.  The coefficient
# sets reach the per-value fallback of fourier_series._check_values.
ESCAPED = {
    "FourierCoefficientSet c_0=H": (lambda: FourierCoefficientSet(1.0, {0: H}),
                                    "coefficient with k=0"),
    "RealFourierCoefficientSet a_0=H": (lambda: RealFourierCoefficientSet(1.0, {0: H}, {}),
                                        "coefficient with k=0"),
    "Grid ['a']": (lambda: Grid(["a"]), "grid points"),
    "Grid [H]": (lambda: Grid([H]), "grid points"),
    "Grid ragged": (lambda: Grid(RAGGED), "grid points"),
    "Grid [1j, 2j]": (lambda: Grid([1j, 2j]), "grid points"),
    "Grid.uniform b=inf": (lambda: Grid.uniform(0, INF, 3), "grid end b"),
    "Grid.uniform a='a'": (lambda: Grid.uniform("a", 1, 3), "grid start a"),
    "Grid.uniform a=None": (lambda: Grid.uniform(None, 1, 3), "grid start a"),
    "Grid.uniform num=H": (lambda: Grid.uniform(-1, 1, H), "grid point count"),
    "integrate (0, H)": (lambda: integrate(f, (0, H)), "integration interval"),
    "integrate ('a', 1)": (lambda: integrate(f, ("a", 1)), "integration interval"),
    "integrate (0, None)": (lambda: integrate(f, (0, None)), "integration interval"),
    "integrate 5": (lambda: integrate(f, 5), "integration interval"),
    "integrate panels=H": (lambda: integrate(f, (0, 1), panels=H), "panel count"),
    "QuadratureSpec order=H": (lambda: QuadratureSpec(order=H), "quadrature order"),
    "QuadratureSpec tolerance=H": (lambda: QuadratureSpec(tolerance=H), "quadrature tolerance"),
    "forward_ft A=H": (lambda: forward_ft(f, Grid([0.0]), H), "truncation A"),
    "laplace_line X=H": (lambda: laplace_line(f, 0.0, Grid([0.0]), H), "truncation X"),
    "complex_coefficients K=H": (lambda: complex_coefficients(f, 1.0, H), "K"),
    "dirichlet_delta a=H": (lambda: dirichlet_delta(H, 1.0), "a"),
    "synthesize x=H": (lambda: synthesize(FourierCoefficientSet(1.0, {0: 1}), H),
                       "evaluation point x"),
    "SampledFunction [H]": (lambda: SampledFunction(Grid([0.0]), [H]), "values"),
    "SampledFunction ['a'] * 5": (lambda: SampledFunction(TAU, ["a"] * 5), "values"),
    "ContinuousSpectrum [H] * 5": (lambda: ContinuousSpectrum(TAU, [H] * 5), "values"),
    "WindowedTestSequence n=H": (lambda: WindowedTestSequence(0.0, H), "window-width index n"),
    "Eigenvalue H": (lambda: Eigenvalue(H), "eigenvalue"),
    "discrete_eigenvalues k_max=H": (lambda: discrete_eigenvalues(1.0, H), "k_max"),
    "eigenfunction_eval x ragged": (lambda: eigenfunction_eval(LINE, Eigenvalue(1.0), RAGGED),
                                    "evaluation point x"),
}


@pytest.mark.parametrize("call, name", ESCAPED.values(), ids=ESCAPED.keys())
def test_refused_naming_its_parameter(call, name):
    with pytest.raises(ContractViolationError) as info:
        call()
    assert str(info.value).startswith(f"{name} must be ")


class TestOwnership:
    def test_grid_copies_the_callers_points(self):
        x = np.array([0.0, 1.0, 2.0])
        grid = Grid(x)
        assert x.flags.writeable and not grid.points.flags.writeable
        x[0] = -5.0
        assert grid.points.tolist() == [0.0, 1.0, 2.0]

    @pytest.mark.parametrize("holder", [SampledFunction, ContinuousSpectrum])
    def test_later_writes_do_not_reach_the_values(self, holder):
        given = np.exp(-50.0 * TAU.points**2) + 0j
        held = holder(TAU, given)
        given[2] = NAN
        assert given.flags.writeable and held.values[2] == 1.0
        if holder is ContinuousSpectrum:  # the NaN does not surface on a read either
            assert np.isfinite(inverse_ft(held, Grid([0.0])).values).all()


def load_empty_document():
    with open("empty.json", "w") as fh:
        fh.write("{}")
    return load_spectrum("empty.json")


# Refusals of the data types, engines and file layer, each with its exact message; the
# test runs in a scratch directory, where load_empty_document writes its file.
REFUSED = {
    "Grid []": (lambda: Grid([]), "grid points must form a non-empty 1-D sequence"),
    "Grid [0, nan]": (lambda: Grid([0.0, NAN]), "grid points must be finite, got nan"),
    # refused and named as given, not cast to [1, 2] nor named by its entry 0
    "Grid complex array": (lambda: Grid(np.array([1 + 5j, 2 + 5j])),
                           "grid points must be finite, got [1.+5.j 2.+5.j]"),
    "Grid.uniform b < a": (lambda: Grid.uniform(1.0, 0.0, 3), "grid requires a < b"),
    "Grid.spacing one point": (lambda: Grid([1.0]).spacing, "spacing needs at least two points"),
    "integrate panels=0": (lambda: integrate(f, (0.0, 1.0), panels=0),
                           "panel count must be an integer >= 1, got 0"),
    "bromwich_inverse_from_samples two points":
        (lambda: bromwich_inverse_from_samples(
            LaplaceSpectrum(0.5, Grid.uniform(-0.05, 0.05, 2), np.ones(2)), 1.0),
         "contour needs at least three samples"),
    "inverse_ft one point": (lambda: inverse_ft(ContinuousSpectrum(Grid([0.0]), np.ones(1)),
                                                TAU), "spectrum grid needs at least two points"),
    "FourierCoefficientSet {}": (lambda: FourierCoefficientSet(1.0, {}),
                                 "coefficient set may not be empty"),
    "FourierCoefficientSet index 0.0": (lambda: FourierCoefficientSet(L=1.0, c={0.0: 1}),
                                        "coefficient index must be an integer, got 0.0"),
    "FourierCoefficientSet index True": (lambda: FourierCoefficientSet(L=1.0, c={True: 1}),
                                         "coefficient index must be an integer, got True"),
    "RealFourierCoefficientSet a index 0.0":
        (lambda: RealFourierCoefficientSet(L=1.0, a={0.0: 1.0}, b={}),
         "coefficient index must be an integer, got 0.0"),
    "RealFourierCoefficientSet {} {}": (lambda: RealFourierCoefficientSet(L=1.0, a={}, b={}),
                                        "coefficient set may not be empty"),
    "RealFourierCoefficientSet a gap":
        (lambda: RealFourierCoefficientSet(1.0, {0: 1.0, 2: 1.0}, {1: 0.0, 2: 0.0}),
         "a-coefficients must cover k = 0..K"),
    "RealFourierCoefficientSet b gap":
        (lambda: RealFourierCoefficientSet(1.0, {0: 1.0, 1: 1.0, 2: 1.0}, {2: 0.0}),
         "b-coefficients must cover k = 1..K"),
    "Eigenvalue kind 'point'": (lambda: Eigenvalue(1.0, "point"),
                                "spectrum kind must be 'discrete' or 'continuum', got 'point'"),
    "to_json_bytes object": (lambda: to_json_bytes({"a": object()}), "cannot serialize object"),
    "spectrum_payload object": (lambda: spectrum_payload(object(), {}), "not a spectrum: object"),
    "load_spectrum {}": (load_empty_document,
                         "empty.json is not a toolkit file (missing 'kind')"),
}


@pytest.mark.parametrize("call, message", REFUSED.values(), ids=REFUSED.keys())
def test_library_refusal_message(call, message, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(ContractViolationError) as info:
        call()
    assert str(info.value) == message


def test_grid_without_points():
    with pytest.raises(ContractViolationError,
                       match="^grid point count must be an integer >= 1, got 0$"):
        Grid.uniform(0.0, 1.0, 0)


def test_accepted_numbers_keep_their_type():
    assert WindowedTestSequence(lam=0.0, n=4.0).n == 4
    assert isinstance(WindowedTestSequence(lam=0.0, n=4.0).n, int)
    assert integrate(f, (0.0, 1.0), panels=2.0) == pytest.approx(1.0 - math.exp(-1.0), rel=1e-12)
    assert FourierCoefficientSet(1.0, {-1: 0.5, 0: np.complex128(1j), 1: 2}).K == 1
    assert _scalar(np.complex128(1 + 2j), "c", "complex") == 1 + 2j


class TestScalarGuard:
    def test_wording(self):
        with pytest.raises(ContractViolationError, match=r"^L must be finite and > 0, got inf$"):
            _scalar(INF, "L", "positive")
        with pytest.raises(ContractViolationError, match=r"^sigma must be finite, got None$"):
            _scalar(None, "sigma")

    @pytest.mark.parametrize("value", [-1, 1.5, INF, "2"])
    def test_count_rule(self, value):
        with pytest.raises(ContractViolationError, match="K must be a non-negative integer"):
            _scalar(value, "K", "count")

    def test_returns_the_value(self):
        assert _scalar(2, "L", "positive") == 2.0 and isinstance(_scalar(2, "L"), float)
        assert _scalar(3.0, "K", "count") == 3 and isinstance(_scalar(3.0, "K", "count"), int)
        assert _scalar(0, "K", "count") == 0

    def test_zero_is_not_positive(self):
        with pytest.raises(ContractViolationError, match="got 0"):
            discrete_eigenvalues(0, 2)


class TestSampledGuard:
    def test_read_only_without_freezing_the_caller(self):
        values = np.ones(5, dtype=complex)
        out = _sampled(values, TAU)
        assert not out.flags.writeable
        values[0] = 2.0  # the caller's array stays writeable
        assert out[0] == 1.0  # and its later writes do not reach the held values

    def test_adopts_a_fresh_read_only_array(self):
        values = np.ones(5, dtype=complex)
        values.flags.writeable = False
        assert _sampled(values, TAU) is values
        view = np.ones(5, dtype=complex)[:]
        view.flags.writeable = False
        assert _sampled(view, TAU) is not view  # a view of another array is copied

    def test_shape(self):
        with pytest.raises(ContractViolationError, match=r"\(4,\) does not match grid sizes \(5,\)"):
            _sampled(np.ones(4), TAU)
        with pytest.raises(ContractViolationError, match=r"grid sizes \(3, 5\)"):
            _sampled(np.ones((5, 3)), LAM, TAU)

    def test_names_the_first_bad_index(self):
        with pytest.raises(ContractViolationError, match=r"got \(nan\+0j\) at index 2, 4$"):
            _sampled(with_nan((3, 5)), LAM, TAU)

    def test_spectrum_file_with_nan_value(self, tmp_path):
        path = tmp_path / "line.json"
        doc = {"kind": "spectrum", "convention": "laplace-line", "sigma": 0.5,
               "tau_grid": [-1.0, 0.0, 1.0], "values": [[1.0, 0.0], [NAN, 0.0], [1.0, 0.0]]}
        path.write_text(json.dumps(doc))
        with pytest.raises(ContractViolationError, match="values must be finite"):
            load_spectrum(str(path))


class TestConventionTag:
    @pytest.mark.parametrize("cls, tag", [(ContinuousSpectrum, "paper-fourier"),
                                          (LaplaceSpectrum, "laplace-line"),
                                          (FourierLaplaceSpectrum, "fourier-laplace")])
    def test_class_constant(self, cls, tag):
        assert cls.convention == tag

    def test_not_settable(self):
        with pytest.raises(TypeError):
            ContinuousSpectrum(TAU, np.ones(5), convention="mellin")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_validation_error(code, out, err):
    assert code == 1
    assert out == ""
    assert err.startswith("error: validation:") and err.count("\n") == 1
    assert "Traceback" not in err


TAU_FLAGS = ("--tau-min", "-1", "--tau-max", "1", "--tau-step", "0.5")
LAMBDA_FLAGS = ("--lambda-min", "-1", "--lambda-max", "1", "--lambda-step", "0.5")
TRACEBACKS_BEFORE = {
    "lt --s --X inf": ("lt", "--expr", "exp(-x)", "--s", "1+0i", "--X", "inf"),
    "lt --sigma --X inf": ("lt", "--expr", "exp(-x)", "--sigma", "0.5", "--X", "inf", *TAU_FLAGS),
    "series --L inf": ("series", "--expr", "x", "--L", "inf", "--K", "2"),
    "real-series --L inf": ("real-series", "--expr", "x", "--L", "inf", "--K", "2"),
    "verify-orthogonality --L inf": ("verify-orthogonality", "--L", "inf", "--K", "2"),
    "flt --A inf": ("flt", "--expr", "exp(-x^2-t)", "--sigma", "0.5", "--A", "inf", "--X", "40",
                    *LAMBDA_FLAGS, *TAU_FLAGS),
}


class TestCommandLine:
    @pytest.mark.parametrize("argv", TRACEBACKS_BEFORE.values(), ids=TRACEBACKS_BEFORE.keys())
    def test_non_finite_flag_exits_1(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert_validation_error(code, out, err)
        assert "must be finite and > 0, got inf" in err

    def test_infinite_quad_tol_exits_before_quadrature(self, capsys, monkeypatch):
        def no_quadrature(*args):
            raise AssertionError("quadrature ran")

        monkeypatch.setattr(cli, "complex_coefficients", no_quadrature)
        code, out, err = run_cli(capsys, "series", "--expr", "x", "--L", "1", "--K", "2",
                                 "--quad-tol", "inf")
        assert_validation_error(code, out, err)
        assert "quadrature tolerance must be finite and > 0, got inf" in err

    def test_ilt_of_a_line_file_with_nan(self, capsys, tmp_path):
        path = str(tmp_path / "line.json")
        code, _, err = run_cli(capsys, "lt", "--expr", "x^3*exp(-x)", "--sigma", "0.5",
                               "--X", "40", "--tau-min", "-60", "--tau-max", "60",
                               "--tau-step", "0.05", "--output", path)
        assert code == 0, err
        with open(path) as fh:
            doc = json.load(fh)
        doc["values"][7][1] = NAN
        with open(path, "w") as fh:
            json.dump(doc, fh)  # writes the NaN token, which json.load accepts
        code, out, err = run_cli(capsys, "ilt", "--input", path, "--t", "1")
        assert_validation_error(code, out, err)
        assert "values must be finite" in err and "index 7" in err

    def test_quad_order_above_the_bound(self, capsys):
        code, out, err = run_cli(capsys, "series", "--expr", "x", "--L", "1", "--K", "2",
                                 "--quad-order", "1001")
        assert_validation_error(code, out, err)
        assert err == "error: validation: quadrature order must be >= 2 and <= 1000, got 1001\n"

    @pytest.mark.parametrize(
        "argv", [("series", "--expr", "x", "--L", "1", "--K", "9" * 400),
                 ("verify-residual", "--n", "4", "--n", "9" * 400),
                 ("series", "--expr", "x", "--L", "1", "--K", "2", "--quad-order", "9" * 400)],
        ids=["series --K", "verify-residual --n", "series --quad-order"],
    )
    def test_flag_beyond_float_range_exits_1(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert_validation_error(code, out, err)
        assert "9" * 400 in err

    def test_one_point_line_is_written_and_refused_on_read(self, capsys, tmp_path):
        path = str(tmp_path / "line.json")
        code, _, err = run_cli(capsys, "lt", "--expr", "exp(-x)", "--sigma", "0.5", "--X", "40",
                               "--tau-min", "0", "--tau-max", "0.01", "--tau-step", "1",
                               "--output", path)
        assert code == 0, err
        with open(path) as fh:
            assert json.load(fh)["tau_grid"] == [0.0]
        code, out, err = run_cli(capsys, "ilt", "--input", path, "--t", "1")
        assert_validation_error(code, out, err)
        assert "contour needs at least three samples" in err

    def test_verify_residual_n_0(self, capsys):
        code, out, err = run_cli(capsys, "verify-residual", "--n", "0")
        assert_validation_error(code, out, err)
        assert "window-width index n must be an integer >= 1, got 0" in err

    @pytest.mark.parametrize(
        "s, message", [("inf", "Re s must be finite, got inf"),
                       ("1+infi", "Im s must be finite, got inf")],
    )
    def test_lt_non_finite_s_reaches_the_contract(self, capsys, s, message):
        code, out, err = run_cli(capsys, "lt", "--expr", "exp(-x)", "--s", s, "--X", "40")
        assert_validation_error(code, out, err)
        assert err == f"error: validation: {message}\n"

    @pytest.mark.parametrize("text, value", [("2+1i", 2 + 1j), ("3i", 3j), ("-i", -1j),
                                             ("1+infi", complex(1, INF))])
    def test_complex_literal_with_trailing_i(self, text, value):
        assert cli.parse_complex(text) == value

    @pytest.fixture
    def spectrum_file(self, capsys, tmp_path):
        path = str(tmp_path / "ft.json")
        code, _, err = run_cli(capsys, "ft", "--expr", "exp(-x^2/2)", "--A", "12",
                               *LAMBDA_FLAGS, "--output", path)
        assert code == 0, err
        return path

    @pytest.mark.parametrize(
        "x_flags", [("-1", "1", "1e-300"), ("0", "1", "1e-6")], ids=["1e-300", "just-over"],
    )
    def test_grid_point_bound(self, capsys, monkeypatch, spectrum_file, x_flags):
        monkeypatch.setattr(cli.Grid, "uniform", None)  # no grid may be built
        lo, hi, step = x_flags
        code, out, err = run_cli(capsys, "ift", "--input", spectrum_file,
                                 "--x-min", lo, "--x-max", hi, "--x-step", step)
        assert_validation_error(code, out, err)
        assert err.startswith(f"error: validation: --x-step {float(step)!r} gives more than "
                              f"{cli.MAX_GRID_POINTS} points")

    def test_grid_at_the_bound_is_built(self):
        assert cli.MAX_GRID_POINTS == 1_000_000
        grid = cli._grid_from_flags("x", 0.0, 1.0, 1.0 / 999_999)
        assert len(grid) == cli.MAX_GRID_POINTS
