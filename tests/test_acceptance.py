"""End-to-end acceptance checks, one numbered criterion per test group.

Each criterion prints a single pass/fail line (run with ``pytest -s``).
Every check is asserted at its target; none is marked as an expected
failure.  The contour inversions of transforms that decay like 1/s (the
step-type originals of criterion 10 and the 2-D round trip of criterion
12) meet the 1e-3 target because the contour sum adds its tails beyond
the half-height T in closed form.
"""

import json
import math
import random
import warnings

import numpy as np
import pytest

import unitransform as ut
from unitransform.cli import main as cli_main


def report(num, name, ok, detail):
    print(f"ACCEPTANCE {num:>2} {name}: {'PASS' if ok else 'FAIL'} ({detail})")


# --------------------------------------------------------------------------
# 1. discrete spectrum exactness


@pytest.mark.parametrize("L", [1.0, math.pi, 2.5])
def test_criterion_01_discrete_spectrum_exact(L):
    eigs = ut.discrete_eigenvalues(L, 20)
    exact = all(
        entry.value == k * math.pi / L for entry, k in zip(eigs, range(-20, 21))
    )
    report(1, f"discrete spectrum exactness (L={L:g})", exact, "bitwise equality")
    assert exact


# --------------------------------------------------------------------------
# 2. orthogonality


def test_criterion_02_orthogonality():
    gram = ut.gram_matrix(1.0, 8)
    diag_err = float(np.max(np.abs(np.diagonal(gram) - 2.0)))
    off = float(np.max(np.abs(gram - np.diag(np.diagonal(gram)))))
    ok = diag_err <= 1e-10 and off <= 1e-10
    report(2, "orthogonality", ok, f"diag err {diag_err:.2e}, max offdiag {off:.2e}")
    assert diag_err <= 1e-10
    assert off <= 1e-10


# --------------------------------------------------------------------------
# 3. Fourier-series round trip


def test_criterion_03_series_roundtrip():
    f = lambda x: np.exp(np.cos(math.pi * np.asarray(x, float))) + 0j
    coeffs = ut.complex_coefficients(f, 1.0, 32)
    xs = np.linspace(-1.0, 1.0, 101)
    err = float(np.max(np.abs(ut.synthesize(coeffs, xs) - f(xs))))
    ok = err <= 1e-8
    report(3, "series round trip", ok, f"sup error {err:.2e} <= 1e-8")
    assert ok


# --------------------------------------------------------------------------
# 4. complex<->real bridge


def test_criterion_04_bridge():
    worst = 0.0
    for f in (lambda x: x**2, lambda x: x**3):
        real_f = lambda x: np.asarray(f(np.asarray(x, float)), dtype=float)
        complex_f = lambda x: real_f(x) + 0j
        bridged = ut.complex_to_real(ut.complex_coefficients(complex_f, 1.0, 6))
        direct = ut.real_coefficients(real_f, 1.0, 6)
        for k in range(0, 7):
            worst = max(worst, abs(bridged.a[k] - direct.a[k]))
        for k in range(1, 7):
            worst = max(worst, abs(bridged.b[k] - direct.b[k]))
    ok = worst <= 1e-9
    report(4, "complex<->real bridge", ok, f"worst entry diff {worst:.2e} <= 1e-9")
    assert ok


# --------------------------------------------------------------------------
# 6. continuum residual decay


def test_criterion_06_residual_decay():
    problem = ut.EigenProblemSpec.whole_line()
    lams = (0.0, 1.0, 5.0)
    ratios = {
        lam: {
            n: ut.residual_ratio(problem, lam, ut.WindowedTestSequence(lam=lam, n=n))
            for n in (4, 8, 16, 32)
        }
        for lam in lams
    }
    decay_ok = all(
        0.4 <= ratios[lam][2 * n] / ratios[lam][n] <= 0.6
        for lam in lams
        for n in (4, 8, 16)
    )
    spread = max(
        max(ratios[lam][n] for lam in lams) - min(ratios[lam][n] for lam in lams)
        for n in (4, 8, 16)
    )
    ok = decay_ok and spread <= 1e-10
    report(6, "continuum residual decay", ok, f"halving in [0.4,0.6], spread {spread:.2e}")
    assert decay_ok
    assert spread <= 1e-10


# --------------------------------------------------------------------------
# 7. Fourier round trip


def test_criterion_07_fourier_roundtrip():
    f = lambda x: np.exp(-np.asarray(x, float) ** 2 / 2.0) + 0j
    lam_grid = ut.Grid.uniform(-12.0, 12.0, 481)  # step 0.05
    spectrum = ut.forward_ft(f, lam_grid, 12.0)
    x_grid = ut.Grid.uniform(-3.0, 3.0, 121)
    out = ut.inverse_ft(spectrum, x_grid)
    err = float(np.max(np.abs(out.values - f(x_grid.points))))
    ok = err <= 1e-6
    report(7, "Fourier round trip", ok, f"sup error {err:.2e} <= 1e-6")
    assert ok


# --------------------------------------------------------------------------
# 8. sifting property


def test_criterion_08_sifting():
    A, bound = 50.0, 8.0

    def integrand(lam):
        lam = np.asarray(lam, float)
        kernel = np.array([ut.dirichlet_delta(float(v), A) for v in np.atleast_1d(lam)])
        return np.exp(-(lam**2)) * kernel.reshape(lam.shape) + 0j

    value = ut.integrate(
        integrand, (-bound, bound), panels=ut.oscillation_panels(A, -bound, bound)
    ).real
    err = abs(value - 1.0)
    ok = err <= 1e-3
    report(8, "sifting property", ok, f"error {err:.2e} <= 1e-3 at A=50")
    assert ok


# --------------------------------------------------------------------------
# 9. forward Laplace oracle table


LAPLACE_TABLE = [
    ("1", lambda x: np.ones_like(np.asarray(x, float)) + 0j, lambda s: 1.0 / s, 0.0),
    (
        "exp(2t)",
        lambda x: np.exp(2.0 * np.asarray(x, float)) + 0j,
        lambda s: 1.0 / (s - 2.0),
        2.0,
    ),
    ("t", lambda x: np.asarray(x, float) + 0j, lambda s: 1.0 / s**2, 0.0),
    ("sin(t)", lambda x: np.sin(np.asarray(x, float)) + 0j, lambda s: 1.0 / (s**2 + 1.0), 0.0),
]


def test_criterion_09_laplace_table():
    worst = 0.0
    for name, f, fhat, abscissa in LAPLACE_TABLE:
        s_values = [
            abscissa + 0.5,
            abscissa + 1.0,
            abscissa + 2.0 + 1.0j,
            abscissa + 3.0 - 2.0j,
            abscissa + 1.5 + 3.0j,
        ]
        for s in s_values:
            got = ut.forward_laplace(f, s, 60.0).value
            rel = abs(got - fhat(s)) / abs(fhat(s))
            worst = max(worst, rel)
    ok = worst <= 1e-8
    report(9, "Laplace oracle table", ok, f"worst relative error {worst:.2e} <= 1e-8")
    assert ok


# --------------------------------------------------------------------------
# 10. contour inversion


def _bromwich_errors(fhat, original, abscissa):
    sigma = abscissa + 1.0
    worst_err, worst_imag = 0.0, 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ut.TruncationWarning)
        for t in (0.1, 0.5, 1.0, 2.0, 5.0):
            value = ut.bromwich_inverse(fhat, sigma, 400.0, t)
            exact = float(original(np.asarray(t)).real)
            err = abs(value.real - exact)
            if abs(exact) >= 0.1:
                err /= abs(exact)
            worst_err = max(worst_err, err)
            worst_imag = max(worst_imag, abs(value.imag))
    return worst_err, worst_imag


@pytest.mark.parametrize(
    "name,f,fhat",
    [(n, f, fh) for n, f, fh, a in LAPLACE_TABLE if n in ("t", "sin(t)")],
)
def test_criterion_10_bromwich_fast_decay(name, f, fhat):
    abscissa = 0.0
    err, imag = _bromwich_errors(fhat, f, abscissa)
    ok = err <= 1e-3 and imag <= 1e-6
    report(10, f"contour inversion ({name})", ok, f"worst err {err:.2e}, imag {imag:.2e}")
    assert err <= 1e-3
    assert imag <= 1e-6


@pytest.mark.parametrize(
    "name,f,fhat,abscissa",
    [(n, f, fh, a) for n, f, fh, a in LAPLACE_TABLE if n in ("1", "exp(2t)")],
)
def test_criterion_10_bromwich_slow_decay(name, f, fhat, abscissa):
    err, imag = _bromwich_errors(fhat, f, abscissa)
    ok = err <= 1e-3 and imag <= 1e-6
    report(10, f"contour inversion ({name})", ok, f"worst err {err:.2e} vs 1e-3 target, "
           f"imag {imag:.2e}")
    assert err <= 1e-3
    assert imag <= 1e-6


# --------------------------------------------------------------------------
# 11. abscissa estimation


def test_criterion_11_abscissa():
    grid = ut.Grid.uniform(0.0001, 10.0, 101)
    exp_est = ut.estimate_abscissa(ut.SampledFunction(grid, np.exp(2.0 * grid.points) + 0j))
    const_est = ut.estimate_abscissa(ut.SampledFunction(grid, 5.0 * np.ones(101) + 0j))
    ok = abs(exp_est.sigma_hat - 2.0) <= 0.01 and abs(const_est.sigma_hat) <= 1e-10
    report(
        11,
        "abscissa estimation",
        ok,
        f"exp rate {exp_est.sigma_hat:.4f}, const rate {const_est.sigma_hat:.1e}",
    )
    assert abs(exp_est.sigma_hat - 2.0) <= 0.01
    assert abs(const_est.sigma_hat) <= 1e-10


# --------------------------------------------------------------------------
# 12. 2-D transform: separability and round trip


def _separable(x, t):
    return np.exp(-np.asarray(x) ** 2 / 2.0) * np.exp(-np.asarray(t)) + 0j


def test_criterion_12_separability():
    lam_grid = ut.Grid.uniform(-2.0, 2.0, 5)
    tau_grid = ut.Grid.uniform(-2.0, 2.0, 5)
    spectrum = ut.forward_fl(_separable, lam_grid, 0.0, tau_grid, (12.0, 40.0))
    ft_vals = ut.forward_ft(
        lambda x: np.exp(-np.asarray(x, float) ** 2 / 2.0) + 0j, lam_grid, 12.0
    ).values
    worst = 0.0
    for i in range(len(lam_grid)):
        for j, tau in enumerate(tau_grid.points):
            lap = ut.forward_laplace(
                lambda t: np.exp(-np.asarray(t, float)) + 0j, 1j * tau, 40.0
            ).value
            worst = max(worst, abs(spectrum.values[i, j] - ft_vals[i] * lap))
    ok = worst <= 1e-9
    report(12, "2-D separability", ok, f"worst factorization diff {worst:.2e} <= 1e-9")
    assert ok


@pytest.fixture(scope="module")
def fl_spectrum():
    # acceptance-scale spectrum: lambda step 0.2 on [-12, 12], contour
    # half-height 400 at step 0.05, truncations A=12, X=40
    lam_grid = ut.Grid.uniform(-12.0, 12.0, 121)
    tau_grid = ut.Grid.uniform(-400.0, 400.0, 16001)
    return ut.forward_fl(_separable, lam_grid, 0.0, tau_grid, (12.0, 40.0))


def _roundtrip_errors(spectrum, ts):
    xs = np.linspace(-1.0, 1.0, 5)
    errs = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ut.TruncationWarning)
        for t in ts:
            for x in xs:
                value = ut.inverse_fl(spectrum, float(x), float(t))
                errs[(x, t)] = abs(value - _separable(x, t))
    return errs


def test_criterion_12_roundtrip_full_grid(fl_spectrum):
    errs = _roundtrip_errors(fl_spectrum, np.linspace(0.1, 2.0, 5))
    sup = max(errs.values())
    ok = sup <= 1e-3
    report(12, "2-D round trip (full 5x5 grid)", ok, f"sup error {sup:.2e} vs 1e-3 target")
    assert ok


def test_criterion_12_roundtrip_spot_values(fl_spectrum):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ut.TruncationWarning)
        at_origin = ut.inverse_fl(fl_spectrum, 0.0, 1.0)
        off_origin = ut.inverse_fl(fl_spectrum, 0.5, 0.5)
    err_a = abs(at_origin - math.exp(-1.0))
    err_b = abs(off_origin - math.exp(-0.125) * math.exp(-0.5))
    ok = err_a <= 1e-3 and err_b <= 1e-3
    report(12, "2-D round trip (spot values)", ok, f"errors {err_a:.2e}, {err_b:.2e} <= 1e-3")
    assert ok


# --------------------------------------------------------------------------
# 13. parser


def test_criterion_13_parser():
    grammar_ok = (
        ut.evaluate(ut.parse("exp(-x^2/2)"), 0.0) == 1.0
        and abs(ut.evaluate(ut.parse("sin(pi*x)"), 0.5) - 1.0) < 1e-15
        and ut.evaluate(ut.parse("x^2+3*x+1"), 2.0) == 11.0
    )

    rng = random.Random(424242)
    random_ok = True
    for _ in range(20):
        terms = []
        py_terms = []
        for _ in range(rng.randrange(2, 5)):
            a = round(rng.uniform(0.5, 3.0), 3)
            b = rng.choice(["x", str(round(rng.uniform(1.0, 4.0), 2))])
            op = rng.choice(["*", "/"])
            exponent = rng.choice(["", "^2", "^3"])
            terms.append(f"{a}{op}{b}{exponent}")
            py_terms.append(f"{a}{op}{b}{exponent.replace('^', '**')}")
        joiner = [rng.choice(["+", "-"]) for _ in range(len(terms) - 1)]
        text = terms[0] + "".join(j + t for j, t in zip(joiner, terms[1:]))
        py_text = py_terms[0] + "".join(j + t for j, t in zip(joiner, py_terms[1:]))
        x = round(rng.uniform(0.2, 2.0), 4)
        expected = eval(py_text, {"x": x})
        if abs(ut.evaluate(ut.parse(text), x) - expected) > 1e-10 * max(1.0, abs(expected)):
            random_ok = False
            break

    malformed = ["foo(x)", "sin(x", "(x+1))", "sin()", "2^x", "1+", "*3", "x y", "", "@"]
    errors_ok = True
    for text in malformed:
        try:
            ut.parse(text)
            errors_ok = False
        except ut.ParseError as exc:
            if not (0 <= exc.position <= len(text)):
                errors_ok = False
        except Exception:
            errors_ok = False

    ok = grammar_ok and random_ok and errors_ok
    report(
        13,
        "parser",
        ok,
        "grammar examples, 20 randomized precedence cases, malformed inputs positioned",
    )
    assert grammar_ok
    assert random_ok
    assert errors_ok


# --------------------------------------------------------------------------
# 14. CLI determinism


def test_criterion_14_cli_determinism(tmp_path):
    args = [
        "roundtrip", "--expr", "exp(-x^2/2)", "--A", "12",
        "--lambda-min", "-12", "--lambda-max", "12", "--lambda-step", "0.05",
        "--x-min", "-3", "--x-max", "3", "--x-step", "0.25",
    ]
    out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
    code_a = cli_main(args + ["--output", str(out_a)])
    code_b = cli_main(args + ["--output", str(out_b)])
    identical = out_a.read_bytes() == out_b.read_bytes()
    doc = json.loads(out_a.read_text())
    ok = code_a == code_b == 0 and identical and doc["sup_error"] <= 1e-6
    report(
        14,
        "CLI determinism",
        ok,
        f"byte-identical={identical}, sup error {doc['sup_error']:.2e}",
    )
    assert ok
