import cmath
import math

import numpy as np
import pytest

from unitransform import (
    ContractViolationError,
    EigenProblemSpec,
    Eigenvalue,
    WindowedTestSequence,
    discrete_eigenvalues,
    eigenfunction_eval,
    residual_ratio,
)
from unitransform import eigenproblems
from unitransform.numerics import integrate

# Analytic residual of the gaussian-windowed sequence: the operator kills
# the modulation exactly, leaving the window derivative.  With
# w(u) = exp(-u^2/2) the norms give r_n = sqrt(int w'^2 / int w^2) / n
# = 1 / (n * sqrt(2)), independent of the eigenvalue.
def oracle_ratio(n: int) -> float:
    return 1.0 / (n * math.sqrt(2.0))


class TestProblemSpecs:
    def test_periodic_needs_positive_L(self):
        with pytest.raises(ContractViolationError):
            EigenProblemSpec.periodic(0.0)
        with pytest.raises(ContractViolationError):
            EigenProblemSpec(kind="periodic-interval")

    def test_weighted_needs_sigma(self):
        with pytest.raises(ContractViolationError):
            EigenProblemSpec(kind="weighted-halfline")
        with pytest.raises(ContractViolationError):
            EigenProblemSpec.weighted_halfline(math.nan)

    def test_unknown_kind(self):
        with pytest.raises(ContractViolationError):
            EigenProblemSpec(kind="half-periodic")


class TestDiscreteEigenvalues:
    @pytest.mark.parametrize("L", [1.0, math.pi, 2.5])
    def test_exact_values(self, L):
        eigs = discrete_eigenvalues(L, 20)
        assert len(eigs) == 41
        for entry, k in zip(eigs, range(-20, 21)):
            assert entry.value == k * math.pi / L
            assert entry.spectrum_kind == "discrete"

    def test_L_pi_gives_integers(self):
        values = [e.value for e in discrete_eigenvalues(math.pi, 1)]
        assert values == [-1.0, 0.0, 1.0]

    def test_k_max_zero(self):
        values = [e.value for e in discrete_eigenvalues(1.0, 0)]
        assert values == [0.0]

    def test_squares_match_second_order_spectrum(self):
        L = 2.5
        for entry, k in zip(discrete_eigenvalues(L, 20), range(-20, 21)):
            assert entry.value**2 == (k * math.pi / L) ** 2


class TestEigenfunctionEval:
    def test_zero_eigenvalue_is_constant(self):
        problem = EigenProblemSpec.whole_line()
        assert eigenfunction_eval(problem, Eigenvalue(0.0, "continuum"), 3.7) == 1.0 + 0j

    def test_periodic_quarter_turn(self):
        problem = EigenProblemSpec.periodic(1.0)
        v = eigenfunction_eval(problem, Eigenvalue(math.pi), 0.5)
        assert v == pytest.approx(-1j, abs=1e-15)

    def test_weighted_halfline_growth(self):
        problem = EigenProblemSpec.weighted_halfline(2.0)
        v = eigenfunction_eval(problem, Eigenvalue(1.0, "continuum"), 1.0)
        expected = math.exp(2.0) * complex(math.cos(1.0), -math.sin(1.0))
        assert v == pytest.approx(expected, rel=1e-14)

    def test_product_2d(self):
        problem = EigenProblemSpec.product_2d(0.5)
        v = eigenfunction_eval(problem, Eigenvalue((1.0, 2.0), "continuum"), (0.3, 0.7))
        expected = cmath.exp(-1j * 0.3 + (0.5 - 2j) * 0.7)
        assert v == pytest.approx(expected, rel=1e-14)

    def test_kind_mismatches(self):
        line = EigenProblemSpec.whole_line()
        grid2d = EigenProblemSpec.product_2d(1.0)
        with pytest.raises(ContractViolationError):
            eigenfunction_eval(line, Eigenvalue((1.0, 2.0)), 0.0)
        with pytest.raises(ContractViolationError):
            eigenfunction_eval(line, Eigenvalue(1.0), (0.0, 0.0))
        with pytest.raises(ContractViolationError):
            eigenfunction_eval(grid2d, Eigenvalue(1.0), (0.0, 0.0))
        with pytest.raises(ContractViolationError):
            eigenfunction_eval(grid2d, Eigenvalue((1.0, 2.0)), 0.0)

    @pytest.mark.parametrize(
        "problem, sigma",
        [
            (EigenProblemSpec.periodic(1.5), 0.0),
            (EigenProblemSpec.whole_line(), 0.0),
            (EigenProblemSpec.weighted_halfline(0.75), 0.75),
        ],
        ids=["periodic-interval", "whole-line", "weighted-halfline"],
    )
    def test_one_dimensional_kinds_share_one_exponential(self, problem, sigma):
        lam = 2.3
        xs = np.linspace(-3.0, 3.0, 61)
        y = eigenfunction_eval(problem, Eigenvalue(lam), xs)
        assert isinstance(y, np.ndarray) and y.shape == xs.shape
        expected = np.exp((sigma - 1j * lam) * xs)
        assert np.array_equal(y, expected)
        for x in (0.0, 0.4, -2.5):
            v = eigenfunction_eval(problem, Eigenvalue(lam), x)
            assert type(v) is complex
            assert v == complex(np.exp((sigma - 1j * lam) * x))

    @pytest.mark.parametrize(
        "problem",
        [EigenProblemSpec.periodic(1.0), EigenProblemSpec.weighted_halfline(0.5)],
        ids=["periodic-interval", "weighted-halfline"],
    )
    def test_one_dimensional_kind_mismatches(self, problem):
        with pytest.raises(ContractViolationError, match=problem.kind):
            eigenfunction_eval(problem, Eigenvalue((1.0, 2.0)), 0.0)
        with pytest.raises(ContractViolationError, match=problem.kind):
            eigenfunction_eval(problem, Eigenvalue(1.0), (0.0, 0.0))

    def test_first_order_residual_vanishes(self):
        # i y' - lam y with the analytic derivative y' = -i lam y
        problem = EigenProblemSpec.periodic(1.0)
        xs = np.linspace(-1.0, 1.0, 201)
        for entry in discrete_eigenvalues(1.0, 5):
            lam = entry.value
            y = np.array([eigenfunction_eval(problem, entry, float(x)) for x in xs])
            residual = np.max(np.abs(1j * (-1j * lam * y) - lam * y))
            assert residual <= 1e-12


class TestWindowedSequence:
    def test_validation(self):
        with pytest.raises(ContractViolationError):
            WindowedTestSequence(lam=0.0, n=0)

    def test_members_are_square_integrable(self):
        # finite norm for every finite n: the quadrature denominator converges
        problem = EigenProblemSpec.whole_line()
        for n in (1, 4, 16):
            r = residual_ratio(problem, 0.0, WindowedTestSequence(lam=0.0, n=n))
            assert math.isfinite(r) and r > 0


class TestResidualRatio:
    def test_matches_analytic_decay(self):
        problem = EigenProblemSpec.whole_line()
        r8 = residual_ratio(problem, 1.0, WindowedTestSequence(lam=1.0, n=8))
        assert r8 == pytest.approx(oracle_ratio(8), rel=1e-10)

    def test_halving_under_doubling(self):
        problem = EigenProblemSpec.whole_line()
        r8 = residual_ratio(problem, 1.0, WindowedTestSequence(lam=1.0, n=8))
        r16 = residual_ratio(problem, 1.0, WindowedTestSequence(lam=1.0, n=16))
        assert 0.4 <= r16 / r8 <= 0.6

    def test_lambda_independence(self):
        problem = EigenProblemSpec.whole_line()
        r0 = residual_ratio(problem, 0.0, WindowedTestSequence(lam=0.0, n=8))
        r5 = residual_ratio(problem, 5.0, WindowedTestSequence(lam=5.0, n=8))
        assert abs(r0 - r5) <= 1e-10

    @pytest.mark.parametrize("n", [4, 8, 16])
    def test_decay_window(self, n):
        problem = EigenProblemSpec.whole_line()
        r_n = residual_ratio(problem, 1.0, WindowedTestSequence(lam=1.0, n=n))
        r_2n = residual_ratio(problem, 1.0, WindowedTestSequence(lam=1.0, n=2 * n))
        assert 0.4 <= r_2n / r_n <= 0.6

    def test_weighted_halfline_same_rate(self):
        problem = EigenProblemSpec.weighted_halfline(2.0)
        r8 = residual_ratio(problem, 1.0, WindowedTestSequence(lam=1.0, n=8))
        assert r8 == pytest.approx(oracle_ratio(8), rel=1e-9)

    def test_detuned_sequence_keeps_offset(self):
        # a sequence modulated at lam0 tested against lam != lam0 cannot
        # drive the ratio to zero; it tends to |lam - lam0|
        problem = EigenProblemSpec.whole_line()
        lam0, lam = 2.0, 3.0
        for n in (8, 16):
            r = residual_ratio(problem, lam, WindowedTestSequence(lam=lam0, n=n))
            expected = math.sqrt((lam - lam0) ** 2 + oracle_ratio(n) ** 2)
            assert r == pytest.approx(expected, rel=1e-8)

    @pytest.mark.parametrize("sigma", [0.5, 2.0])
    def test_detuned_sequence_on_the_weighted_halfline(self, sigma):
        problem = EigenProblemSpec.weighted_halfline(sigma)
        lam0, lam = 1.0, 1.3
        for n in (8, 16):
            r = residual_ratio(problem, lam, WindowedTestSequence(lam=lam0, n=n))
            expected = math.sqrt((lam - lam0) ** 2 + 1.0 / (2.0 * n * n))
            assert r == pytest.approx(expected, rel=1e-8)

    @pytest.mark.parametrize("problem", [EigenProblemSpec.whole_line(),
                                         EigenProblemSpec.weighted_halfline(0.5)],
                             ids=["whole-line", "weighted-halfline"])
    def test_one_quadrature_pass(self, monkeypatch, problem):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[1])
            return integrate(*args, **kwargs)

        monkeypatch.setattr(eigenproblems, "integrate", counted)
        r = residual_ratio(problem, 1.0, WindowedTestSequence(lam=1.0, n=8))
        assert r == pytest.approx(oracle_ratio(8), rel=1e-9)
        assert len(calls) == 1

    def test_periodic_problem_rejected(self):
        with pytest.raises(ContractViolationError):
            residual_ratio(
                EigenProblemSpec.periodic(1.0), 0.0, WindowedTestSequence(lam=0.0, n=4)
            )
