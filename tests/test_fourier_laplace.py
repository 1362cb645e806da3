import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unitransform import (
    AliasingError,
    ContractViolationError,
    DivergenceError,
    EvaluationError,
    FourierLaplaceSpectrum,
    Grid,
    TruncationWarning,
    dirichlet_delta,
    eigenfunction_eval,
    EigenProblemSpec,
    Eigenvalue,
    forward_fl,
    forward_ft,
    forward_laplace,
    inverse_fl,
    integrate,
    laplace_line,
    oscillation_panels,
    QuadratureSpec,
    weighted_orthogonality_check,
)
from unitransform.fourier_laplace import _FL_BLOCK
from unitransform.numerics import composite_gauss_nodes

A_TRUNC = 12.0
X_TRUNC = 40.0


def separable(x, t):
    return np.exp(-np.asarray(x) ** 2 / 2.0) * np.exp(-np.asarray(t)) + 0j


def gauss_part(x):
    return np.exp(-np.asarray(x, float) ** 2 / 2.0) + 0j


def decay_part(t):
    return np.exp(-np.asarray(t, float)) + 0j


class TestForward:
    def test_separable_product_at_origin(self):
        lam_grid = Grid.uniform(-1.0, 1.0, 3)
        tau_grid = Grid.uniform(-1.0, 1.0, 3)
        spectrum = forward_fl(separable, lam_grid, 1.0, tau_grid, (A_TRUNC, X_TRUNC))
        expected = (1.0 / math.sqrt(2.0 * math.pi)) * 0.5
        assert spectrum.values[1, 1] == pytest.approx(expected, abs=1e-9)

    def test_separable_product_off_origin(self):
        lam_grid = Grid.uniform(-1.0, 1.0, 3)
        tau_grid = Grid.uniform(-1.0, 1.0, 3)
        spectrum = forward_fl(separable, lam_grid, 2.0, tau_grid, (A_TRUNC, X_TRUNC))
        expected = (math.exp(-0.5) / math.sqrt(2.0 * math.pi)) / 3.0
        assert spectrum.values[2, 1] == pytest.approx(expected, abs=1e-9)

    def test_zero_function_gives_zero_spectrum(self):
        zero = lambda x, t: np.zeros(np.broadcast_shapes(np.shape(x), np.shape(t))) + 0j
        spectrum = forward_fl(
            zero, Grid.uniform(-2, 2, 5), 0.5, Grid.uniform(-2, 2, 5), (A_TRUNC, X_TRUNC)
        )
        assert np.max(np.abs(spectrum.values)) == 0.0

    def test_separability_against_one_dimensional_routes(self):
        lam_grid = Grid.uniform(-2.0, 2.0, 5)
        tau_grid = Grid.uniform(-2.0, 2.0, 5)
        sigma = 0.0
        spectrum = forward_fl(separable, lam_grid, sigma, tau_grid, (A_TRUNC, X_TRUNC))
        ft_vals = forward_ft(gauss_part, lam_grid, A_TRUNC).values
        worst = 0.0
        for i in range(len(lam_grid)):
            for j, tau in enumerate(tau_grid.points):
                lap = forward_laplace(decay_part, sigma + 1j * tau, X_TRUNC).value
                worst = max(worst, abs(spectrum.values[i, j] - ft_vals[i] * lap))
        assert worst <= 1e-9

    def test_growth_in_t_rejected_with_axis(self):
        growing = lambda x, t: np.exp(-np.asarray(x) ** 2) * np.exp(np.asarray(t)) + 0j
        with pytest.raises(DivergenceError, match="t axis"):
            forward_fl(
                growing, Grid.uniform(-1, 1, 3), 0.0, Grid.uniform(-1, 1, 3), (5.0, 10.0)
            )

    def test_gauss_nodes_tau_grid_matches_closed_form(self):
        # F(lam, s) = e^{-lam^2/2} / sqrt(2 pi) * 1 / (s + 1)
        nodes, _ = composite_gauss_nodes(-6.0, 6.0, 4, 3)
        tau_grid = Grid(nodes)
        lam_grid = Grid.uniform(-2.0, 2.0, 9)
        spectrum = forward_fl(separable, lam_grid, 0.5, tau_grid, (A_TRUNC, X_TRUNC))
        expected = np.outer(
            np.exp(-lam_grid.points**2 / 2.0) / math.sqrt(2.0 * math.pi),
            1.0 / (1.5 + 1j * tau_grid.points),
        )
        assert np.max(np.abs(spectrum.values - expected)) <= 1e-10

    def test_non_finite_value_names_both_coordinates(self):
        bad = lambda x, t: np.where(np.asarray(t) > 20.0, np.nan, 1.0) * separable(x, t)
        with pytest.raises(EvaluationError, match=r"x=.*, t="):
            forward_fl(bad, Grid.uniform(-1, 1, 3), 0.0, Grid.uniform(-1, 1, 3), (5.0, 30.0))

    def test_scalar_only_function_supported(self):
        def f(x, t):
            return math.exp(-(x**2) / 2.0) * math.exp(-t)

        lam_grid = Grid.uniform(-1.0, 1.0, 3)
        tau_grid = Grid.uniform(-1.0, 1.0, 3)
        spectrum = forward_fl(f, lam_grid, 1.0, tau_grid, (8.0, 20.0))
        expected = (1.0 / math.sqrt(2.0 * math.pi)) * 0.5
        assert spectrum.values[1, 1] == pytest.approx(expected, abs=1e-8)


def _double_sum(f, lam_grid, sigma, tau_grid, A, X, order=10):
    """F by the explicit double rule sum: outer exponential kernels on both axes."""
    lam, tau = lam_grid.points, tau_grid.points
    x, wx = composite_gauss_nodes(-A, A, order, oscillation_panels(np.max(np.abs(lam)), -A, A))
    t, wt = composite_gauss_nodes(0.0, X, order, oscillation_panels(np.max(np.abs(tau)), 0.0, X))
    samples = wx[:, None] * f(x[:, None], t[None, :]) * (wt * np.exp(-sigma * t))[None, :]
    values = np.exp(1j * np.outer(lam, x)) @ samples @ np.exp(-1j * np.outer(t, tau))
    return values / (2.0 * math.pi), x.size, t.size


def _coupled(x, t):
    return np.exp(-x**2 / 2.0 - t) * np.cos(x * t / 4.0) + 0j


class TestStreamedBuild:
    """forward_fl sums f onto the contour one block of about _FL_BLOCK (x, t) points at a time."""

    @pytest.mark.parametrize(
        "lam_grid, tau_grid",
        [
            (Grid.uniform(-6.0, 6.0, 11), Grid.uniform(-10.0, 10.0, 401)),
            (Grid.uniform(3.0, 3.0, 1), Grid.uniform(-16.0, 16.0, 161)),
            (Grid.uniform(-6.0, 6.0, 11),
             Grid(composite_gauss_nodes(-10.0, 10.0, 5, 40)[0])),
        ],
        ids=["uniform", "one-lambda", "gauss-nodes-tau"],
    )
    def test_matches_explicit_double_sum_across_blocks(self, lam_grid, tau_grid):
        expected, x_size, t_size = _double_sum(_coupled, lam_grid, 0.5, tau_grid, A_TRUNC, X_TRUNC)
        assert t_size > _FL_BLOCK // x_size, "the case must span at least two t blocks"
        values = forward_fl(_coupled, lam_grid, 0.5, tau_grid, (A_TRUNC, X_TRUNC)).values
        assert np.max(np.abs(values - expected)) <= 1e-13 * np.max(np.abs(expected))

    def test_peak_memory_does_not_grow_with_the_t_axis(self):
        # 61 x 2001 at X = 40 is 1.7M (x, t) points, 27 MB as complex: the bound admits the
        # output, which the spectrum adopts without a copy, and three copies of one block,
        # never the whole t axis.  Each block's t sums are added into the output in place.
        lam_grid, tau_grid = Grid.uniform(-6.0, 6.0, 61), Grid.uniform(-50.0, 50.0, 2001)
        forward_fl(separable, lam_grid, 0.5, tau_grid, (A_TRUNC, X_TRUNC))
        tracemalloc.start()
        try:
            values = forward_fl(separable, lam_grid, 0.5, tau_grid, (A_TRUNC, X_TRUNC)).values
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        bound = values.nbytes + 3 * 16 * _FL_BLOCK
        assert peak <= bound, f"peak {peak / 1e6:.1f} MB exceeds {bound / 1e6:.1f} MB"


class TestInverse:
    def test_roundtrip_prefactors(self):
        # moderate truncation: checks the normalization split exactly; the
        # remaining error is the contour tail, far below a wrong 2 pi factor
        lam_grid = Grid.uniform(-8.0, 8.0, 41)
        T = 100.0
        n = int(math.ceil(T / 0.05))
        tau_grid = Grid.uniform(-T, T, 2 * n + 1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            spectrum = forward_fl(separable, lam_grid, 0.0, tau_grid, (A_TRUNC, 20.0))
            for x, t in ((0.0, 1.0), (0.5, 0.5)):
                value = inverse_fl(spectrum, x, t)
                assert value.real == pytest.approx(
                    float(separable(x, t).real), abs=2e-2
                )
                assert abs(value.imag) <= 1e-9

    def test_zero_spectrum(self):
        lam_grid = Grid.uniform(-2.0, 2.0, 11)
        tau_grid = Grid.uniform(-2.0, 2.0, 81)
        spectrum = FourierLaplaceSpectrum(
            lam_grid, 0.0, tau_grid, np.zeros((11, 81), dtype=complex)
        )
        assert inverse_fl(spectrum, 0.5, 1.0) == 0j

    def test_aliasing_guard_lambda_axis(self):
        lam_grid = Grid.uniform(-8.0, 8.0, 5)  # step 4.0
        tau_grid = Grid.uniform(-2.0, 2.0, 81)
        spectrum = FourierLaplaceSpectrum(
            lam_grid, 0.0, tau_grid, np.zeros((5, 81), dtype=complex)
        )
        with pytest.raises(AliasingError, match="lambda axis"):
            inverse_fl(spectrum, 1.0, 1.0)

    def test_contour_step_guard_s_axis(self):
        lam_grid = Grid.uniform(-2.0, 2.0, 11)
        tau_grid = Grid.uniform(-2.0, 2.0, 5)  # step 1.0
        spectrum = FourierLaplaceSpectrum(
            lam_grid, 0.0, tau_grid, np.zeros((11, 5), dtype=complex)
        )
        with pytest.raises(AliasingError, match="s axis"):
            inverse_fl(spectrum, 0.0, 1.0)

    def test_truncation_warning_names_s_axis(self):
        # Flat along tau, so the s axis warns; a unit gaussian in lambda cut at +-6, so the
        # lambda axis does not.
        lam_grid = Grid.uniform(-6.0, 6.0, 25)
        tau_grid = Grid.uniform(-3.0, 3.0, 121)
        values = np.exp(-lam_grid.points[:, None] ** 2 / 2.0) * np.ones((25, 121), dtype=complex)
        spectrum = FourierLaplaceSpectrum(lam_grid, 0.0, tau_grid, values)
        with pytest.warns(TruncationWarning, match="s axis"):
            inverse_fl(spectrum, 0.0, 1.0)

    def test_truncation_warning_names_lambda_axis(self):
        # Decayed along tau, so the s axis is quiet; a unit gaussian in lambda cut at +-1.
        lam_grid = Grid.uniform(-1.0, 1.0, 21)
        tau_grid = Grid.uniform(-3.0, 3.0, 121)
        values = np.outer(np.exp(-lam_grid.points**2 / 2.0), np.exp(-4.0 * tau_grid.points**2))
        spectrum = FourierLaplaceSpectrum(lam_grid, 0.0, tau_grid, values)
        with pytest.warns(TruncationWarning, match="^lambda axis: spectrum at the endpoints is "
                          r"6\.07e-01 of its peak") as caught:
            inverse_fl(spectrum, 0.0, 1.0)
        assert [w.filename for w in caught] == [__file__]

    def test_time_must_be_positive(self):
        lam_grid = Grid.uniform(-1.0, 1.0, 5)
        tau_grid = Grid.uniform(-1.0, 1.0, 41)
        spectrum = FourierLaplaceSpectrum(
            lam_grid, 0.0, tau_grid, np.zeros((5, 41), dtype=complex)
        )
        with pytest.raises(ContractViolationError):
            inverse_fl(spectrum, 0.0, 0.0)


class TestInverseOnGaussNodesContour:
    # F(lam, s) = e^{-lam^2/2} / sqrt(2 pi) * 6 / (s + 1)^4 is the spectrum of
    # f(x, t) = e^{-x^2/2} t^3 e^{-t}.
    SIGMA = 0.5
    LAM_GRID = Grid.uniform(-8.0, 8.0, 81)

    def _spectrum(self, panels, lam_grid=LAM_GRID):
        nodes, _ = composite_gauss_nodes(-50.0, 50.0, 4, panels)
        tau_grid = Grid(nodes)
        values = np.outer(
            np.exp(-lam_grid.points**2 / 2.0) / math.sqrt(2.0 * math.pi),
            6.0 / (self.SIGMA + 1j * tau_grid.points + 1.0) ** 4,
        )
        return FourierLaplaceSpectrum(lam_grid, self.SIGMA, tau_grid, values)

    def test_fine_contour_inverts(self):
        spectrum = self._spectrum(700)  # largest step 0.049
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for x, t in ((0.3, 1.0), (-0.5, 2.0)):
                exact = math.exp(-x * x / 2.0) * t**3 * math.exp(-t)
                assert inverse_fl(spectrum, x, t) == pytest.approx(exact, abs=1e-6)

    def test_uneven_lambda_grid_inverts(self):
        # The lambda axis takes any grid too: steps of 0.05 on [-8, 0] and 0.1 on [0, 8].
        # The lambda sum of the even real part is exact to rounding there; the odd imaginary
        # part misses by about 2.5e-4 x (TestInverse::test_nonuniform_grid_recovers_the_gaussian
        # of test_fourier_transform.py), so only the real part is held to 1e-6.
        lam = Grid(np.concatenate((np.linspace(-8.0, 0.0, 161), np.linspace(0.1, 8.0, 80))))
        spectrum = self._spectrum(700, lam)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for x, t in ((0.3, 1.0), (-0.5, 2.0)):
                exact = math.exp(-x * x / 2.0) * t**3 * math.exp(-t)
                assert inverse_fl(spectrum, x, t).real == pytest.approx(exact, abs=1e-6)

    def test_coarse_contour_rejected_on_s_axis(self):
        spectrum = self._spectrum(400)  # largest step 0.085
        with pytest.raises(AliasingError, match="s axis"):
            inverse_fl(spectrum, 0.3, 1.0)


class TestNonFiniteEvaluationPoint:
    SPECTRUM = FourierLaplaceSpectrum(
        Grid.uniform(-2.0, 2.0, 11), 0.0, Grid.uniform(-2.0, 2.0, 81),
        np.ones((11, 81), dtype=complex),
    )

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    def test_x_rejected(self, x):
        with pytest.raises(ContractViolationError, match="x must be finite"):
            inverse_fl(self.SPECTRUM, x, 1.0)

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_t_rejected(self, t):
        with pytest.raises(ContractViolationError, match="t must be finite"):
            inverse_fl(self.SPECTRUM, 0.0, t)


class TestTwoDimensionalOrthogonality:
    def test_doubly_truncated_inner_product_factors(self):
        # the regularized inner product of two 2-D eigenfunctions equals the
        # product of the 1-D regularized kernels
        sigma = 0.7
        lam, lam_p = 1.0, 0.4
        mu, mu_p = 2.0, 1.3
        A, T_t = 6.0, 9.0
        problem = EigenProblemSpec.product_2d(sigma)
        y1 = Eigenvalue((lam, mu), "continuum")
        y2 = Eigenvalue((lam_p, mu_p), "continuum")

        def inner_t(x):
            def integrand_t(t):
                t = np.asarray(t, float)
                prod = eigenfunction_eval(problem, y1, (x, t)) * np.conj(
                    eigenfunction_eval(problem, y2, (x, t))
                )
                return np.exp(-2.0 * sigma * t) * prod

            return integrate(
                integrand_t, (0.0, T_t), panels=oscillation_panels(mu - mu_p, 0.0, T_t)
            )

        def integrand_x(x):
            x = np.asarray(x, float)
            flat = np.atleast_1d(x)
            vals = np.array([inner_t(float(v)) for v in flat])
            return vals.reshape(x.shape)

        full = integrate(
            integrand_x, (-A, A), panels=oscillation_panels(lam - lam_p, -A, A)
        )
        factored = (
            2.0
            * math.pi
            * dirichlet_delta(lam - lam_p, A)
            * weighted_orthogonality_check(mu, mu_p, sigma, T_t)
        )
        assert full == pytest.approx(factored, abs=1e-10)


class TestSeparability:
    """forward_fl of g(x) h(t) is the outer product of forward_ft(g) and laplace_line(h).

    The t axis of forward_fl sums the damped integrand on the rule of
    laplace_line, and TestStreamedBuild checks it against an explicit double
    sum, so this checks the x axis (against the gauss-legendre whole-grid FT
    on the same rule) and the 1/(2 pi) split, not the t rule.
    """

    @settings(max_examples=10, deadline=None)
    @given(st.floats(min_value=-2.0, max_value=2.0), st.integers(min_value=0, max_value=3),
           st.floats(min_value=0.5, max_value=2.0))
    def test_separable_product(self, c, n, a):
        def g(x):
            return np.exp(-((np.asarray(x, float) - c) ** 2) / 2.0) + 0j

        def h(t):
            t = np.asarray(t, float)
            return t**n * np.exp(-a * t) + 0j

        lam_grid = Grid.uniform(-4.0, 4.0, 17)
        tau_grid = Grid.uniform(-5.0, 5.0, 21)
        sigma = 0.3
        X = 60.0  # t^3 e^{-0.8 t} leaves a tail of 4e-16 here, 1e-9 at X_TRUNC
        fl = forward_fl(lambda x, t: g(x) * h(t), lam_grid, sigma, tau_grid, (A_TRUNC, X))
        ft = forward_ft(g, lam_grid, A_TRUNC, QuadratureSpec(method="gauss-legendre"))
        line = laplace_line(h, sigma, tau_grid, X)
        expected = np.outer(ft.values, line.values)
        assert np.max(np.abs(fl.values - expected)) <= 1e-12 * np.max(np.abs(expected))
