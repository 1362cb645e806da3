import math
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
    ExcludedSampleWarning,
    FourierLaplaceSpectrum,
    Grid,
    InsufficientDataError,
    LaplaceSpectrum,
    QuadratureError,
    SampledFunction,
    TruncationWarning,
    bromwich_inverse,
    bromwich_inverse_from_samples,
    estimate_abscissa,
    forward_ft,
    forward_laplace,
    integrate,
    laplace_line,
    oscillation_panels,
    weighted_orthogonality_check,
)
from unitransform.laplace import _E1_SERIES, _e1, _line_inverse, _tail_weights
from unitransform.numerics import composite_gauss_nodes

from conftest import gauss_sum

ONE = lambda x: np.ones_like(np.asarray(x, float)) + 0j


class TestForwardLaplace:
    def test_constant(self):
        r = forward_laplace(ONE, 2.0, 40.0)
        assert r.value == pytest.approx(0.5, abs=1e-12)
        assert r.tail_estimate < 1e-12

    def test_exponential_growth_below_s(self):
        r = forward_laplace(lambda x: np.exp(3.0 * np.asarray(x, float)) + 0j, 5.0, 40.0)
        assert r.value == pytest.approx(0.5, abs=1e-10)

    def test_ramp_at_complex_s(self):
        r = forward_laplace(lambda x: np.asarray(x, float) + 0j, 1 + 1j, 60.0)
        assert r.value == pytest.approx(1.0 / (1 + 1j) ** 2, abs=1e-12)

    def test_ramp_against_quadrature_oracle(self):
        # independent fixed-rule route for the same integral
        s = 1 + 1j
        oracle = gauss_sum(lambda x: x * np.exp(-s * x), 0.0, 60.0, 24, 30)
        assert oracle == pytest.approx(-0.5j, abs=1e-12)

    def test_divergence_propagates(self):
        with pytest.raises(DivergenceError):
            forward_laplace(lambda x: np.exp(3.0 * np.asarray(x, float)) + 0j, 2.0, 40.0)

    def test_linearity(self):
        f = lambda x: np.sin(np.asarray(x, float)) + 0j
        g = lambda x: np.asarray(x, float) + 0j
        s = 2.0 + 0.5j
        combo = forward_laplace(lambda x: 3.0 * f(x) - 2.0 * g(x), s, 60.0).value
        split = 3.0 * forward_laplace(f, s, 60.0).value - 2.0 * forward_laplace(g, s, 60.0).value
        assert combo == pytest.approx(split, abs=1e-10)

    def test_lambda_form_is_same_computation(self):
        # s = sigma - i*lam written either way drives the identical kernel
        sigma, lam = 2.0, 3.0
        xs = np.linspace(0.0, 5.0, 64)
        via_s = np.exp(-(sigma - 1j * lam) * xs)
        via_lam = np.exp((-sigma + 1j * lam) * xs)
        assert np.array_equal(via_s, via_lam)
        a = forward_laplace(ONE, sigma - 1j * lam, 40.0).value
        b = forward_laplace(ONE, complex(sigma, -lam), 40.0).value
        assert a == b


class TestBromwichInverse:
    def test_ramp_recovered(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            v = bromwich_inverse(lambda s: 1.0 / s**2, 1.0, 400.0, 2.0)
        assert v.real == pytest.approx(2.0, abs=1e-3)
        assert abs(v.imag) <= 1e-6

    def test_sine_recovered(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            v = bromwich_inverse(lambda s: 1.0 / (s**2 + 1.0), 1.0, 400.0, 1.0)
        assert v.real == pytest.approx(math.sin(1.0), abs=1e-3)

    def test_step_value_within_tight_tolerance(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            v = bromwich_inverse(lambda s: 1.0 / s, 1.0, 400.0, 1.0)
        assert v.real == pytest.approx(1.0, abs=1e-3)

    def test_step_value_within_achievable_tolerance(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            v = bromwich_inverse(lambda s: 1.0 / s, 1.0, 400.0, 1.0)
        assert v.real == pytest.approx(1.0, abs=3e-3)
        assert abs(v.imag) <= 1e-6

    def test_shifted_pole_within_tight_tolerance(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            v = bromwich_inverse(lambda s: 1.0 / (s - 2.0), 3.0, 400.0, 0.5)
        assert v.real == pytest.approx(math.e, abs=1e-3)

    def test_truncation_warning_for_slow_decay(self):
        with pytest.warns(TruncationWarning):
            bromwich_inverse(lambda s: 1.0 / s, 1.0, 50.0, 1.0)

    def test_no_warning_for_fast_decay(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", TruncationWarning)
            v = bromwich_inverse(lambda s: 1.0 / (s + 1.0) ** 4, 0.0, 400.0, 2.0)
        assert v.real == pytest.approx(8.0 * math.exp(-2.0) / 6.0, abs=1e-6)

    def test_scalar_only_transform_callable(self):
        def fhat(s):
            if isinstance(s, np.ndarray):
                raise TypeError("scalar only")
            return 1.0 / s**2

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            v = bromwich_inverse(fhat, 1.0, 100.0, 1.0)
        assert v.real == pytest.approx(1.0, abs=1e-2)

    def test_non_finite_transform_rejected(self):
        fhat = lambda s: np.where(s.imag > 5, np.inf, 1 / (s + 1) ** 2)
        with pytest.raises(EvaluationError, match="s="):
            bromwich_inverse(fhat, 1.0, 50.0, 1.0)

    def test_contour_weight_outside_float_range_raises(self):
        # e^{sigma t} = e^{800} is refused before it is formed, not summed into nan + nan i.
        with pytest.raises(QuadratureError, match=r"^e\^\(sigma\*t\) at sigma=10, t=80 overflows a "
                           r"float: exponent 800 > 709\.78$"):
            bromwich_inverse(lambda s: 1.0 / (s + 1.0) ** 2, 10.0, 20.0, 80.0)

    def test_contour_weight_refused_before_fhat_is_sampled(self):
        calls = []

        def fhat(s):
            calls.append(np.size(s))
            return 1.0 / (s + 1.0) ** 2

        with pytest.raises(QuadratureError, match=r"^e\^\(sigma\*t\) at sigma=10, t=80 overflows a "
                           r"float: exponent 800 > 709\.78$"):
            bromwich_inverse(fhat, 10.0, 400.0, 80.0)
        assert calls == []

    def test_parameter_validation(self):
        with pytest.raises(ContractViolationError):
            bromwich_inverse(lambda s: 1.0 / s, 1.0, 0.0, 1.0)
        with pytest.raises(ContractViolationError):
            bromwich_inverse(lambda s: 1.0 / s, 1.0, 10.0, 0.0)


class TestBromwichFromSamples:
    def test_matches_callable_route(self):
        sigma, T = 0.0, 200.0
        n = int(math.ceil(T / 0.05))
        tau_grid = Grid.uniform(-T, T, 2 * n + 1)
        fhat = lambda s: 1.0 / (s + 1.0) ** 4
        spectrum = LaplaceSpectrum(sigma, tau_grid, fhat(sigma + 1j * tau_grid.points))
        for t in (0.5, 1.5):
            direct = bromwich_inverse(fhat, sigma, T, t)
            sampled = bromwich_inverse_from_samples(spectrum, t)
            assert sampled == pytest.approx(direct, abs=1e-12)

    def test_coarse_contour_rejected(self):
        tau_grid = Grid.uniform(-10.0, 10.0, 21)  # step 1.0 > 0.05
        spectrum = LaplaceSpectrum(0.0, tau_grid, np.ones(21, dtype=complex))
        with pytest.raises(AliasingError):
            bromwich_inverse_from_samples(spectrum, 1.0)

    def test_coarse_non_uniform_contour_rejected(self):
        # The step bound reads the largest step of any grid, not only a uniform one: steps of
        # 1, then 0.5.
        tau_grid = Grid(np.concatenate((np.linspace(-10.0, 0.0, 11), np.linspace(0.5, 10.0, 20))))
        assert tau_grid.spacing == 1.0
        spectrum = LaplaceSpectrum(0.0, tau_grid, 1.0 / (1.0 + 1j * tau_grid.points) ** 2)
        with pytest.raises(AliasingError, match="contour step 1 exceeds"):
            bromwich_inverse_from_samples(spectrum, 1.0)


def _contour_points():
    """z = -(sigma +- iT) t over the sigma, T and t of tier-1 and the benchmark, and points
    near the negative real axis, where E1 switches to its power series."""
    zs = [-(sigma + sign * 1j * T) * t
          for sigma in (-1.0, 0.0, 0.25, 0.5, 1.0, 3.0)
          for T in (2.0, 10.0, 25.0, 50.0, 100.0, 200.0, 400.0)
          for t in (0.1, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 5.0)
          for sign in (1, -1)]
    return zs + [complex(-r, sign * r * q) for r in (1.5, 5.0, 20.0, 39.0)
                 for q in (0.01, 0.3, 0.49) for sign in (1, -1)]


class TestContourTails:
    """_line_inverse adds the tails beyond the stored ends in closed form, +-a E1(-s t) / 2pi i
    with a = s fhat(s) at each end, as weights on the end values."""

    def test_e1_matches_scipy_on_both_branches(self):
        special = pytest.importorskip("scipy.special")
        zs = _contour_points()
        series = [z for z in zs
                  if abs(z) < _E1_SERIES or (z.real < -2 * abs(z.imag) and abs(z) < 40)]
        assert 20 <= len(series) < len(zs) - 200
        ours = np.array([_e1(z) for z in zs])
        theirs = special.exp1(np.array(zs))
        rel = np.abs(ours - theirs) / np.abs(theirs)
        worst = int(np.argmax(rel))
        assert rel[worst] <= 1e-13, f"E1({zs[worst]}) is {rel[worst]:.2e} off scipy"

    @pytest.mark.parametrize("fhat, f, sigma", [
        (lambda s: 1.0 / s, lambda t: 1.0, 0.5),
        (lambda s: 1.0 / (s - 2.0), lambda t: math.exp(2.0 * t), 3.0),
        (lambda s: 1.0 / (s + 1.0), lambda t: math.exp(-t), 0.25),
    ], ids=["step", "shifted-pole", "decay"])
    def test_stored_line_matches_long_contour(self, fhat, f, sigma):
        # At T = 50 the plain trapezoid sum misses by the tails, about e^{sigma t}/(pi T t);
        # with them it agrees with a T = 2000 line and with the closed form to 0.3% of that.
        short, long = (LaplaceSpectrum(sigma, tau, fhat(sigma + 1j * tau.points))
                       for tau in (Grid.uniform(-50.0, 50.0, 2001), Grid.uniform(-2e3, 2e3, 80001)))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            for t in (0.5, 1.0, 2.0):
                value, reference = (bromwich_inverse_from_samples(line, t) for line in (short, long))
                first, last = _tail_weights(short._s, t)
                tails = (first * short.values[0] + last * short.values[-1]) / (2.0 * math.pi)
                assert abs(tails) >= 1e-3 * math.exp(sigma * t) / (math.pi * 50.0 * t)
                assert abs(value - reference) <= 3e-3 * abs(tails)
                assert abs(value - f(t)) <= 3e-3 * abs(tails)

    def test_inverse_fl_corrects_every_lambda_row(self):
        # A separable spectrum g(lam) / (s + 1) on T = 40: the s-axis read of each row, tails
        # included, is that row's own stored-line read, and g(lam) times a T = 2000 read.
        sigma, t = 0.5, 1.0
        lam, tau = Grid.uniform(-3.0, 3.0, 31), Grid.uniform(-40.0, 40.0, 1601)
        g = np.exp(-lam.points ** 2 / 2.0) * (1.0 + 0.3j * lam.points)
        row = lambda tau: 1.0 / (sigma + 1j * tau.points + 1.0)
        spectrum = FourierLaplaceSpectrum(lam, sigma, tau, np.outer(g, row(tau)))
        long = Grid.uniform(-2e3, 2e3, 80001)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            per_row = _line_inverse(spectrum, t)
            reference = bromwich_inverse_from_samples(LaplaceSpectrum(sigma, long, row(long)), t)
            for i, gi in enumerate(g):
                line = LaplaceSpectrum(sigma, tau, gi * row(tau))
                assert per_row[i] == pytest.approx(bromwich_inverse_from_samples(line, t),
                                                   abs=1e-15)
        assert np.max(np.abs(per_row - g * reference)) <= 1e-5
        assert reference == pytest.approx(math.exp(-t), abs=1e-7)

    def test_one_sided_contour_has_no_tail_through_the_real_axis(self):
        # A tau grid that ends at 0 has no tail beyond that end: E1 is never read on its cut.
        tau = Grid.uniform(0.0, 10.0, 201)
        line = LaplaceSpectrum(0.5, tau, 1.0 / (0.5 + 1j * tau.points))
        first, last = _tail_weights(line._s, 1.0)
        assert first == 0
        assert last == pytest.approx((0.5 + 10j) * _e1(-(0.5 + 10j)) / 1j, rel=1e-15)


class TestWeightedOrthogonality:
    def test_diagonal_is_exact_truncation_length(self):
        for sigma in (-1.0, 0.0, 2.0, 10.0):
            assert weighted_orthogonality_check(1.0, 1.0, sigma, 50.0) == 50.0 + 0j

    def test_whole_period_cancellation(self):
        A = 10.0
        v = weighted_orthogonality_check(1.0 + 2.0 * math.pi / A, 1.0, 2.0, A)
        assert abs(v) <= 1e-10

    def test_closed_form_value(self):
        v = weighted_orthogonality_check(1.0, 0.0, 2.0, 10.0)
        expected = (1.0 - np.exp(-10j)) / 1j
        assert v == pytest.approx(expected, abs=1e-14)

    @pytest.mark.parametrize("lam,mu", [(1.0, 0.0), (2.5, -0.5), (0.3, 0.2999)])
    def test_against_weighted_quadrature_oracle(self, lam, mu):
        # dual route: integrate the full weighted product of eigenfunctions
        sigma, A = 1.5, 10.0

        def integrand(x):
            x = np.asarray(x, float)
            return (
                np.exp(-2.0 * sigma * x)
                * np.exp((sigma - 1j * lam) * x)
                * np.exp((sigma + 1j * mu) * x)
            )

        oracle = integrate(
            integrand, (0.0, A), panels=oscillation_panels(lam - mu, 0.0, A)
        )
        assert weighted_orthogonality_check(lam, mu, sigma, A) == pytest.approx(
            oracle, abs=1e-9
        )

    def test_small_phase_stability(self):
        v = weighted_orthogonality_check(1.0 + 1e-9, 1.0, 0.0, 10.0)
        assert v == pytest.approx(10.0, abs=1e-6)


class TestLaplaceLine:
    def test_line_matches_pointwise_calls(self):
        tau_grid = Grid.uniform(-2.0, 2.0, 5)
        spectrum = laplace_line(ONE, 1.0, tau_grid, 40.0)
        for tau, value in zip(tau_grid.points, spectrum.values):
            assert value == pytest.approx(1.0 / (1.0 + 1j * tau), abs=1e-10)

    def test_one_integrand_call_holds_the_rule_and_the_decay_probe(self):
        calls = []

        def f(x):
            calls.append(np.array(x, float))
            return np.exp(-calls[-1]) + 0j

        tau_grid = Grid.uniform(-2.0, 2.0, 41)
        spectrum = laplace_line(f, 0.5, tau_grid, 40.0)
        assert len(calls) == 1
        nodes, _ = composite_gauss_nodes(0.0, 40.0, 10, oscillation_panels(2.0, 0.0, 40.0))
        np.testing.assert_array_equal(calls[0], np.concatenate((nodes, [20.0, 40.0])))
        expected = 1.0 / (1.5 + 1j * tau_grid.points)
        assert np.max(np.abs(spectrum.values - expected)) <= 1e-12

    def test_gauss_nodes_tau_grid_matches_closed_form(self):
        # L[t^3 e^{-t}](s) = 6 / (s + 1)^4 on a non-uniform tau grid
        nodes, _ = composite_gauss_nodes(-10.0, 10.0, 5, 4)
        tau_grid = Grid(nodes)
        f = lambda x: np.asarray(x, float) ** 3 * np.exp(-np.asarray(x, float)) + 0j
        spectrum = laplace_line(f, 0.5, tau_grid, 40.0)
        expected = 6.0 / (1.5 + 1j * tau_grid.points) ** 4
        assert np.max(np.abs(spectrum.values - expected)) <= 1e-10


class TestDefaultInversionSigma:
    def test_one_above_fitted_rate(self):
        from unitransform import default_inversion_sigma

        grid = Grid.uniform(0.0001, 10.0, 101)
        samples = SampledFunction(grid, np.exp(2.0 * grid.points) + 0j)
        assert default_inversion_sigma(samples) == pytest.approx(3.0, abs=0.01)


class TestEstimateAbscissa:
    def test_pure_exponential(self):
        grid = Grid.uniform(0.0001, 10.0, 101)
        samples = SampledFunction(grid, np.exp(2.0 * grid.points) + 0j)
        est = estimate_abscissa(samples)
        assert est.sigma_hat == pytest.approx(2.0, abs=0.01)
        assert est.M_hat == pytest.approx(1.0, rel=1e-6)

    def test_constant_function(self):
        grid = Grid.uniform(0.0001, 10.0, 101)
        est = estimate_abscissa(SampledFunction(grid, 5.0 * np.ones(101) + 0j))
        assert abs(est.sigma_hat) <= 1e-10
        assert est.M_hat == pytest.approx(5.0, rel=1e-9)

    def test_subexponential_factor_inflates_slope(self):
        grid = Grid.uniform(0.0001, 10.0, 101)
        samples = SampledFunction(grid, grid.points * np.exp(grid.points) + 0j)
        est = estimate_abscissa(samples)
        assert 1.0 <= est.sigma_hat <= 1.3
        assert est.fit_residual > 0

    def test_insufficient_samples(self):
        grid = Grid.uniform(0.5, 3.0, 6)
        with pytest.raises(InsufficientDataError):
            estimate_abscissa(SampledFunction(grid, np.ones(6) + 0j))

    def test_zero_samples_excluded_with_warning(self):
        grid = Grid.uniform(0.5, 10.0, 20)
        values = np.exp(grid.points).astype(complex)
        values[3] = 0.0
        with pytest.warns(ExcludedSampleWarning):
            est = estimate_abscissa(SampledFunction(grid, values))
        assert est.sigma_hat == pytest.approx(1.0, abs=0.01)

    def test_nonpositive_x_ignored(self):
        grid = Grid.uniform(-5.0, 10.0, 31)
        values = np.exp(grid.points).astype(complex)
        est = estimate_abscissa(SampledFunction(grid, values))
        assert est.sigma_hat == pytest.approx(1.0, abs=0.01)


class TestNonFiniteTime:
    @pytest.mark.parametrize("t", [math.inf, math.nan])
    def test_callable_route(self, t):
        with pytest.raises(ContractViolationError, match="finite"):
            bromwich_inverse(lambda s: 1.0 / (s + 1.0) ** 2, 0.5, 10.0, t)

    @pytest.mark.parametrize("t", [math.inf, math.nan])
    def test_stored_route(self, t):
        tau_grid = Grid.uniform(-2.0, 2.0, 81)
        spectrum = LaplaceSpectrum(0.5, tau_grid, 1.0 / (1.5 + 1j * tau_grid.points) ** 2)
        with pytest.raises(ContractViolationError, match="finite"):
            bromwich_inverse_from_samples(spectrum, t)


class TestLineIsDampedFourierTransform:
    # L[f](sigma + i tau) = int_0^X f e^{-sigma t} e^{-i tau t} dt = 2 pi F[g](-tau)
    # for g(x) = f(x) e^{-sigma x} [x >= 0] and F(lam) = (1/2pi) int g e^{i lam x}.
    @settings(max_examples=10, deadline=None)
    @given(st.floats(min_value=0.5, max_value=3.0), st.floats(min_value=0.0, max_value=1.0))
    def test_cubic_decay(self, a, sigma):
        X = 100.0  # t^3 e^{-t/2} leaves a tail of 4e-8 at X = 60, 4e-16 here
        tau_grid = Grid.uniform(-3.0, 3.0, 13)

        def f(t):
            t = np.asarray(t, float)
            return t**3 * np.exp(-a * t) + 0j

        def g(x):
            x = np.asarray(x, float)
            xp = np.maximum(x, 0.0)
            return np.where(x >= 0.0, xp**3 * np.exp(-(a + sigma) * xp), 0.0) + 0j

        line = laplace_line(f, sigma, tau_grid, X).values
        # tau_grid is symmetric, so lambda = -tau is the same grid reversed.
        ft = forward_ft(g, tau_grid, X).values[::-1]
        np.testing.assert_allclose(line, 2.0 * math.pi * ft, rtol=1e-8, atol=0)
