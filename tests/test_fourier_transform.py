import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from unitransform import (
    AliasingError,
    ContinuousSpectrum,
    ContractViolationError,
    EvaluationError,
    Grid,
    TruncationWarning,
    dirichlet_delta,
    forward_ft,
    integrate,
    inverse_ft,
    oscillation_panels,
)

from conftest import gauss_sum


def gaussian(x):
    return np.exp(-np.asarray(x, float) ** 2 / 2.0) + 0j


def gaussian_spectrum(lam):
    # closed form under the 1/(2 pi) forward normalization
    return np.exp(-np.asarray(lam, float) ** 2 / 2.0) / math.sqrt(2.0 * math.pi)


class TestForward:
    def test_ends_are_evaluated_before_the_pass(self):
        # f is undefined at the truncation +-A = +-1.  forward_ft reads |f(+-A)| for its
        # endpoint guard itself, before integrate_grid evaluates any node, so -A is named.
        calls = []

        def f(x):
            x = np.asarray(x, float)
            calls.append(x.size)
            return np.where(np.abs(x) < 1.0, 1.0 - x * x, np.nan) + 0j

        with pytest.raises(EvaluationError, match=r"x=-1\.0$"):
            forward_ft(f, Grid.uniform(-1.0, 1.0, 3), 1.0)
        assert calls == [2]

    def test_gaussian_at_zero(self):
        grid = Grid.uniform(-1.0, 1.0, 3)
        spectrum = forward_ft(gaussian, grid, 12.0)
        assert spectrum.values[1].real == pytest.approx(1.0 / math.sqrt(2.0 * math.pi), abs=1e-12)
        assert spectrum.convention == "paper-fourier"

    def test_gaussian_at_one(self):
        grid = Grid.uniform(-1.0, 1.0, 3)
        spectrum = forward_ft(gaussian, grid, 12.0)
        expected = math.exp(-0.5) / math.sqrt(2.0 * math.pi)
        assert spectrum.values[2].real == pytest.approx(expected, abs=1e-12)
        assert abs(spectrum.values[2].imag) < 1e-12

    def test_gaussian_against_quadrature_oracle(self):
        # independent route for lam = 1: direct quadrature of the defining
        # integral on a fixed fine composite rule
        oracle = gauss_sum(gaussian, -12.0, 12.0, 24, 24, 1.0) / (2.0 * math.pi)
        assert oracle == pytest.approx(gaussian_spectrum(1.0), abs=1e-13)

    def test_odd_function_vanishes_at_zero(self):
        f = lambda x: np.asarray(x, float) * np.exp(-np.asarray(x, float) ** 2) + 0j
        spectrum = forward_ft(f, Grid.uniform(-1.0, 1.0, 3), 10.0)
        assert abs(spectrum.values[1]) < 1e-12

    def test_shift_modulates_spectrum(self):
        h = 0.7
        grid = Grid.uniform(-3.0, 3.0, 13)
        base = forward_ft(gaussian, grid, 12.0)
        shifted = forward_ft(lambda x: gaussian(np.asarray(x, float) - h), grid, 12.0)
        modulated = np.exp(1j * grid.points * h) * base.values
        np.testing.assert_allclose(shifted.values, modulated, atol=1e-8)

    def test_truncation_must_be_positive(self):
        with pytest.raises(ContractViolationError):
            forward_ft(gaussian, Grid.uniform(-1, 1, 3), 0.0)

    def test_slow_decay_at_truncation_warns(self):
        # 1/(1+x^2) is 1/145 of its peak at A = 12
        f = lambda x: 1.0 / (1.0 + np.asarray(x, float) ** 2) + 0j
        with pytest.warns(TruncationWarning, match="raise the truncation A"):
            forward_ft(f, Grid.uniform(-1.0, 1.0, 3), 12.0)

    def test_decayed_function_does_not_warn(self, recwarn):
        forward_ft(gaussian, Grid.uniform(-1.0, 1.0, 3), 6.0)  # e^{-18} at A = 6
        assert not [w for w in recwarn if issubclass(w.category, TruncationWarning)]


def _bump(c, s, amp):
    return lambda x: amp * np.exp(-((np.asarray(x, float) - c) ** 2) / (2.0 * s * s)) + 0j


# Random gaussians amp * exp(-(x-c)^2 / 2s^2), negligible beyond A = 20.
bumps = st.tuples(
    st.floats(min_value=-1.0, max_value=1.0),
    st.floats(min_value=0.6, max_value=1.5),
    st.complex_numbers(min_magnitude=0.1, max_magnitude=2.0),
)
A_PROP = 20.0


class TestConventionProperties:
    @settings(max_examples=10, deadline=None)
    @given(bumps, bumps, st.complex_numbers(max_magnitude=3.0))
    def test_linearity(self, p, q, alpha):
        f, g = _bump(*p), _bump(*q)
        grid = Grid.uniform(-6.0, 6.0, 61)
        combined = forward_ft(lambda x: alpha * f(x) + g(x), grid, A_PROP).values
        split = alpha * forward_ft(f, grid, A_PROP).values + forward_ft(g, grid, A_PROP).values
        np.testing.assert_allclose(combined, split, rtol=0, atol=1e-11)

    @settings(max_examples=10, deadline=None)
    @given(bumps, st.floats(min_value=-2.0, max_value=2.0))
    def test_shift_is_modulation(self, p, a):
        # f(x - a) has the spectrum e^{i lam a} F(lam)
        f = _bump(*p)
        grid = Grid.uniform(-6.0, 6.0, 61)
        shifted = forward_ft(lambda x: f(np.asarray(x, float) - a), grid, A_PROP).values
        modulated = np.exp(1j * grid.points * a) * forward_ft(f, grid, A_PROP).values
        np.testing.assert_allclose(shifted, modulated, rtol=0, atol=1e-11)

    @settings(max_examples=10, deadline=None)
    @given(bumps)
    def test_plancherel(self, p):
        # with the 1/(2pi) on the forward side: int |f|^2 dx = 2pi int |F|^2 dlam
        c, s, amp = p
        grid = Grid.uniform(-12.0, 12.0, 241)
        F = forward_ft(_bump(c, s, amp), grid, A_PROP).values
        spectral = 2.0 * math.pi * np.dot(grid.trapezoid_weights(), np.abs(F) ** 2)
        energy = abs(amp) ** 2 * s * math.sqrt(math.pi)
        assert spectral == pytest.approx(energy, rel=1e-10)


class TestInverse:
    def test_roundtrip_at_origin(self):
        lam_grid = Grid.uniform(-12.0, 12.0, 481)
        spectrum = forward_ft(gaussian, lam_grid, 12.0)
        out = inverse_ft(spectrum, Grid.uniform(-1.0, 1.0, 3))
        assert out.values[1].real == pytest.approx(1.0, abs=1e-6)

    def test_zero_spectrum_gives_zero_function(self):
        lam_grid = Grid.uniform(-5.0, 5.0, 101)
        spectrum = ContinuousSpectrum(lam_grid, np.zeros(101, dtype=complex))
        out = inverse_ft(spectrum, Grid.uniform(-2.0, 2.0, 9))
        assert np.max(np.abs(out.values)) == 0.0

    def test_analytic_gaussian_spectrum(self):
        lam_grid = Grid.uniform(-12.0, 12.0, 481)
        spectrum = ContinuousSpectrum(lam_grid, gaussian_spectrum(lam_grid.points) + 0j)
        out = inverse_ft(spectrum, Grid.uniform(0.0, 1.0, 2))
        assert out.values[1].real == pytest.approx(math.exp(-0.5), abs=1e-8)

    def test_aliasing_guard(self):
        lam_grid = Grid.uniform(-10.0, 10.0, 21)  # step 1.0
        spectrum = ContinuousSpectrum(lam_grid, gaussian_spectrum(lam_grid.points) + 0j)
        with pytest.raises(AliasingError):
            inverse_ft(spectrum, Grid.uniform(-3.0, 3.0, 7))

    def test_nonuniform_grid_recovers_the_gaussian(self):
        # Steps of h1 = 0.05 on [-12, 0] and h2 = 0.1 on [0, 12].  With g = F(lam) e^{-i lam x},
        # the trapezoid sum misses the integral by the Euler-Maclaurin terms at the junction
        # lam = 0: (h1^2 - h2^2)/12 g'(0) + (h2^4 - h1^4)/720 g'''(0) + ..., where
        # g'(0) = -i x F(0) and g'''(0) = i (x^3 + 3x) F(0).  The real part F cos(lam x) is
        # even, so its odd derivatives vanish there and it is exact to rounding; the imaginary
        # part is the first term, x (h2^2 - h1^2) F(0) / 12, give or take the second, below
        # 7.3e-7 for |x| <= 2.  The largest step, 0.1, keeps |x| * step within pi/4.
        grid = Grid(np.concatenate((np.linspace(-12.0, 0.0, 241), np.linspace(0.1, 12.0, 120))))
        assert grid.spacing == pytest.approx(0.1, rel=1e-12)
        spectrum = ContinuousSpectrum(grid, gaussian_spectrum(grid.points))
        x = Grid.uniform(-2.0, 2.0, 41)
        got = inverse_ft(spectrum, x).values
        leading = x.points * (0.1**2 - 0.05**2) * gaussian_spectrum(0.0) / 12.0
        assert np.max(np.abs(got.real - np.exp(-x.points**2 / 2.0))) <= 1e-13
        assert np.max(np.abs(got.imag - leading)) <= 1e-6

    def test_spectrum_cut_before_it_decays_warns(self):
        # The ift repro: cut at +-1, |F| at the ends is e^-0.5 of its peak, and the sum
        # reads 0.6826 at x = 0 where f is 1.
        spectrum = forward_ft(gaussian, Grid.uniform(-1.0, 1.0, 41), 12.0)
        with pytest.warns(TruncationWarning, match=r"^spectrum at the endpoints is 6\.07e-01 of "
                          r"its peak; raise the largest \|lambda\| of the spectrum grid") as caught:
            inverse_ft(spectrum, Grid.uniform(0.0, 2.0, 3))
        assert [w.filename for w in caught] == [__file__]

    def test_full_roundtrip_sup_error(self):
        lam_grid = Grid.uniform(-12.0, 12.0, 481)
        spectrum = forward_ft(gaussian, lam_grid, 12.0)
        x_grid = Grid.uniform(-3.0, 3.0, 121)
        out = inverse_ft(spectrum, x_grid)
        err = np.max(np.abs(out.values - gaussian(x_grid.points)))
        assert err <= 1e-6


class TestDirichletDelta:
    def test_limit_value(self):
        assert dirichlet_delta(0.0, 10.0) == pytest.approx(10.0 / math.pi, rel=1e-15)
        assert dirichlet_delta(1e-15, 10.0) == pytest.approx(10.0 / math.pi, rel=1e-12)

    def test_kernel_zero(self):
        assert dirichlet_delta(math.pi / 10.0, 10.0) == pytest.approx(0.0, abs=1e-15)

    # |a| and A log-uniform; the examples are a tiny a whose a*A is of order 1,
    # far from the a = 0 limit A/pi
    @settings(max_examples=200, deadline=None)
    @given(st.tuples(st.sampled_from([-1.0, 1.0]), st.floats(-20.0, 3.0))
           .map(lambda p: p[0] * 10.0**p[1]),
           st.floats(-3.0, 13.0).map(lambda e: 10.0**e))
    @example(5e-13, 1e13)
    @example(-9.724392907738264e-13, 4814276065140.364)
    def test_matches_sine_over_scales(self, a, A):
        assert abs(dirichlet_delta(a, A) - math.sin(a * A) / (math.pi * a)) <= 1e-13 * A / math.pi

    def test_direct_value_against_quadrature(self):
        a, A = 1.0, 20.0
        assert dirichlet_delta(a, A) == pytest.approx(math.sin(20.0) / math.pi, rel=1e-14)
        quad = integrate(
            lambda x: np.exp(-1j * a * np.asarray(x, float)),
            (-A, A),
            panels=oscillation_panels(a, -A, A),
        ) / (2.0 * math.pi)
        assert quad.real == pytest.approx(dirichlet_delta(a, A), abs=1e-12)
        assert abs(quad.imag) < 1e-12

    def test_sifting_property(self):
        A = 50.0
        bound = 8.0

        def integrand(lam):
            lam = np.asarray(lam, float)
            kernel = np.array([dirichlet_delta(float(v), A) for v in np.atleast_1d(lam)])
            return np.exp(-(lam**2)) * kernel.reshape(lam.shape) + 0j

        value = integrate(
            integrand, (-bound, bound), panels=oscillation_panels(A, -bound, bound)
        )
        assert value.real == pytest.approx(1.0, abs=1e-3)

    def test_sifting_improves_with_truncation(self):
        bound = 8.0
        errors = []
        for A in (10.0, 30.0, 50.0):
            def integrand(lam, A=A):
                lam = np.asarray(lam, float)
                kernel = np.array([dirichlet_delta(float(v), A) for v in np.atleast_1d(lam)])
                return np.exp(-(lam**2)) * kernel.reshape(lam.shape) + 0j

            value = integrate(
                integrand, (-bound, bound), panels=oscillation_panels(A, -bound, bound)
            )
            errors.append(abs(value.real - 1.0))
        assert errors[2] < errors[0]

    def test_negative_truncation_rejected(self):
        with pytest.raises(ContractViolationError):
            dirichlet_delta(1.0, -1.0)


class TestContinuumNonNormalizability:
    @pytest.mark.parametrize("A", [5.0, 10.0, 20.0])
    def test_windowed_norm_grows_linearly(self, A):
        lam = 3.0
        norm = integrate(
            lambda x: np.abs(np.exp(-1j * lam * np.asarray(x))) ** 2 + 0j, (-A, A)
        )
        assert norm.real == pytest.approx(2.0 * A, abs=1e-12)
