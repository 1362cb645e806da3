import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unitransform import (
    ContractViolationError,
    FourierCoefficientSet,
    QuadratureError,
    Grid,
    QuadratureSpec,
    complex_coefficients,
    complex_to_real,
    forward_ft,
    gram_matrix,
    integrate,
    oscillation_panels,
    real_coefficients,
    synthesize,
)
from unitransform.numerics import integrate_grid


def _as_real(f):
    return lambda x: np.asarray(f(np.asarray(x, float)), dtype=float)


def sawtooth_coefficient(k: int) -> complex:
    # closed form for f(x) = x on (-1, 1): integration by parts gives
    # c_k = -i (-1)^k / (k pi), c_0 = 0
    if k == 0:
        return 0j
    return -1j * (-1.0) ** k / (k * math.pi)


class TestComplexCoefficients:
    def test_constant_function(self):
        coeffs = complex_coefficients(lambda x: np.ones_like(np.asarray(x, float)) + 0j, 1.0, 2)
        assert coeffs.c[0] == pytest.approx(1.0, abs=1e-12)
        for k in (-2, -1, 1, 2):
            assert abs(coeffs.c[k]) < 1e-12

    def test_single_eigenfunction(self):
        f = lambda x: np.exp(-1j * math.pi * np.asarray(x))
        coeffs = complex_coefficients(f, 1.0, 2)
        assert coeffs.c[1] == pytest.approx(1.0, abs=1e-12)
        for k in (-2, -1, 0, 2):
            assert abs(coeffs.c[k]) < 1e-12

    def test_sawtooth_closed_form(self):
        coeffs = complex_coefficients(lambda x: np.asarray(x, float) + 0j, 1.0, 3)
        for k in range(-3, 4):
            assert coeffs.c[k] == pytest.approx(sawtooth_coefficient(k), abs=1e-12)

    def test_sawtooth_against_quadrature_oracle(self):
        # independent route: plain high-order quadrature of the defining
        # integral, no oscillation-aware panel logic
        oracle_spec = QuadratureSpec(method="gauss-legendre", order=32)
        for k in (1, 2, 3):
            oracle = integrate(
                lambda x, k=k: np.asarray(x) * np.exp(1j * k * math.pi * np.asarray(x)),
                (-1.0, 1.0),
                oracle_spec,
                panels=8,
            ) / 2.0
            assert oracle == pytest.approx(sawtooth_coefficient(k), abs=1e-13)

    def test_symmetric_index_range_enforced(self):
        with pytest.raises(ContractViolationError):
            FourierCoefficientSet(L=1.0, c={0: 1.0 + 0j, 1: 0j})

    def test_conjugate_symmetry_for_real_input(self):
        f = lambda x: np.exp(np.cos(math.pi * np.asarray(x, float))) + 0j
        coeffs = complex_coefficients(f, 1.0, 8)
        defect, _ = coeffs.conjugate_symmetry_defect()
        assert defect <= 1e-10

    def test_linearity(self):
        f = lambda x: np.asarray(x, float) + 0j
        g = lambda x: np.cos(math.pi * np.asarray(x, float)) + 0j
        combo = complex_coefficients(lambda x: 2.0 * f(x) - 3.0 * g(x), 1.0, 3)
        cf = complex_coefficients(f, 1.0, 3)
        cg = complex_coefficients(g, 1.0, 3)
        for k in range(-3, 4):
            assert combo.c[k] == pytest.approx(2.0 * cf.c[k] - 3.0 * cg.c[k], abs=1e-11)


class TestCoefficientsInOnePass:
    @pytest.mark.parametrize("name, f, K, L", [
        ("exp(cos(pi x))", lambda x: np.exp(np.cos(math.pi * np.asarray(x, float))), 8, 1.0),
        ("exp(cos(pi x))", lambda x: np.exp(np.cos(math.pi * np.asarray(x, float))), 20, 1.0),
        ("x e^x", lambda x: np.asarray(x, float) * np.exp(np.asarray(x, float)), 12, math.pi),
        ("constant", lambda x: np.ones_like(np.asarray(x, float)), 0, 0.5),
    ], ids=["exp-cos-K8", "exp-cos-K20", "x-exp-x-K12", "constant-K0"])
    def test_one_integrate_grid_call(self, monkeypatch, name, f, K, L):
        # The 2K+1 coefficients are one integrate_grid pass over k pi/L, k = -K..K, with no
        # integrate call; they agree with the per-k integrate loop they replace.
        import unitransform.fourier_series as fs

        grids, singles = [], []

        def grid_spy(f, interval, grid, spec=None):
            grids.append(grid.points)
            return integrate_grid(f, interval, grid, spec)

        monkeypatch.setattr(fs, "integrate_grid", grid_spy)
        monkeypatch.setattr(fs, "integrate", lambda *args, **kw: singles.append(args))
        coeffs = complex_coefficients(f, L, K)
        assert len(grids) == 1 and not singles
        np.testing.assert_array_equal(grids[0], np.arange(-K, K + 1) * math.pi / L)
        monkeypatch.undo()

        loop = {k: integrate(lambda x, w=k * math.pi / L: f(x) * np.exp(1j * w * np.asarray(x)),
                             (-L, L), panels=oscillation_panels(k * math.pi / L, -L, L)) / (2 * L)
                for k in range(-K, K + 1)}
        scale = max(abs(c) for c in loop.values())
        gap, worst = max((abs(coeffs.c[k] - loop[k]), k) for k in loop)
        assert gap <= 1e-14 * scale, f"{name}, K={K}: k={worst} is {gap:.2e} off the per-k loop"

    def test_sampled_input_bisects_its_kinks_once(self):
        # A 601-sample interpolant has 599 interior kinks; the adaptive pass bisects each once
        # for every k.  The per-k loop took 7.75 M points at K = 16 (2.13 M at K = 4).
        from unitransform import SampledFunction
        from unitransform.cli import _interp_function

        x = np.linspace(-1.0, 1.0, 601)
        f = _interp_function(SampledFunction(Grid(x), np.exp(np.cos(math.pi * x)) + 0j))
        points = []

        def counted(xs):
            points.append(np.size(xs))
            return f(xs)

        coeffs = complex_coefficients(counted, 1.0, 16)
        assert sum(points) <= 300_000
        exact = complex_coefficients(lambda x: np.exp(np.cos(math.pi * np.asarray(x, float))), 1.0, 16)
        assert max(abs(coeffs.c[k] - exact.c[k]) for k in exact.c) <= 1e-4


class TestSynthesize:
    def test_constant_series(self):
        coeffs = FourierCoefficientSet(L=1.0, c={0: 1.0 + 0j})
        for x in (-0.9, 0.0, 0.4, 1.0):
            assert synthesize(coeffs, x) == 1.0 + 0j

    def test_single_term(self):
        coeffs = FourierCoefficientSet(L=1.0, c={-1: 0j, 0: 0j, 1: 1.0 + 0j})
        assert synthesize(coeffs, 0.5) == pytest.approx(-1j, abs=1e-15)

    def test_sawtooth_partial_sum_interior_point(self):
        K = 64
        coeffs = complex_coefficients(lambda x: np.asarray(x, float) + 0j, 1.0, K)
        value = synthesize(coeffs, 0.3)
        # oracle partial sum from the closed-form coefficients
        oracle = sum(
            sawtooth_coefficient(k) * np.exp(-1j * k * math.pi * 0.3)
            for k in range(-K, K + 1)
        )
        assert value == pytest.approx(oracle, abs=1e-10)
        assert abs(value - 0.3) <= 5e-3

    def test_vectorized_evaluation(self):
        coeffs = complex_coefficients(lambda x: np.asarray(x, float) + 0j, 1.0, 8)
        xs = np.linspace(-0.5, 0.5, 11)
        batch = synthesize(coeffs, xs)
        singles = np.array([synthesize(coeffs, float(x)) for x in xs])
        np.testing.assert_allclose(batch, singles, atol=1e-14)

    def test_roundtrip_analytic_function(self):
        f = lambda x: np.exp(np.cos(math.pi * np.asarray(x, float))) + 0j
        coeffs = complex_coefficients(f, 1.0, 32)
        xs = np.linspace(-1.0, 1.0, 101)
        err = np.max(np.abs(synthesize(coeffs, xs) - f(xs)))
        assert err <= 1e-8


class TestRealCoefficients:
    def test_pure_sine(self):
        coeffs = real_coefficients(_as_real(lambda x: np.sin(math.pi * x)), 1.0, 1)
        assert abs(coeffs.a[0]) < 1e-12
        assert abs(coeffs.a[1]) < 1e-12
        assert coeffs.b[1] == pytest.approx(1.0, abs=1e-12)

    def test_pure_cosine(self):
        coeffs = real_coefficients(_as_real(lambda x: np.cos(2 * math.pi * x)), 1.0, 2)
        assert coeffs.a[2] == pytest.approx(1.0, abs=1e-12)
        for key in (0, 1):
            assert abs(coeffs.a[key]) < 1e-12
        for key in (1, 2):
            assert abs(coeffs.b[key]) < 1e-12

    def test_parabola_closed_form(self):
        coeffs = real_coefficients(_as_real(lambda x: x**2), 1.0, 2)
        assert coeffs.a[0] == pytest.approx(2.0 / 3.0, abs=1e-12)
        for k in (1, 2):
            assert coeffs.a[k] == pytest.approx(4.0 * (-1.0) ** k / (k**2 * math.pi**2), abs=1e-12)
            assert abs(coeffs.b[k]) < 1e-12

    def test_complex_input_rejected(self):
        with pytest.raises(ContractViolationError):
            real_coefficients(lambda x: 1j * np.asarray(x, float), 1.0, 1)

    def test_failure_names_the_coefficient(self):
        with pytest.raises(QuadratureError, match="^coefficient a_0: adaptive quadrature"):
            real_coefficients(lambda x: np.abs(np.asarray(x, float)) ** -0.5, 1.0, 1)


class TestRealCoefficientsRoundingLevelImaginary:
    """A complex f passes when max |Im f| is at most 1e-12 of max |f| on each call's samples."""

    def test_rounding_level_imaginary_part_accepted(self):
        noisy = real_coefficients(lambda x: np.asarray(x, float) ** 2 * (1 + 1e-14j), 1.0, 2)
        clean = real_coefficients(lambda x: np.asarray(x, float) ** 2, 1.0, 2)
        assert noisy.a == clean.a and noisy.b == clean.b

    def test_threshold_is_relative_to_the_samples(self):
        tiny = real_coefficients(lambda x: 1e-200 * (np.asarray(x, float) ** 2 + 1e-14j), 1.0, 1)
        assert tiny.a[0] == pytest.approx(1e-200 * 2.0 / 3.0, rel=1e-10)

    def test_zero_function_accepted(self):
        coeffs = real_coefficients(lambda x: np.zeros_like(np.asarray(x, float)) + 0j, 1.0, 1)
        assert coeffs.a == {0: 0.0, 1: 0.0} and coeffs.b == {1: 0.0}

    @pytest.mark.parametrize("f", [
        lambda x: 1j * np.asarray(x, float),
        lambda x: np.asarray(x, float) ** 2 + 1e-11j,
    ], ids=["imaginary", "above-threshold"])
    def test_imaginary_part_above_threshold_refused(self, f):
        with pytest.raises(ContractViolationError, match="requires a real-valued function"):
            real_coefficients(f, 1.0, 1)


class TestComplexToReal:
    def test_sine_pair(self):
        coeffs = FourierCoefficientSet(L=1.0, c={-1: -0.5j, 0: 0j, 1: 0.5j})
        real = complex_to_real(coeffs)
        assert real.b[1] == pytest.approx(1.0, abs=1e-15)
        assert abs(real.a[1]) < 1e-15

    def test_constant_doubles_into_a0(self):
        coeffs = FourierCoefficientSet(L=1.0, c={0: 3.0 + 0j})
        real = complex_to_real(coeffs)
        assert real.a[0] == pytest.approx(6.0)
        assert real.a[0] / 2.0 == pytest.approx(3.0)

    def test_even_pair(self):
        coeffs = FourierCoefficientSet(L=1.0, c={-1: 1.0 + 0j, 0: 0j, 1: 1.0 + 0j})
        real = complex_to_real(coeffs)
        assert real.a[1] == pytest.approx(2.0)
        assert abs(real.b[1]) < 1e-15

    def test_symmetry_violation_names_worst_index(self):
        coeffs = FourierCoefficientSet(
            L=1.0, c={-2: 0j, -1: -0.5j, 0: 0j, 1: 0.5j, 2: 1.0 + 0j}
        )
        with pytest.raises(ContractViolationError, match="k=2"):
            complex_to_real(coeffs)

    @pytest.mark.parametrize("f", [lambda x: x**2, lambda x: x**3])
    def test_bridge_matches_direct_real_route(self, f):
        complex_route = complex_to_real(
            complex_coefficients(lambda x: np.asarray(f(np.asarray(x, float)), complex), 1.0, 6)
        )
        direct = real_coefficients(_as_real(f), 1.0, 6)
        for k in range(0, 7):
            assert complex_route.a[k] == pytest.approx(direct.a[k], abs=1e-9)
        for k in range(1, 7):
            assert complex_route.b[k] == pytest.approx(direct.b[k], abs=1e-9)


class TestGramMatrix:
    def test_unit_interval(self):
        gram = gram_matrix(1.0, 2)
        diag = np.diagonal(gram)
        np.testing.assert_allclose(diag.real, 2.0, atol=1e-10)
        off = gram - np.diag(diag)
        assert np.max(np.abs(off)) <= 1e-10

    def test_diagonal_scales_with_length(self):
        gram = gram_matrix(3.0, 1)
        np.testing.assert_allclose(np.diagonal(gram).real, 6.0, atol=1e-10)

    def test_single_mode(self):
        gram = gram_matrix(0.5, 0)
        assert gram.shape == (1, 1)
        assert gram[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_failure_names_the_index_difference(self):
        with pytest.raises(QuadratureError, match="^inner product k-l=-2: adaptive quadrature"):
            gram_matrix(1.0, 1, QuadratureSpec(tolerance=1e-300))


class TestParseval:
    def test_exact_for_trigonometric_polynomial(self):
        # f(x) = 2 e^{-i pi x} + (1 + i) e^{2 i pi x}: band-limited at K = 2
        L, K = 1.0, 2
        c1, cm2 = 2.0 + 0j, 1.0 + 1j

        def f(x):
            x = np.asarray(x, float)
            return c1 * np.exp(-1j * math.pi * x) + cm2 * np.exp(2j * math.pi * x)

        coeffs = complex_coefficients(f, L, K)
        power_sum = sum(abs(v) ** 2 for v in coeffs.c.values())
        mean_square = integrate(
            lambda x: np.abs(f(x)) ** 2 + 0j,
            (-L, L),
            panels=oscillation_panels(3 * math.pi, -L, L),
        ).real / (2.0 * L)
        assert mean_square == pytest.approx(power_sum, abs=1e-10)
        assert power_sum == pytest.approx(abs(c1) ** 2 + abs(cm2) ** 2, abs=1e-10)


class TestSeriesTransformConvention:
    # c_k = (1/2L) int f e^{i k pi x/L} and F(lam) = (1/2pi) int f e^{i lam x}
    # share the kernel sign, so for f negligible outside (-L, L) the
    # coefficients are transform samples: c_k = (pi/L) F(k pi/L) with A = L.
    @settings(max_examples=8, deadline=None)
    @given(
        st.floats(min_value=2.0, max_value=6.0),
        st.floats(min_value=-0.3, max_value=0.3),
        st.floats(min_value=0.05, max_value=0.08),
    )
    def test_coefficients_are_scaled_transform_samples(self, L, shift, width):
        a, w = shift * L, width * L  # the bump is below 1e-16 at x = +-L
        f = lambda x: np.exp(-((np.asarray(x, float) - a) ** 2) / (2.0 * w * w)) + 0j
        K = 3
        coeffs = complex_coefficients(f, L, K)
        spectrum = forward_ft(f, Grid(np.arange(-K, K + 1) * math.pi / L), L)
        for k, F in zip(range(-K, K + 1), spectrum.values):
            assert coeffs.c[k] == pytest.approx(math.pi / L * F, abs=1e-10)
        # c_0 is the bump's mean, so the two sides cannot agree by both missing it
        assert coeffs.c[0].real == pytest.approx(w * math.sqrt(2.0 * math.pi) / (2.0 * L), rel=1e-8)


class TestGramMatrixByDifference:
    @pytest.mark.parametrize("K, L", [(3, 1.0), (8, math.pi), (5, 2.5), (32, 1.0), (0, 0.5)])
    def test_one_integral_per_difference(self, monkeypatch, K, L):
        # The 4K+1 differences m = k - l are one integrate_grid pass of f = 1 over m pi/L,
        # m = -2K..2K, with no integrate call, read back through the Toeplitz index.
        import unitransform.fourier_series as fs

        grids, singles = [], []

        def grid_spy(f, interval, grid, spec=None):
            grids.append(grid.points)
            return integrate_grid(f, interval, grid, spec)

        monkeypatch.setattr(fs, "integrate_grid", grid_spy)
        monkeypatch.setattr(fs, "integrate", lambda *args, **kw: singles.append(args))
        gram = gram_matrix(L, K)
        assert len(grids) == 1 and not singles
        np.testing.assert_array_equal(grids[0], np.arange(-2 * K, 2 * K + 1) * math.pi / L)
        monkeypatch.undo()

        # The per-entry loop: the quadrature of exp(-i (k - l) pi x / L) for each (i, j),
        # integrated once per difference i - j and read back by it.
        size = 2 * K + 1
        by_difference = {}
        entries = np.empty((size, size), dtype=complex)
        for i in range(size):
            for j in range(size):
                if i - j not in by_difference:
                    diff = (i - j) * math.pi / L
                    by_difference[i - j] = integrate(
                        lambda x, d=diff: np.exp(-1j * d * np.asarray(x)),
                        (-L, L),
                        panels=oscillation_panels(diff, -L, L),
                    )
                entries[i, j] = by_difference[i - j]
        assert np.max(np.abs(gram - entries)) <= 1e-14 * 2 * L
        assert np.max(np.abs(gram - 2 * L * np.eye(size))) <= 1e-14 * 2 * L

    def test_gauss_legendre_rule(self):
        L, K = math.pi, 8
        gram = gram_matrix(L, K, QuadratureSpec(method="gauss-legendre"))
        assert np.max(np.abs(gram - 2 * L * np.eye(2 * K + 1))) <= 1e-12
