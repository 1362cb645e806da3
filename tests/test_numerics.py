import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unitransform import (
    ContractViolationError,
    DivergenceError,
    EvaluationError,
    Grid,
    QuadratureSpec,
    SampledFunction,
    SampledFunction2D,
    integrate,
    integrate_halfline,
    oscillation_panels,
)
from unitransform.numerics import composite_gauss_nodes, exp_sum

GL = QuadratureSpec(method="gauss-legendre", order=10)


class TestGrid:
    def test_uniform_construction(self):
        g = Grid.uniform(-1.0, 1.0, 5)
        assert len(g) == 5
        assert g.spacing == pytest.approx(0.5)
        assert g.kind == "uniform"

    def test_points_must_increase(self):
        with pytest.raises(ContractViolationError):
            Grid([0.0, 1.0, 1.0])
        with pytest.raises(ContractViolationError):
            Grid([0.0, 2.0, 1.0])

    def test_uniform_spacing_enforced(self):
        with pytest.raises(ContractViolationError):
            Grid([0.0, 1.0, 2.0, 3.5])
        Grid([0.0, 1.0, 2.0, 3.5], kind="gauss-nodes")  # fine for non-uniform kind

    def test_trapezoid_weights_sum_to_length(self):
        g = Grid.uniform(2.0, 7.0, 11)
        assert g.trapezoid_weights().sum() == pytest.approx(5.0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ContractViolationError):
            Grid([0.0, 1.0], kind="chebyshev")


class TestSampledFunction:
    def test_length_mismatch(self):
        g = Grid.uniform(0, 1, 4)
        with pytest.raises(ContractViolationError):
            SampledFunction(g, np.zeros(3))

    def test_2d_shape_mismatch(self):
        gx = Grid.uniform(0, 1, 3)
        gt = Grid.uniform(0, 1, 4)
        with pytest.raises(ContractViolationError):
            SampledFunction2D(gx, gt, np.zeros((4, 3)))
        SampledFunction2D(gx, gt, np.zeros((3, 4)))


class TestQuadratureSpec:
    def test_validation(self):
        with pytest.raises(ContractViolationError):
            QuadratureSpec(method="simpson")
        with pytest.raises(ContractViolationError):
            QuadratureSpec(order=1)
        with pytest.raises(ContractViolationError):
            QuadratureSpec(tolerance=0.0)


class TestIntegrate:
    def test_constant(self):
        v = integrate(lambda x: np.ones_like(np.asarray(x, float)) + 0j, (0.0, 1.0))
        assert v == pytest.approx(1.0 + 0j, abs=1e-12)

    def test_odd_symmetry(self):
        v = integrate(lambda x: np.asarray(x, float) + 0j, (-1.0, 1.0))
        assert abs(v) < 1e-12

    @pytest.mark.parametrize("k,l,expected", [(2, 2, 2.0), (2, 1, 0.0)])
    def test_eigenfunction_inner_products(self, k, l, expected):
        L = 1.0
        freq = math.pi * (k - l) / L
        v = integrate(
            lambda x: np.exp(-1j * freq * np.asarray(x)),
            (-L, L),
            panels=oscillation_panels(freq, -L, L),
        )
        assert v == pytest.approx(expected, abs=1e-12)

    def test_interval_must_be_ordered(self):
        with pytest.raises(ContractViolationError):
            integrate(lambda x: x, (1.0, 0.0))

    def test_non_finite_integrand_names_abscissa(self):
        def bad(x):
            x = np.asarray(x, float)
            return np.where(x > 0.5, np.inf, 1.0) + 0j

        with pytest.raises(EvaluationError, match="x="):
            integrate(bad, (0.0, 1.0))

    def test_scalar_only_integrand_supported(self):
        v = integrate(lambda x: complex(x) ** 2, (0.0, 1.0))
        assert v == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_gauss_legendre_polynomial_exactness(self):
        # order n is exact through degree 2n - 1
        for order in (2, 5, 10):
            degree = 2 * order - 1
            exact = 0.0 if degree % 2 else 2.0 / (degree + 1)
            spec = QuadratureSpec(method="gauss-legendre", order=order)
            v = integrate(lambda x, d=degree: np.asarray(x, float) ** d + 0j, (-1.0, 1.0), spec)
            assert v.real == pytest.approx(exact, abs=1e-12)
            # one degree higher is no longer exact for even powers
            v2 = integrate(
                lambda x, d=degree + 1: np.asarray(x, float) ** d + 0j, (-1.0, 1.0), spec
            )
            assert abs(v2.real - 2.0 / (degree + 2)) > 1e-13

    def test_trapezoid_error_quarters_when_halving_width(self):
        exact = math.e - 1.0
        f = lambda x: np.exp(np.asarray(x, float)) + 0j

        def err(panel_count):
            spec = QuadratureSpec(method="trapezoid", order=panel_count)
            return abs(integrate(f, (0.0, 1.0), spec).real - exact)

        ratio = err(64) / err(128)
        assert 0.8 * 4 <= ratio <= 1.2 * 4

    def test_adaptive_meets_tolerance(self):
        spec = QuadratureSpec(method="adaptive", tolerance=1e-12)
        v = integrate(lambda x: np.exp(-np.asarray(x, float) ** 2) + 0j, (-10.0, 10.0), spec)
        assert v.real == pytest.approx(math.sqrt(math.pi), abs=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(
        st.floats(min_value=-3, max_value=3),
        st.floats(min_value=-3, max_value=3),
    )
    def test_linearity(self, alpha, beta):
        f = lambda x: np.exp(np.asarray(x, float)) + 0j
        g = lambda x: np.cos(np.asarray(x, float)) + 0j
        combined = integrate(lambda x: alpha * f(x) + beta * g(x), (-1.0, 1.0), GL, panels=4)
        split = alpha * integrate(f, (-1.0, 1.0), GL, panels=4) + beta * integrate(
            g, (-1.0, 1.0), GL, panels=4
        )
        assert combined == pytest.approx(split, abs=1e-10)


class TestExpSum:
    # A laplace_line sweep at T = 100, X = 40: 9550 nodes, 4001 tau points.
    T, X = 100.0, 40.0

    def _line_weights(self):
        panels = oscillation_panels(self.T, 0.0, self.X)
        nodes, weights = composite_gauss_nodes(0.0, self.X, 10, panels)
        return nodes, nodes**3 * np.exp(-1.5 * nodes) * weights + 0j

    def test_uniform_recurrence_matches_direct_sum(self):
        nodes, weighted = self._line_weights()
        tau = Grid.uniform(-self.T, self.T, 4001)
        direct = weighted @ np.exp(-1j * np.outer(nodes, tau.points))
        got = exp_sum(weighted, nodes, tau, -1)
        assert np.max(np.abs(got - direct)) <= 1e-13 * np.max(np.abs(direct))

    def test_rows_and_sign(self):
        nodes, weighted = self._line_weights()
        rows = np.stack([weighted, 1j * weighted[::-1]])
        tau = Grid.uniform(-5.0, 5.0, 301)
        direct = rows @ np.exp(1j * np.outer(nodes, tau.points))
        got = exp_sum(rows, nodes, tau, 1)
        assert got.shape == (2, 301)
        assert np.max(np.abs(got - direct)) <= 1e-13 * np.max(np.abs(direct))

    def test_non_uniform_grid_and_single_point(self):
        nodes, weighted = self._line_weights()
        for grid in (Grid([-3.0, -1.0, 0.5, 4.0], kind="gauss-nodes"), Grid.uniform(2.0, 3.0, 1)):
            direct = weighted @ np.exp(-1j * np.outer(nodes, grid.points))
            assert np.allclose(exp_sum(weighted, nodes, grid, -1), direct, rtol=0, atol=1e-15)


class TestOscillationPanels:
    def test_scales_with_frequency_and_width(self):
        base = oscillation_panels(10.0, 0.0, 1.0)
        assert oscillation_panels(20.0, 0.0, 1.0) >= 2 * base - 1
        assert oscillation_panels(10.0, 0.0, 2.0) >= 2 * base - 1

    def test_smooth_case_single_panel(self):
        assert oscillation_panels(0.0, -1.0, 1.0) == 1


class TestIntegrateHalfline:
    def test_exponential(self):
        r = integrate_halfline(lambda x: np.exp(-np.asarray(x, float)) + 0j, 40.0)
        assert r.value == pytest.approx(1.0, abs=1e-12)
        assert r.tail_estimate < 1e-15

    def test_complex_rate(self):
        r = integrate_halfline(lambda x: np.exp(-(1 + 1j) * np.asarray(x)), 40.0)
        assert r.value == pytest.approx(0.5 - 0.5j, abs=1e-12)

    def test_growing_integrand_rejected(self):
        with pytest.raises(DivergenceError):
            integrate_halfline(lambda x: np.exp(np.asarray(x, float)) + 0j, 40.0)

    def test_compact_support_zero_tail(self):
        def bump(x):
            x = np.asarray(x, float)
            return np.where(x < 1.0, 1.0, 0.0) + 0j

        r = integrate_halfline(bump, 10.0)
        assert r.tail_estimate == 0.0
        assert r.value == pytest.approx(1.0, abs=1e-9)

    def test_supplied_damping_used_for_tail(self):
        f = lambda x: np.exp(-2.0 * np.asarray(x, float)) + 0j
        r = integrate_halfline(f, 10.0, damping=2.0)
        assert r.tail_estimate == pytest.approx(math.exp(-20.0) / 2.0, rel=1e-9)

    def test_truncation_must_be_positive(self):
        with pytest.raises(ContractViolationError):
            integrate_halfline(lambda x: 0j, 0.0)
