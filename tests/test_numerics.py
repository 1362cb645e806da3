import math
import re
import warnings
from decimal import Context, Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unitransform import (
    ContractViolationError,
    DivergenceError,
    EvaluationError,
    Grid,
    QuadratureError,
    QuadratureSpec,
    SampledFunction,
    SampledFunction2D,
    TruncationWarning,
    complex_coefficients,
    forward_fl,
    forward_ft,
    forward_laplace,
    integrate,
    integrate_halfline,
    laplace_line,
    oscillation_panels,
)
from unitransform import numerics
from unitransform.numerics import ENDPOINT_RATIO, composite_gauss_nodes, exp_sum, integrate_grid

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
        for method in ("simpson", "trapezoid"):
            with pytest.raises(ContractViolationError):
                QuadratureSpec(method=method)
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

    def test_wrong_shape_integrand_is_called_point_by_point(self):
        # one number for a whole array of nodes is the wrong shape: each node is asked alone
        assert integrate(lambda x: 2.0 + 0j, (0.0, 3.0)) == pytest.approx(6.0, abs=1e-12)

    @pytest.mark.parametrize("panels", [1, 3])
    def test_one_integrand_call_per_split(self, panels):
        order = 10
        calls = []

        def f(x):
            calls.append(np.array(x, float))
            return np.exp(-100.0 * calls[-1] ** 2) + 0j

        v = integrate(f, (-1.0, 1.0), QuadratureSpec(order=order), panels=panels)
        assert v.real == pytest.approx(math.sqrt(math.pi) / 10.0 * math.erf(10.0), abs=1e-10)
        # One call on the Gauss nodes of all starting panels, then one per split on the
        # nodes of both halves.
        np.testing.assert_array_equal(calls[0], composite_gauss_nodes(-1.0, 1.0, order, panels)[0])
        split_calls = calls[1:]
        assert all(x.size == 2 * order for x in split_calls)
        # Every starting panel is split once; each further split comes from a split
        # panel that handed both halves to the stack.
        assert len(split_calls) > panels and (len(split_calls) - panels) % 2 == 0
        for x in split_calls:
            # the right half's nodes are the left half's moved by the width of a half
            shift = x[order:] - x[:order]
            assert x[order - 1] < x[order]
            np.testing.assert_allclose(shift, shift[0], rtol=1e-12)

    def test_scalar_only_integrand_matches_vectorised_twin(self):
        def scalar(x):
            if isinstance(x, np.ndarray):
                raise TypeError("scalars only")
            return complex(1.0 / (1.0 + 25.0 * x * x))

        vector = integrate(lambda x: 1.0 / (1.0 + 25.0 * x * x) + 0j, (-1.0, 1.0))
        assert integrate(scalar, (-1.0, 1.0)) == vector
        assert vector.real == pytest.approx(0.4 * math.atan(5.0), abs=1e-10)

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

    @pytest.mark.parametrize("kind", Grid.KINDS)
    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("stacked", [False, True], ids=["one-row", "stacked"])
    @pytest.mark.parametrize("size", [1, 2, 127, 128, 129, 257, 4001])
    def test_plan_adds_the_explicit_sum(self, size, stacked, sign, kind):
        # 40 Gauss panels on [0, 8], enough for every |w| <= 20.  The direct kernel runs in
        # 1, 2, 3 or 32 column blocks; exp_sum takes chirp-z on one row of 257 or 4001
        # uniform points, and the direct kernel on that row passed as a stack of one.
        nodes, weights = composite_gauss_nodes(0.0, 8.0, 10, oscillation_panels(20.0, 0.0, 8.0))
        weighted = nodes**2 * np.exp(-nodes) * weights + 0j
        if stacked:
            weighted = np.stack([weighted, 1j * weighted[::-1], np.cos(nodes) * weighted])
        rng = np.random.default_rng(size)
        if kind == "uniform":
            grid = Grid.uniform(-20.0, 20.0, size)
        else:
            grid = Grid(np.sort(rng.uniform(-20.0, 20.0, size)), kind="gauss-nodes")
        direct = weighted @ np.exp(sign * 1j * np.outer(nodes, grid.points))
        rows = exp_sum(weighted if stacked else weighted[None], nodes, grid, sign)
        assert np.max(np.abs(rows.reshape(direct.shape) - direct)) <= 1e-13 * np.max(np.abs(direct))
        summed = exp_sum(weighted, nodes, grid, sign)
        assert summed.shape == direct.shape
        assert np.max(np.abs(summed - direct)) <= 1e-13 * np.max(np.abs(direct))
        held = rng.standard_normal(direct.shape) + 1j * rng.standard_normal(direct.shape)
        out = held.copy()
        assert exp_sum(weighted, nodes, grid, sign, out=out) is out
        np.testing.assert_array_equal(out, held + summed)

    def test_non_uniform_grid_and_single_point(self):
        nodes, weighted = self._line_weights()
        for grid in (Grid([-3.0, -1.0, 0.5, 4.0], kind="gauss-nodes"), Grid.uniform(2.0, 3.0, 1)):
            direct = weighted @ np.exp(-1j * np.outer(nodes, grid.points))
            assert np.allclose(exp_sum(weighted, nodes, grid, -1), direct, rtol=0, atol=1e-15)


class TestChirpZ:
    """The chirp-z path of exp_sum: when it runs, what it matches, and its phase reduction."""

    def _direct(self, weighted, nodes, grid, sign):
        return weighted @ np.exp(sign * 1j * np.outer(nodes, grid.points))

    def test_acceptance_scale_laplace_line(self):
        # 16,001 tau points on [-400, 400]: ten chirp-z transforms of 3820 panels.
        tau = Grid.uniform(-400.0, 400.0, 16001)
        line = laplace_line(lambda x: np.exp(-np.asarray(x, float)) + 0j, 0.0, tau, 40.0)
        assert np.max(np.abs(line.values - 1.0 / (1.0 + 1j * tau.points))) <= 1e-13

    @pytest.mark.parametrize("sign", [1, -1])
    def test_equispaced_nodes_match_direct_sum(self, sign):
        nodes = np.linspace(-3.0, 5.0, 3001)
        weighted = np.exp(-nodes**2) * (1.0 + 0.3j * nodes)
        grid = Grid.uniform(-7.0, 9.0, 2501)
        c, *_ = numerics._chirp_layout(nodes, grid)
        assert c.size == 1
        direct = self._direct(weighted, nodes, grid, sign)
        got = exp_sum(weighted, nodes, grid, sign)
        assert np.max(np.abs(got - direct)) <= 1e-13 * np.max(np.abs(direct))

    @pytest.mark.parametrize("layout", ["unequal panels", "random nodes"])
    def test_nodes_off_a_lattice_fall_back(self, layout):
        rng = np.random.default_rng(5)
        if layout == "unequal panels":
            edges = np.concatenate(([0.0], np.sort(rng.uniform(0.0, 40.0, 299)), [40.0]))
            nodes, weights = numerics._panel_rule(edges[:-1], edges[1:], 10)
        else:
            nodes = np.sort(rng.uniform(0.0, 40.0, 3000))
            weights = np.full(nodes.size, 40.0 / nodes.size)
        weighted = nodes**3 * np.exp(-1.5 * nodes) * weights + 0j
        tau = Grid.uniform(-100.0, 100.0, 4001)
        assert numerics._chirp_layout(nodes, tau) is None
        direct = self._direct(weighted, nodes, tau, -1)
        got = exp_sum(weighted, nodes, tau, -1)
        assert np.max(np.abs(got - direct)) <= 1e-13 * np.max(np.abs(direct))

    def test_single_row_runs_chirp_z_and_stacked_rows_do_not(self, monkeypatch):
        # The single-row case of TestExpSum: 955 Gauss panels of 10 nodes, 4001 tau.
        nodes, weighted = TestExpSum()._line_weights()
        tau = Grid.uniform(-100.0, 100.0, 4001)
        subgrids = []
        chirp_sum = numerics._chirp_sum

        def spy(weighted, sign, c, *rest):
            subgrids.append(c.size)
            return chirp_sum(weighted, sign, c, *rest)

        monkeypatch.setattr(numerics, "_chirp_sum", spy)
        exp_sum(weighted, nodes, tau, -1)
        assert subgrids == [10]
        exp_sum(np.stack([weighted, weighted]), nodes, tau, -1)
        assert subgrids == [10]

    def test_forward_ft_sums_one_row_by_chirp_z_with_sign_plus_one(self, monkeypatch):
        # The gauss-legendre pass of a 481-point FT: 690 nodes in 10 interleaved sub-grids.
        lam = Grid.uniform(-12.0, 12.0, 481)
        calls = []
        chirp_sum = numerics._chirp_sum

        def spy(weighted, sign, c, *rest):
            calls.append((sign, c.size))
            return chirp_sum(weighted, sign, c, *rest)

        monkeypatch.setattr(numerics, "_chirp_sum", spy)
        spectrum = forward_ft(lambda x: np.exp(-x**2 / 2), lam, 12.0,
                              QuadratureSpec(method="gauss-legendre"))
        exact = np.exp(-lam.points**2 / 2) / math.sqrt(2.0 * math.pi)
        assert calls == [(1, 10)]
        assert np.max(np.abs(spectrum.values - exact)) <= 1e-13 * np.max(exact)

    def test_small_sums_stay_direct(self):
        nodes, _ = composite_gauss_nodes(0.0, 40.0, 10, oscillation_panels(2.0, 0.0, 40.0))
        assert numerics._chirp_layout(nodes, Grid.uniform(-2.0, 2.0, 81)) is None

    def test_phase_reduction_matches_decimal(self):
        ctx = Context(prec=40)
        two_pi = ctx.multiply(2, ctx.create_decimal("3.14159265358979323846264338327950288419716939937510"))

        def error(phase, a, b, n):
            """Largest |phase - a * b * n| mod 2*pi, in 40-digit decimal arithmetic."""
            exact = ctx.multiply(Decimal(a), Decimal(b))  # 32 digits at most: exact
            return max(
                abs(float(ctx.remainder_near(ctx.subtract(Decimal(p), ctx.multiply(exact, m)), two_pi)))
                for p, m in zip(phase.tolist(), n.tolist())
            )

        k = np.arange(0, 20001, 8, dtype=np.int64)
        # The phase factors of the T = 100 and T = 400 laplace_line sums:
        # chirp h/2 * d (times k^2), pre-phase w0 * d and post-phase c0 * h (times k).
        cases = []
        for T, M in ((100.0, 4001), (400.0, 16001)):
            nodes, _ = composite_gauss_nodes(0.0, 40.0, 10, oscillation_panels(T, 0.0, 40.0))
            c, d, w, h, _ = numerics._chirp_layout(nodes, Grid.uniform(-T, T, M))
            cases += [(h / 2, d, k * k), (float(w[0]), d, k), (float(c[0]), h, k)]
        for a, b, n in cases:
            assert error(numerics._phase(a, b, n), a, b, n) <= 4 * np.spacing(2 * math.pi)
        # The product rounded in float64 instead misses by ulps of itself.
        a, b, n = cases[3]
        assert error(a * b * n.astype(float), a, b, n) > 1e-12


def _gaussian(x):
    return np.exp(-np.asarray(x, float) ** 2 / 2.0) + 0j


class TestIntegrateGrid:
    # The forward_ft cases of the benchmark: (f, truncation A, grid points on [-6, 6]).
    CASES = {
        "gaussian": (_gaussian, 12.0, 481),
        "sech": (lambda x: 1.0 / np.cosh(np.asarray(x, float)) + 0j, 25.0, 241),
        "kink": (lambda x: np.exp(-np.abs(np.asarray(x, float))) + 0j, 25.0, 121),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_agrees_with_per_frequency_integrate(self, name):
        f, A, n = self.CASES[name]
        lams = Grid.uniform(-6.0, 6.0, n)
        got, _ = integrate_grid(f, (-A, A), lams)
        # the per-frequency loop forward_ft used to run, on every 8th frequency
        for lam, value in zip(lams.points[::8], got[::8]):
            ref = integrate(
                lambda x: f(x) * np.exp(1j * lam * np.asarray(x)),
                (-A, A),
                panels=oscillation_panels(lam, -A, A),
            )
            assert abs(value - ref) <= 1e-12

    def test_tolerance_met_at_every_frequency(self):
        # Every panel's rule is exact for f = 1 at lam = 0, so only lam = 40
        # asks for the splitting, which the panel must get.
        one = lambda x: np.ones_like(np.asarray(x, float)) + 0j
        got, _ = integrate_grid(one, (-1.0, 1.0), Grid([0.0, 40.0]), QuadratureSpec(order=3))
        exact = np.array([2.0, 2.0 * math.sin(40.0) / 40.0])
        assert np.max(np.abs(got - exact)) <= 1e-10

    def test_few_integrand_calls(self):
        calls = []

        def f(x):
            calls.append(np.size(x))
            return _gaussian(x)

        integrate_grid(f, (-12.0, 12.0), Grid.uniform(-12.0, 12.0, 481))
        assert len(calls) <= 10  # the per-frequency loop made 27,109

    def test_scalar_only_integrand(self):
        lams = Grid.uniform(-3.0, 3.0, 7)
        scalar, _ = integrate_grid(lambda x: complex(math.exp(-x * x / 2.0)), (-8.0, 8.0), lams)
        vector, _ = integrate_grid(_gaussian, (-8.0, 8.0), lams)
        np.testing.assert_allclose(scalar, vector, rtol=0, atol=1e-14)
        exact = math.sqrt(2 * math.pi) * np.exp(-lams.points**2 / 2)
        np.testing.assert_allclose(vector, exact, atol=1e-12)

    def test_nan_at_one_node_names_it(self):
        nodes, _ = composite_gauss_nodes(-1.0, 1.0, 10, oscillation_panels(2.0, -1.0, 1.0))
        bad = float(nodes[7])
        f = lambda x: np.where(np.asarray(x) == bad, np.nan, 1.0) + 0j
        with pytest.raises(EvaluationError, match=re.escape(f"x={bad!r}") + "$"):
            integrate_grid(f, (-1.0, 1.0), Grid.uniform(-2.0, 2.0, 5))

    def test_kernel_blocks_stay_within_cap(self, monkeypatch):
        f, A, n = self.CASES["gaussian"]
        lams = Grid.uniform(-6.0, 6.0, n)
        plain, _ = integrate_grid(f, (-A, A), lams)
        shapes = []
        kernel = numerics._kernel

        def spy(nodes, freqs):
            shapes.append((nodes.size, freqs.size))
            return kernel(nodes, freqs)

        monkeypatch.setattr(numerics, "_kernel", spy)
        blocked, _ = integrate_grid(f, (-A, A), lams)
        np.testing.assert_array_equal(blocked, plain)
        assert len(shapes) > 1
        assert all(rows * cols <= numerics._GRID_BLOCK for rows, cols in shapes)
        # more nodes than the cap (573 panels for |lam| = 100): one frequency per block
        shapes.clear()
        integrate_grid(f, (-A, A), Grid.uniform(-100.0, 100.0, 3))
        assert max(rows for rows, _ in shapes) > numerics._GRID_BLOCK
        assert all(cols == 1 for _, cols in shapes)

    def test_panel_arrays_stay_within_cells(self, monkeypatch):
        sizes = []
        panel_sums = numerics._panel_sums

        def spy(*args):
            out = panel_sums(*args)
            sizes.append(out.size)
            return out

        # A wide grid runs in pieces of the grid.  Its 35 starting panels by
        # one frequency already exceed 64 // 2 = 32, so each frequency runs
        # alone and its starting panels go in two batches.
        lams = Grid.uniform(-6.0, 6.0, 481)
        monkeypatch.setattr(numerics, "_GRID_CELLS", 64)
        monkeypatch.setattr(numerics, "_panel_sums", spy)
        got, _ = integrate_grid(_gaussian, (-12.0, 12.0), lams)
        exact = math.sqrt(2 * math.pi) * np.exp(-lams.points**2 / 2)
        np.testing.assert_allclose(got, exact, rtol=0, atol=1e-12)
        assert len(sizes) > 481 and max(sizes) <= 64
        # f oscillates faster than the grid's largest |lam| asks for, so the
        # bisection multiplies the panels; pieces of 64 // 12 = 5 frequencies
        # split them in batches of 64 // 10 = 6 panels.
        sizes.clear()
        lams = Grid.uniform(-1.0, 1.0, 41)
        chirp = lambda x: _gaussian(x) * np.exp(-4j * np.asarray(x))
        got, _ = integrate_grid(chirp, (-12.0, 12.0), lams)
        exact = math.sqrt(2 * math.pi) * np.exp(-(lams.points - 4.0) ** 2 / 2)
        np.testing.assert_allclose(got, exact, rtol=0, atol=1e-12)
        assert max(sizes) <= 64

    def test_each_run_starts_from_its_own_largest_frequency(self, monkeypatch):
        # 46 starting panels for |w| = 8 by one frequency fill 92 cells, so each w runs
        # alone, from oscillation_panels(|w|) panels of 10 nodes plus the two ends.  The
        # bisection calls evaluate 20 nodes per panel, so their sizes are 0 mod 10.  One
        # rule for the whole grid passed the same tests, but on 2,001 lambda over
        # [-100, 100] it evaluated 418,292 points, against 334,452, in 1.66 s against 0.90 s.
        starts = []

        def f(x):
            if np.size(x) % 10 == 2:
                starts.append(np.size(x))
            return _gaussian(x)

        monkeypatch.setattr(numerics, "_GRID_CELLS", 92)
        integrate_grid(f, (-12.0, 12.0), Grid.uniform(-8.0, 8.0, 5))
        assert starts == [462, 232, 12, 232, 462]

    def test_fixed_rules_resolve_every_frequency(self):
        # one rule for the whole grid, fine enough for its largest |lam|
        lams = Grid.uniform(-6.0, 6.0, 25)
        exact = math.sqrt(2 * math.pi) * np.exp(-lams.points**2 / 2)
        got, magnitude = integrate_grid(_gaussian, (-12.0, 12.0), lams, GL)
        np.testing.assert_allclose(got, exact, rtol=0, atol=1e-12)
        assert magnitude[0] == magnitude[-1] == pytest.approx(math.exp(-72.0))


def _narrow(x):
    return np.exp(-1e4 * np.asarray(x, float) ** 2) + 0j


class TestWorkBudget:
    """Both adaptive loops stop on a non-integrable integrand: at the first unresolved
    defect over the tolerance, or past ``_MAX_SPLITS`` panel splits in one call."""

    @pytest.mark.parametrize("run", [
        lambda: forward_ft(lambda x: np.exp(-np.asarray(x, float) ** 2) / np.asarray(x, float),
                           Grid.uniform(-0.5, 0.5, 3), 6.0),
        lambda: forward_ft(lambda x: np.exp(-np.asarray(x, float)) / np.asarray(x, float) + 1,
                           Grid.uniform(-4.0, 4.0, 17), 6.0),
        lambda: complex_coefficients(lambda x: np.asarray(x, float) ** -2 + 0j, 1.0, 1),
    ], ids=["ft-pole", "ft-pole-no-decay", "series-double-pole"])
    def test_non_integrable_raises(self, run):
        with pytest.raises(QuadratureError, match="error estimate .* exceeds tolerance"):
            run()

    @pytest.mark.parametrize("run", [
        lambda: integrate(_narrow, (-1.0, 1.0)),
        lambda: integrate_grid(_narrow, (-1.0, 1.0), Grid.uniform(-1.0, 1.0, 3))[0],
    ], ids=["integrate", "integrate_grid"])
    def test_split_budget(self, monkeypatch, run):
        value = run()
        monkeypatch.setattr(numerics, "_MAX_SPLITS", 10)
        with pytest.raises(QuadratureError, match="^adaptive quadrature stopped at its budget of "
                           "10 panel splits; error estimate so far .*, tolerance 1.000e-10$"):
            run()
        monkeypatch.setattr(numerics, "_MAX_SPLITS", 1000)
        np.testing.assert_array_equal(run(), value)

    def test_split_budget_spans_the_runs_of_one_call(self, monkeypatch):
        # Each frequency runs alone, as in test_panel_arrays_stay_within_cells, and each run
        # splits 13 panels, 39 in the call: a budget of 20 holds any one run but not the call.
        monkeypatch.setattr(numerics, "_GRID_CELLS", 1)
        grid = Grid.uniform(-1.0, 1.0, 3)
        value = integrate_grid(_narrow, (-1.0, 1.0), grid)[0]
        monkeypatch.setattr(numerics, "_MAX_SPLITS", 39)
        np.testing.assert_array_equal(integrate_grid(_narrow, (-1.0, 1.0), grid)[0], value)
        monkeypatch.setattr(numerics, "_MAX_SPLITS", 20)
        integrate_grid(_narrow, (-1.0, 1.0), Grid([1.0]))
        with pytest.raises(QuadratureError, match="^adaptive quadrature stopped at its budget of "
                           "20 panel splits"):
            integrate_grid(_narrow, (-1.0, 1.0), grid)

    def test_failure_names_its_worst_frequency(self, monkeypatch):
        with pytest.raises(QuadratureError, match="exceeds tolerance") as failed:
            forward_ft(lambda x: np.exp(-np.asarray(x, float) ** 2) / np.asarray(x, float),
                       Grid.uniform(-0.5, 0.5, 3), 6.0)
        assert failed.value.frequency in (-0.5, 0.0, 0.5)
        # f = 1 reads the same estimate at w and -w: the tie goes to the first w on the grid.
        monkeypatch.setattr(numerics, "_MAX_SPLITS", 10)
        with pytest.raises(QuadratureError, match="budget") as failed:
            integrate_grid(np.ones_like, (-1.0, 1.0), Grid(np.arange(-2, 3) * math.pi),
                           QuadratureSpec(tolerance=1e-300))
        assert failed.value.frequency == -2 * math.pi
        with pytest.raises(QuadratureError, match="budget") as failed:
            integrate(_narrow, (-1.0, 1.0))
        assert failed.value.frequency is None


class TestOscillationPanels:
    def test_scales_with_frequency_and_width(self):
        base = oscillation_panels(10.0, 0.0, 1.0)
        assert oscillation_panels(20.0, 0.0, 1.0) >= 2 * base - 1
        assert oscillation_panels(10.0, 0.0, 2.0) >= 2 * base - 1

    def test_smooth_case_single_panel(self):
        assert oscillation_panels(0.0, -1.0, 1.0) == 1

    @pytest.mark.parametrize("frequency, needed", [(2e5 * math.pi, "300000"), (1e12, "4.77465e+11"),
                                                   (1e308, "inf")])
    def test_rule_over_the_panel_budget_raises(self, frequency, needed):
        message = f"^the rule needs {re.escape(needed)} panels, over the budget of 200000 panels; "
        with pytest.raises(QuadratureError, match=message):
            oscillation_panels(frequency, -1.0, 1.0)
        assert oscillation_panels(2e5 * math.pi / 1.5, -1.0, 1.0) == 200_000

    def test_explicit_panel_count_over_the_budget_raises(self):
        with pytest.raises(QuadratureError, match="^the rule needs 200001 panels, over the budget"):
            integrate(lambda x: np.ones_like(x) + 0j, (0.0, 1.0), panels=200_001)


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

    def test_tail_over_tolerance_warns(self, recwarn):
        f = lambda x: np.exp(-1.1 * np.asarray(x, float)) + 0j
        message = (r"^half-line tail estimate 1\.518e-05 beyond X=10 exceeds tolerance "
                   r"1\.000e-10; raise X for full accuracy$")
        with pytest.warns(TruncationWarning, match=message):
            integrate_halfline(f, 10.0)
        # The same tail within a looser tolerance, or the same integrand to X = 40, passes.
        integrate_halfline(f, 10.0, QuadratureSpec(tolerance=1e-4))
        integrate_halfline(f, 40.0)
        assert not recwarn.list

    def test_truncation_must_be_positive(self):
        with pytest.raises(ContractViolationError):
            integrate_halfline(lambda x: 0j, 0.0)


def _exp(rate):
    return lambda t: np.exp(rate * np.asarray(t, float)) + 0j


SIGMA, TAU, LAM, A_FL = 1.0, Grid.uniform(-2.0, 2.0, 5), Grid.uniform(-3.0, 3.0, 7), 12.0

# Every transform that cuts an integral, seen along its cut: (build, kind, axis, tail weight).
# A "t" build(g, X) returns int_0^X g(t) e^{-(SIGMA + i tau) t} dt on TAU; an "x" build(g, A)
# returns (1/2pi) int_-A^A g(x) e^{i lam x} dx on LAM.  forward_fl's other axis carries
# e^{-x^2/2} (sqrt(2 pi)/2pi at lam = 0) or e^{-t} (1/2 at s = 1).
CUTS = {
    "forward_laplace": (lambda g, X: np.array([forward_laplace(g, SIGMA + 1j * tau, X).value
                                               for tau in TAU.points]), "t", "", 1.0),
    "laplace_line": (lambda g, X: laplace_line(g, SIGMA, TAU, X).values, "t", "", 1.0),
    "forward_fl-t": (lambda g, X: forward_fl(lambda x, t: _gaussian(x) * g(t), LAM, SIGMA, TAU,
                                             (A_FL, X)).values[3] * math.sqrt(2.0 * math.pi),
                     "t", "t axis: ", A_FL / math.pi),
    "forward_ft": (lambda g, A: forward_ft(g, LAM, A).values, "x", "", None),
    "forward_fl-x": (lambda g, A: 2.0 * forward_fl(lambda x, t: g(x) * _exp(-1.0)(t), LAM,
                                                   SIGMA, TAU, (A, 40.0)).values[:, 2],
                     "x", "x axis: ", None),
}
CHECKS = {"t": ("growth", "tail", "accept"), "x": ("ends", "accept")}


class TestTruncationGuards:
    """Each cut meets one of the two guards of numerics: _check_decay on the summed integrand
    at X/2 and X, or _check_ends at x = +-A."""

    @pytest.mark.parametrize("cut, check", [(c, k) for c in CUTS for k in CHECKS[CUTS[c][1]]])
    def test_cut_meets_its_guard(self, cut, check):
        build, kind, axis, weight = CUTS[cut]
        if check == "growth":  # g e^{-sigma t} = e^{t/2}
            with pytest.raises(DivergenceError, match=f"^{axis}integrand grows toward the "):
                build(_exp(1.5), 40.0)
        elif check == "tail":  # g e^{-sigma t} = e^{-t/10} leaves e^{-1}/0.1 beyond X = 10
            text = (f"{axis}half-line tail estimate {weight * math.exp(-1.0) / 0.1:.3e} beyond "
                    "X=10 exceeds tolerance 1.000e-10; raise X for full accuracy")
            with pytest.warns(TruncationWarning, match=f"^{re.escape(text)}$"):
                build(_exp(0.9), 10.0)
        elif check == "ends":  # e^{-A^2/2} at ten times, then a tenth of, the endpoint ratio
            with pytest.warns(TruncationWarning, match=f"^{axis}integrand f at the endpoints is "):
                build(_gaussian, math.sqrt(2.0 * math.log(0.1 / ENDPOINT_RATIO)))
            with warnings.catch_warnings():
                warnings.simplefilter("error", TruncationWarning)
                build(_gaussian, math.sqrt(2.0 * math.log(10.0 / ENDPOINT_RATIO)))
        else:  # e^{t/2} at sigma = 1 transforms to 1/(1/2 + i tau); the gaussian to its own
            with warnings.catch_warnings():
                warnings.simplefilter("error", TruncationWarning)
                if kind == "t":
                    values, exact = build(_exp(0.5), 60.0), 1.0 / (0.5 + 1j * TAU.points)
                else:
                    values = build(_gaussian, 12.0)
                    exact = np.exp(-LAM.points**2 / 2.0) / math.sqrt(2.0 * math.pi)
            assert np.max(np.abs(values - exact)) <= 1e-10
