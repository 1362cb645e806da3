"""Separable 2-D transform: Fourier in x composed with Laplace in t.

Forward: F(lam, s) = (1/2pi) int_R int_0^inf f(x, t) e^{i lam x - s t} dt dx
with s = sigma + i*tau, evaluated with the x integral innermost.  The
single 1/(2*pi) prefactor sits on the Fourier factor; the inverse puts
its 1/(2*pi) on the contour factor only.  Under this split the
composition of the two 1-D pairs is an exact identity on separable
functions.

Both forward axes are :func:`numerics.exp_sum` calls.  Inversion applies
the contour sum in s first, then the inverse Fourier sum in lam.  Grids
obey the same guards as the 1-D modules, reported per axis: the aliasing
bound of :mod:`fourier_transform`, the contour step check of
:mod:`laplace`, and the endpoint and half-line checks of :mod:`numerics`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError
from .fourier_transform import _check_aliasing
from .laplace import _contour_step
from .numerics import (
    DEFAULT_SPEC,
    Grid,
    QuadratureSpec,
    _check_decay,
    _check_ends,
    _eval_integrand,
    composite_gauss_nodes,
    exp_sum,
    oscillation_panels,
)


@dataclass(frozen=True)
class FourierLaplaceSpectrum:
    """F(lam, sigma + i*tau) indexed by a frequency grid and a contour grid."""

    lambda_grid: Grid
    sigma: float
    tau_grid: Grid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=complex)
        if vals.shape != (len(self.lambda_grid), len(self.tau_grid)):
            raise ContractViolationError(
                f"value shape {vals.shape} does not match grids "
                f"({len(self.lambda_grid)}, {len(self.tau_grid)})"
            )
        object.__setattr__(self, "values", vals)


def forward_fl(
    f,
    lambda_grid: Grid,
    sigma: float,
    tau_grid: Grid,
    truncations: tuple[float, float],
    spec: QuadratureSpec | None = None,
) -> FourierLaplaceSpectrum:
    """Forward transform on the product of a lambda grid and a tau grid.

    ``truncations`` is the pair (A, X): the x integral runs over [-A, A]
    and the t integral over [0, X].  f must decay in x and be of
    exponential type below sigma in t; growth of |f| toward t = X raises
    :class:`DivergenceError` naming the t axis.
    """
    A, X = (float(truncations[0]), float(truncations[1]))
    if not (A > 0 and X > 0):
        raise ContractViolationError("truncations (A, X) must both be > 0")
    order = (spec or DEFAULT_SPEC).order
    lams = lambda_grid.points
    x_panels = oscillation_panels(float(np.max(np.abs(lams))), -A, A)
    x_nodes, x_weights = composite_gauss_nodes(-A, A, order, x_panels)
    t_panels = oscillation_panels(float(np.max(np.abs(tau_grid.points))), 0.0, X)
    t_nodes, t_weights = composite_gauss_nodes(0.0, X, order, t_panels)

    def f_on(t: np.ndarray) -> np.ndarray:
        return _eval_integrand(f, *np.broadcast_arrays(x_nodes[:, None], t[None, :]), at="x,t")

    # Half-line divergence check along the t axis, at the x profile peak.
    _check_decay(np.max(np.abs(f_on(np.array([X / 2.0, X]))), axis=0), X, "t axis: ")

    # Inner x integrals: G(lam, t_m) = (1/2pi) sum_j wx_j f(x_j, t_m) e^{i lam x_j},
    # with f evaluated on about 1e6 (x, t) points at a time.
    G = np.empty((lams.size, t_nodes.size), dtype=complex)
    t_block = max(1, int(1e6 // x_nodes.size))
    for start in range(0, t_nodes.size, t_block):
        weighted = f_on(t_nodes[start:start + t_block]).T * x_weights
        G[:, start:start + t_block] = exp_sum(weighted, x_nodes, lambda_grid, 1).T
    G /= 2.0 * math.pi

    # Outer t integrals for every s = sigma + i*tau, on the damped G.
    G *= t_weights * np.exp(-sigma * t_nodes)
    values = exp_sum(G, t_nodes, tau_grid, -1)
    return FourierLaplaceSpectrum(lambda_grid, sigma, tau_grid, values)


def inverse_fl(spectrum: FourierLaplaceSpectrum, x: float, t: float) -> complex:
    """Invert a 2-D spectrum at a single point (x, t), t > 0.

    The contour sum over s runs innermost with prefactor 1/(2*pi); the
    lambda sum follows with no prefactor.  Both stored grids must be
    fine enough: the lambda step obeys the pi/4 phase bound at |x| and
    the tau step obeys the contour bound for t.
    """
    lam_grid = spectrum.lambda_grid
    tau_grid = spectrum.tau_grid
    if lam_grid.kind != "uniform" or tau_grid.kind != "uniform":
        raise ContractViolationError("inverse transform requires uniform spectrum grids")
    if len(lam_grid) < 2 or len(tau_grid) < 3:
        raise ContractViolationError("spectrum grids are too small to invert")
    _contour_step(t, tau_grid.spacing, "s axis: ")
    _check_aliasing(lam_grid.spacing, abs(x), "lambda axis: ")

    s = spectrum.sigma + 1j * tau_grid.points
    contour_factor = np.exp(s * t) * tau_grid.trapezoid_weights()
    # |e^{st}| is constant along the line, so the stored spectrum's profile
    # decides whether the contour was truncated.
    _check_ends(np.max(np.abs(spectrum.values), axis=0), "s axis: contour integrand",
                "the contour half-height T", stacklevel=3)
    per_lambda = (spectrum.values @ contour_factor) / (2.0 * math.pi)
    fourier_factor = np.exp(-1j * lam_grid.points * x) * lam_grid.trapezoid_weights()
    return complex(np.dot(per_lambda, fourier_factor))
