"""Separable 2-D transform: Fourier in x composed with Laplace in t.

Forward: F(lam, s) = (1/2pi) int_R int_0^inf f(x, t) e^{i lam x - s t} dt dx
with s = sigma + i*tau, evaluated with the x integral innermost.  The
single 1/(2*pi) prefactor sits on the Fourier factor; the inverse puts
its 1/(2*pi) on the contour factor only.  Under this split the
composition of the two 1-D pairs is an exact identity on separable
functions.

Each axis is its 1-D piece, with its 1-D guards reported under the axis
name.  Forward: both rules come from :func:`numerics._grid_rule`; the x
axis is a :func:`numerics.exp_sum`, the t axis the damped line sum of
:func:`laplace.laplace_line`.  The forward build runs per block of t
nodes: f on the x nodes times the block, its x sums through one plan
built per call, then their t sums added into the output in place, so its
peak memory is the output plus one block of about ``_FL_BLOCK`` (x, t)
points, not set by the length of the t axis.  Inverse: the stored-line
contour sum of :func:`laplace.bromwich_inverse_from_samples`, then the
stored-spectrum sum of :func:`fourier_transform.inverse_ft` at x.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .fourier_transform import _inverse_sum
from .laplace import _line_inverse, _line_sum, _store_line_values
from .numerics import (
    DEFAULT_SPEC,
    Grid,
    QuadratureSpec,
    _ExpPlan,
    _check_decay,
    _eval_integrand,
    _grid_rule,
    _scalar,
)

# (x, t) points of f evaluated, and summed onto the contour, per pass of forward_fl.
_FL_BLOCK = 2**18


@dataclass(frozen=True)
class FourierLaplaceSpectrum:
    """F(lam, sigma + i*tau) indexed by a frequency grid and a contour grid.

    ``convention`` is the tag of its spectrum files.  The spectrum owns a
    copy of ``values`` and keeps their contour profile, as
    :class:`laplace.LaplaceSpectrum` does.
    """

    convention: ClassVar[str] = "fourier-laplace"
    lambda_grid: Grid
    sigma: float
    tau_grid: Grid
    values: np.ndarray

    def __post_init__(self):
        _scalar(self.sigma, "sigma")
        _store_line_values(self, self.lambda_grid, self.tau_grid)


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
    :class:`DivergenceError` naming the t axis.  Both axes use the fixed
    Gauss rule of :func:`numerics._grid_rule` with ``spec.order`` nodes per
    panel; no other field of ``spec`` is read.

    The x-axis :func:`numerics.exp_sum` plan is built once per call; each
    block of t nodes gets one t-axis plan, whose damped sums
    :func:`laplace._line_sum` adds into the output in place.  Peak memory
    is the output plus one block of about ``_FL_BLOCK`` (x, t) points; the
    returned spectrum then takes its own copy of the output.
    """
    A = _scalar(truncations[0], "truncation A", "positive")
    X, sigma = _scalar(truncations[1], "truncation X", "positive"), _scalar(sigma, "sigma")
    order = (spec or DEFAULT_SPEC).order
    x_nodes, x_weights = _grid_rule(-A, A, lambda_grid, order)
    t_nodes, t_weights = _grid_rule(0.0, X, tau_grid, order)

    def f_on(t: np.ndarray) -> np.ndarray:
        return _eval_integrand(f, *np.broadcast_arrays(x_nodes[:, None], t[None, :]), at="x,t")

    # Half-line divergence check along the t axis, at the x profile peak.
    _check_decay(np.max(np.abs(f_on(np.array([X / 2.0, X]))), axis=0), X, "t axis: ")

    # One pass per block of t nodes, about _FL_BLOCK (x, t) points each: the inner x
    # integrals G(lam, t_m) = (1/2pi) sum_j wx_j f(x_j, t_m) e^{i lam x_j} of the block,
    # then their damped t sums for every s = sigma + i*tau, added into the output.
    values = np.zeros((len(lambda_grid), len(tau_grid)), dtype=complex)
    x_sums = _ExpPlan(x_nodes, lambda_grid, 1, stacked=True)
    t_block = max(1, _FL_BLOCK // x_nodes.size)
    for start in range(0, t_nodes.size, t_block):
        t, wt = t_nodes[start:start + t_block], t_weights[start:start + t_block]
        G = x_sums.apply(f_on(t).T * x_weights, np.zeros((t.size, len(lambda_grid)), dtype=complex))
        G = G.T / (2.0 * math.pi)
        _line_sum(G, t, wt, sigma, tau_grid, values)
    del G, x_sums  # so that the spectrum's copy of values is not made on top of the last block
    return FourierLaplaceSpectrum(lambda_grid, sigma, tau_grid, values)


def inverse_fl(spectrum: FourierLaplaceSpectrum, x: float, t: float) -> complex:
    """Invert a 2-D spectrum at a single point (x, t), t > 0.

    The contour sum over s, with prefactor 1/(2*pi), runs on every lambda
    row, then the lambda sum at x with no prefactor.  The grids obey the
    1-D rules: the tau grid, of any kind, those of
    :func:`laplace.bromwich_inverse_from_samples`, the lambda grid those
    of :func:`fourier_transform.inverse_ft`.
    """
    x = _scalar(x, "evaluation point x")
    per_lambda = _line_inverse(spectrum, t, "s axis: ")
    return complex(_inverse_sum(spectrum.lambda_grid, per_lambda, x, "lambda axis: "))
