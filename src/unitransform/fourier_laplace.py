"""Separable 2-D transform: Fourier in x composed with Laplace in t.

Forward: F(lam, s) = (1/2pi) int_R int_0^inf f(x, t) e^{i lam x - s t} dt dx
with s = sigma + i*tau, evaluated with the x integral innermost.  The
single 1/(2*pi) prefactor sits on the Fourier factor; the inverse puts
its 1/(2*pi) on the contour factor only.  Under this split the
composition of the two 1-D pairs is an exact identity on separable
functions.

Each axis is its 1-D piece, with its 1-D guards reported under the axis
name.  Forward: both rules come from :func:`numerics._grid_rule`; the x
axis is a :func:`numerics.exp_sum` whose ends meet the guard of
:func:`fourier_transform.forward_ft`, the t axis the damped line sum and
tail guard of :func:`laplace.laplace_line`.  The forward build runs per
block of t nodes: f on the x nodes times the block, its x sums through
one plan built per call, then their t sums added into the output in
place, so its peak memory is the output plus one block of about
``_FL_BLOCK`` (x, t) points, not set by the length of the t axis.
Inverse: the stored-line contour sum of :func:`laplace.bromwich_inverse_from_samples`,
then the stored-spectrum sum of :func:`fourier_transform.inverse_ft` at x.
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
    _check_ends,
    _eval_integrand,
    _grid_rule,
    _scalar,
)

# (x, t) points of f evaluated, and summed onto the contour, per pass of forward_fl.
_FL_BLOCK = 2**18


@dataclass(frozen=True)
class FourierLaplaceSpectrum:
    """F(lam, sigma + i*tau) indexed by a frequency grid and a contour grid.

    ``convention`` is the tag of its spectrum files.  The spectrum owns its
    ``values`` and keeps their contour profile, as
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
    and the t integral over [0, X], both on the fixed Gauss rule of
    :func:`numerics._grid_rule` with ``spec.order`` nodes per panel, not
    refined; ``spec.tolerance`` bounds only the t axis's tail.  The guards
    read |f| e^{-sigma t}: :func:`numerics._check_decay` its peak over x at
    t = X/2 and X, the tail weighted by A/pi (the x integral's weight), and
    :func:`numerics._check_ends` its peak over every t at x = -A, the nodes and A.

    The x-axis plan is built once per call and each block of t nodes gets
    one t-axis plan, whose sums :func:`laplace._line_sum` adds into the
    output in place: peak memory is the output, which the spectrum adopts,
    plus one block of about ``_FL_BLOCK`` (x, t) points.
    """
    A = _scalar(truncations[0], "truncation A", "positive")
    X, sigma = _scalar(truncations[1], "truncation X", "positive"), _scalar(sigma, "sigma")
    spec = spec or DEFAULT_SPEC
    x_nodes, x_weights = _grid_rule(-A, A, lambda_grid, spec.order)
    t_nodes, t_weights = _grid_rule(0.0, X, tau_grid, spec.order)
    x_ends, x_profile = np.concatenate(([-A], x_nodes, [A])), np.zeros(x_nodes.size + 2)

    def f_on(t: np.ndarray):
        """(f wx on the x nodes, |f| e^{-sigma t} on x_ends) at t; the latter joins x_profile."""
        fx = _eval_integrand(f, *np.broadcast_arrays(x_ends[:, None], t[None, :]), at="x,t")
        magnitude = np.abs(fx)
        magnitude *= np.exp(-sigma * t)
        np.maximum(x_profile, magnitude.max(axis=1), out=x_profile)
        fx[1:-1] *= x_weights[:, None]
        return fx[1:-1], magnitude

    _check_decay(f_on(np.array([X / 2.0, X]))[1].max(axis=0), X, spec.tolerance, "t axis: ",
                 A / math.pi)

    # One pass per block of t nodes, about _FL_BLOCK (x, t) points each: the inner x
    # integrals G(lam, t_m) = (1/2pi) sum_j wx_j f(x_j, t_m) e^{i lam x_j} of the block,
    # then their damped t sums for every s = sigma + i*tau, added into the output.
    values = np.zeros((len(lambda_grid), len(tau_grid)), dtype=complex)
    x_sums = _ExpPlan(x_nodes, lambda_grid, 1, stacked=True)
    t_block = max(1, _FL_BLOCK // x_nodes.size)
    for start in range(0, t_nodes.size, t_block):
        t, wt = t_nodes[start:start + t_block], t_weights[start:start + t_block]
        G = x_sums.apply(f_on(t)[0].T, np.zeros((t.size, len(lambda_grid)), dtype=complex))
        _line_sum(G.T / (2.0 * math.pi), t, wt, sigma, tau_grid, values)
    _check_ends(x_profile, "x axis: integrand f", "the truncation A", stacklevel=3)
    values.flags.writeable = False
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
