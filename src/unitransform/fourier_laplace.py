"""Separable 2-D transform: Fourier in x composed with Laplace in t.

Forward: F(lam, s) = (1/2pi) int_R int_0^inf f(x, t) e^{i lam x - s t} dt dx
with s = sigma + i*tau, evaluated with the x integral innermost.  The
single 1/(2*pi) prefactor sits on the Fourier factor; the inverse puts
its 1/(2*pi) on the contour factor only.  Under this split the
composition of the two 1-D pairs is an exact identity on separable
functions.

Each axis is its 1-D piece, with its 1-D guards reported under the axis
name.  Forward: both rules come from :func:`numerics._grid_rule`, and f
is damped where it is evaluated, to f e^{-sigma t}, as in
:func:`laplace.laplace_line`; the x axis is a :func:`numerics.exp_sum`
whose ends meet the guard of :func:`fourier_transform.forward_ft`, the t
axis the tail guard of :func:`laplace.laplace_line`, one block of t nodes
at a time (:func:`forward_fl`).  Inverse: the stored-line contour sum of
:func:`laplace.bromwich_inverse_from_samples`, then the stored-spectrum
sum of :func:`fourier_transform.inverse_ft` at x.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .fourier_transform import _inverse_sum
from .laplace import _line_inverse, _store_line_values
from .numerics import (
    DEFAULT_SPEC,
    Grid,
    QuadratureSpec,
    _check_decay,
    _check_ends,
    _check_exp,
    _eval_integrand,
    _grid_rule,
    _scalar,
    exp_sum,
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
    refined; ``spec.tolerance`` bounds only the t axis's tail.  Each
    evaluated block of f is damped in place, once, to g = f e^{-sigma t},
    and the guards read |g|: :func:`numerics._check_decay` its peak over x
    at t = X/2 and X, the tail weighted by A/pi (the x integral's weight),
    :func:`numerics._check_ends` its peak over every t at x = -A, the nodes and A.

    Each block of t nodes is summed onto the lambda grid by one
    :func:`numerics.exp_sum` and onto the tau grid by a second, which adds
    into the output in place: peak memory is the output, which the spectrum
    adopts, plus one block of about ``_FL_BLOCK`` (x, t) points, not set by
    the length of the t axis.
    """
    A = _scalar(truncations[0], "truncation A", "positive")
    X, sigma = _scalar(truncations[1], "truncation X", "positive"), _scalar(sigma, "sigma")
    _check_exp(-sigma * X, f"e^(-sigma*X) at sigma={sigma:g}, X={X:g}")
    spec = spec or DEFAULT_SPEC
    x_nodes, x_weights = _grid_rule(-A, A, lambda_grid, spec.order)
    t_nodes, t_weights = _grid_rule(0.0, X, tau_grid, spec.order)
    x_ends, x_profile = np.concatenate(([-A], x_nodes, [A])), np.zeros(x_nodes.size + 2)

    def f_on(t: np.ndarray):
        """(g wx on the x nodes, max over x_ends of |g| per t), g = f e^{-sigma t} in place."""
        g = _eval_integrand(f, *np.broadcast_arrays(x_ends[:, None], t[None, :]), at="x,t")
        g *= np.exp(-sigma * t)
        magnitude = np.abs(g)
        np.maximum(x_profile, magnitude.max(axis=1), out=x_profile)
        g[1:-1] *= x_weights[:, None]
        return g[1:-1], magnitude.max(axis=0)

    _check_decay(f_on(np.array([X / 2.0, X]))[1], X, spec.tolerance, "t axis: ", A / math.pi)

    # One pass per block of t nodes, about _FL_BLOCK (x, t) points each: the inner x
    # integrals G(lam, t_m) = sum_j wx_j g(x_j, t_m) e^{i lam x_j} of the block, then
    # their t sums, times 1/2pi, for every tau, added into the output.
    values = np.zeros((len(lambda_grid), len(tau_grid)), dtype=complex)
    t_block = max(1, _FL_BLOCK // x_nodes.size)
    for start in range(0, t_nodes.size, t_block):
        t, wt = t_nodes[start:start + t_block], t_weights[start:start + t_block]
        G = exp_sum(f_on(t)[0].T, x_nodes, lambda_grid, 1)
        exp_sum(G.T * (wt / (2.0 * math.pi)), t, tau_grid, -1, out=values)
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
