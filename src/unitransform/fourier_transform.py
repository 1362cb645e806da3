"""Fourier transform pair and the truncated-kernel delta regularization.

Normalization: the forward transform carries the 1/(2*pi) factor and the
analysis kernel exp(+i*lam*x); the inverse uses exp(-i*lam*x) with no
prefactor.  This mirrors the common symmetric convention: multiply a
forward spectrum by sqrt(2*pi) and flip the kernel signs to convert.

The Dirac delta is never represented as a value.  Identities that would
use it are realized through :func:`dirichlet_delta`, the truncated
integral (1/2pi) * int_{-A}^{A} exp(-i*a*x) dx = sin(a*A) / (pi*a),
whose sifting behavior improves as A grows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import AliasingError, ContractViolationError
from .numerics import (
    Grid,
    QuadratureSpec,
    SampledFunction,
    _check_ends,
    _eval_integrand,
    _sampled,
    _scalar,
    exp_sum,
    integrate_grid,
    oscillation_panels,
)

# Largest tolerable phase advance per grid step in the inverse transform.
ALIASING_PHASE_BOUND = math.pi / 4


@dataclass(frozen=True)
class ContinuousSpectrum:
    """Samples F(lam) on a real frequency grid.

    ``convention`` is the tag of its spectrum files.
    """

    convention: ClassVar[str] = "paper-fourier"
    lambda_grid: Grid
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _sampled(self.values, self.lambda_grid))


def forward_ft(
    f,
    lambda_grid: Grid,
    truncation: float,
    spec: QuadratureSpec | None = None,
) -> ContinuousSpectrum:
    """F(lam) = (1/2pi) * integral of f(x) exp(i*lam*x) over [-A, A].

    The whole frequency grid is one :func:`numerics.integrate_grid` pass,
    with panels fine enough for its largest |lam|.  f must be negligible
    beyond the truncation A: a :class:`TruncationWarning` says when
    |f(-A)| or |f(A)|, read before the pass once its rule fits the panel
    budget, exceeds 1e-6 of the peak |f| on the nodes.
    """
    A = _scalar(truncation, "truncation A", "positive")
    oscillation_panels(float(np.max(np.abs(lambda_grid.points))), -A, A)
    ends = np.abs(_eval_integrand(f, np.array([-A, A])))
    values, magnitude = integrate_grid(f, (-A, A), lambda_grid, spec)
    _check_ends(np.concatenate((ends[:1], magnitude, ends[1:])), "integrand f", "the truncation A")
    return ContinuousSpectrum(lambda_grid=lambda_grid, values=values / (2.0 * math.pi))


def _check_aliasing(step: float, x_max: float, axis: str = "") -> None:
    """Reject an inverse sum whose phase advance per frequency step exceeds pi/4."""
    if x_max * step > ALIASING_PHASE_BOUND:
        raise AliasingError(
            f"{axis}frequency step {step:.6g} too coarse for |x| up to {x_max:.6g}: "
            f"step * |x| = {x_max * step:.6g} exceeds pi/4"
        )


def inverse_ft(spectrum: ContinuousSpectrum, x_grid: Grid) -> SampledFunction:
    """f(x) = integral of F(lam) exp(-i*lam*x) d lam over the spectrum grid.

    No 1/(2*pi) factor appears here; it lives in the forward direction.
    The spectrum is known only at its grid points, so the integral is a
    trapezoid sum over that grid, uniform or not.  Requests with |x| * its
    largest step above pi/4 are rejected as aliased; a :class:`TruncationWarning`
    says when |F| at either end of the grid exceeds 1e-6 of its peak.
    """
    return SampledFunction(x_grid, _inverse_sum(spectrum.lambda_grid, spectrum.values, x_grid))


def _inverse_sum(lambda_grid: Grid, values: np.ndarray, x: Grid | float, axis: str = ""):
    """Trapezoid sum over the stored grid of ``values`` * exp(-i*lam*x), at every x on a grid or
    one x.  The grid needs two points or more; its ``spacing`` obeys :func:`_check_aliasing`,
    and |values| at its ends the endpoint guard of :func:`numerics._check_ends`."""
    if len(lambda_grid) < 2:
        raise ContractViolationError(f"{axis}spectrum grid needs at least two points")
    _check_ends(np.abs(values), f"{axis}spectrum", "the largest |lambda| of the spectrum grid")
    w, lams = lambda_grid.trapezoid_weights(), lambda_grid.points
    if isinstance(x, Grid):
        _check_aliasing(lambda_grid.spacing, float(np.max(np.abs(x.points))), axis)
        return exp_sum(w * values, lams, x, -1)
    _check_aliasing(lambda_grid.spacing, abs(x), axis)
    return np.dot(values, np.exp(-1j * lams * x) * w)


def dirichlet_delta(a: float, A: float) -> float:
    """Truncated delta kernel sin(a*A) / (pi*a), with the a -> 0 limit A/pi."""
    a, A = _scalar(a, "a"), _scalar(A, "truncation A", "positive")
    if abs(a) < 1e-12:
        return A / math.pi
    return math.sin(a * A) / (math.pi * a)
