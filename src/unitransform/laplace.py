"""Laplace transform, truncated contour inversion, and growth-rate tools.

The forward transform is the half-line integral of f(x) exp(-s*x) with a
truncation point and a tail estimate; a whole line of s values is one
damped sum, :func:`_line_sum`.  Inversion, :func:`_line_inverse`,
integrates along the vertical line Re(s) = sigma, truncated at height T,
by the trapezoid rule in the imaginary coordinate; there is no contour
deformation or series acceleration, so convergence in T is slow (O(1/T))
whenever the transform decays like 1/s.  Both sums, with the contour
guards, also serve the s axis of :mod:`fourier_laplace`:
:func:`_contour_step` (a coarser stored contour raises
:class:`AliasingError`) and :func:`numerics._check_ends` (a
:class:`TruncationWarning` when the integrand at the endpoints exceeds
1e-6 of its peak, read from the :func:`_contour_profile` that a stored
spectrum computes once, at construction).

The evaluation line matters: the inversion is only valid for sigma above
the abscissa of convergence of the original function, which
:func:`estimate_abscissa` recovers from samples by a log-linear fit.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import (
    AliasingError,
    ContractViolationError,
    InsufficientDataError,
    ExcludedSampleWarning,
)
from .numerics import (
    DEFAULT_SPEC,
    Grid,
    HalfLineResult,
    QuadratureSpec,
    SampledFunction,
    _ExpPlan,
    _check_decay,
    _check_ends,
    _eval_integrand,
    _grid_rule,
    _sampled,
    _scalar,
    integrate_halfline,
    oscillation_panels,
)

# Contour step bound: at most 0.05, and at most pi/(8 t) for the target time.
CONTOUR_STEP = 0.05


@dataclass(frozen=True)
class LaplaceSpectrum:
    """Samples of a transform along the vertical line sigma + i*tau.

    ``convention`` is the tag of its spectrum files.  The spectrum owns its
    ``values`` and keeps their :func:`_contour_profile` for reads.
    """

    convention: ClassVar[str] = "laplace-line"
    sigma: float
    tau_grid: Grid
    values: np.ndarray

    def __post_init__(self):
        _scalar(self.sigma, "sigma")
        _store_line_values(self, self.tau_grid)


@dataclass(frozen=True)
class ExponentialTypeEstimate:
    """Fitted growth bound |f(x)| ~ M_hat * exp(sigma_hat * x)."""

    sigma_hat: float
    M_hat: float
    fit_residual: float

    def __post_init__(self):
        _scalar(self.fit_residual, "fit residual")


def forward_laplace(
    f,
    s: complex,
    truncation: float,
    spec: QuadratureSpec | None = None,
) -> HalfLineResult:
    """Integral of f(x) exp(-s*x) over [0, X] with tail estimate.

    Re(s) must exceed the growth rate of f; a growing integrand at the
    truncation point raises :class:`DivergenceError`.
    """
    z = complex(s)
    s = complex(_scalar(z.real, "Re s"), _scalar(z.imag, "Im s"))
    X = _scalar(truncation, "truncation X", "positive")
    panels = oscillation_panels(s.imag, 0.0, X)

    def integrand(x):
        return f(x) * np.exp(-s * np.asarray(x))

    return integrate_halfline(integrand, X, spec, panels=panels)


def laplace_line(
    f,
    sigma: float,
    tau_grid: Grid,
    truncation: float,
    spec: QuadratureSpec | None = None,
) -> LaplaceSpectrum:
    """Sample the transform along sigma + i*tau for every tau in the grid.

    All line points share one composite rule fine enough for the fastest
    oscillation on the grid, so the whole line, with the decay probe at X/2
    and X, costs one integrand call.  The rule is fixed, ``spec.order``
    Gauss nodes per panel, not refined; ``spec.tolerance`` bounds only the
    tail that :func:`numerics._check_decay` reads from |f| e^{-sigma t}.
    """
    spec = spec or DEFAULT_SPEC
    X, sigma = _scalar(truncation, "truncation X", "positive"), _scalar(sigma, "sigma")
    nodes, weights = _grid_rule(0.0, X, tau_grid, spec.order)
    probe = np.array([X / 2.0, X])
    fx = _eval_integrand(f, np.concatenate((nodes, probe)))
    _check_decay(np.abs(fx[-2:]) * np.exp(-sigma * probe), X, spec.tolerance)
    values = _line_sum(fx[:-2], nodes, weights, sigma, tau_grid,
                       np.zeros(len(tau_grid), dtype=complex))
    values.flags.writeable = False
    return LaplaceSpectrum(sigma=sigma, tau_grid=tau_grid, values=values)


def _line_sum(samples: np.ndarray, nodes, weights, sigma: float, tau_grid: Grid,
              out: np.ndarray) -> np.ndarray:
    """Add the rule sums of ``samples`` (f at ``nodes``) * e^{-(sigma + i*tau) t} into ``out``.

    Damps ``samples`` in place; returns ``out``.
    """
    samples *= weights * np.exp(-sigma * nodes)
    return _ExpPlan(nodes, tau_grid, -1, samples.ndim > 1).apply(samples, out)


def _contour_step(t: float, spacing: float | None = None, axis: str = "") -> float:
    """Largest contour step for a finite evaluation time t > 0: min(CONTOUR_STEP, pi/(8t)).

    A stored contour whose ``spacing`` exceeds it raises :class:`AliasingError`.
    """
    bound = min(CONTOUR_STEP, math.pi / (8.0 * _scalar(t, "evaluation time t", "positive")))
    if spacing is not None and spacing > bound * (1 + 1e-9):
        raise AliasingError(
            f"{axis}contour step {spacing:.6g} exceeds the bound {bound:.6g} for t={t:g}"
        )
    return bound


def _contour_profile(values: np.ndarray) -> np.ndarray:
    """|values| along tau (the last axis), largest over the leading axes, 8 rows at a time: the
    magnitude the endpoint guard reads, since |e^{st}| is constant on the line."""
    rows = values.reshape(-1, values.shape[-1])
    return np.max([np.abs(rows[i:i + 8]).max(axis=0) for i in range(0, len(rows), 8)], axis=0)


def _store_line_values(spectrum, *grids: Grid) -> None:
    """Give a frozen line spectrum checked, read-only values and their :func:`_contour_profile`.
    It adopts a read-only array that owns its data, a transform's fresh output, and copies any
    other, a caller's included, whose later writes would stale the profile."""
    given = spectrum.values
    fresh = isinstance(given, np.ndarray) and given.flags.owndata and not given.flags.writeable
    values = _sampled(given if fresh else np.array(given, dtype=complex), *grids)
    object.__setattr__(spectrum, "values", values)
    object.__setattr__(spectrum, "_profile", _contour_profile(values))


def _line_inverse(spectrum, t: float, axis: str = ""):
    """(1/2pi) sum_k w_k values[..., k] e^{s_k t} along the tau axis of a line spectrum,
    s_k = sigma + i*tau_k, by the trapezoid rule, behind the endpoint guard on the profile
    the spectrum stored at construction: the tau grid, of any kind, needs three points and
    its largest step must obey :func:`_contour_step`."""
    tau_grid = spectrum.tau_grid
    if len(tau_grid) < 3:
        raise ContractViolationError(f"{axis}contour needs at least three samples")
    _contour_step(t, float(np.max(np.diff(tau_grid.points))), axis)
    _check_ends(spectrum._profile, f"{axis}contour integrand", "the contour half-height T")
    s = spectrum.sigma + 1j * tau_grid.points
    return (spectrum.values @ (np.exp(s * t) * tau_grid.trapezoid_weights())) / (2.0 * math.pi)


def bromwich_inverse(fhat, sigma: float, T: float, t: float) -> complex:
    """Truncated contour inversion (1/2pi) int_{-T}^{T} fhat(sigma+i*tau) e^{(sigma+i*tau) t} d tau.

    ``sigma`` must exceed the abscissa of convergence of the original
    function and ``t`` must be positive.  The parametrized contour
    absorbs the 1/i of the line integral.  The imaginary part of the
    result should be near zero for real originals and serves as a
    consistency diagnostic.  fhat is sampled on a uniform tau grid with
    the step of :func:`_contour_step` and read as a stored line spectrum.
    """
    T, sigma = _scalar(T, "contour half-height T", "positive"), _scalar(sigma, "sigma")
    tau_grid = Grid.uniform(-T, T, 2 * math.ceil(T / _contour_step(t)) + 1)
    values = _eval_integrand(fhat, sigma + 1j * tau_grid.points, at="s")
    values.flags.writeable = False
    return complex(_line_inverse(LaplaceSpectrum(sigma, tau_grid, values), t))


def bromwich_inverse_from_samples(spectrum: LaplaceSpectrum, t: float) -> complex:
    """Contour inversion from transform samples stored on a vertical line.

    The stored tau grid plays the role of the truncated contour; its
    largest step, on any grid kind, must satisfy the same step bound as
    :func:`bromwich_inverse`.
    """
    return complex(_line_inverse(spectrum, t))


def weighted_orthogonality_check(lam: float, mu: float, sigma: float, A: float) -> complex:
    """Truncated weighted inner product of two half-line eigenfunctions.

    The weight exp(-2*sigma*x) cancels the growth of the eigenfunctions
    exp((sigma - i*lam) x), leaving int_0^A exp(-i*(lam-mu)*x) dx.  On
    the diagonal (lam == mu) the value is exactly A, diverging as the
    truncation grows; off the diagonal it stays bounded, the half-line
    analogue of the truncated delta kernel.
    """
    A = _scalar(A, "truncation A", "positive")
    _scalar(sigma, "sigma")  # the weight cancels it out of the value, but it defines the problem
    d = _scalar(lam, "lam") - _scalar(mu, "mu")
    if d == 0.0:
        return complex(A)
    # (1 - exp(-i*A*d)) / (i*d), written with expm1 for small phases
    return complex(-np.expm1(-1j * A * d) / (1j * d))


def default_inversion_sigma(samples: SampledFunction) -> float:
    """Contour abscissa for inversion when samples of the original exist.

    One unit above the fitted growth rate, which keeps the damped
    original square integrable on the half line.
    """
    return estimate_abscissa(samples).sigma_hat + 1.0


def estimate_abscissa(samples: SampledFunction) -> ExponentialTypeEstimate:
    """Least-squares growth rate from log-magnitude samples.

    Fits log |f(x)| against x over the upper half of the usable samples
    (x > 0 and |f(x)| > 0), biasing the estimate toward asymptotic
    behavior.  Needs at least 8 usable samples; zero magnitudes are
    excluded with a warning.
    """
    x = samples.grid.points
    mag = np.abs(samples.values)
    positive_x = x > 0
    usable = positive_x & (mag > 0)
    n_zero = int(np.count_nonzero(positive_x & (mag == 0)))
    if n_zero:
        warnings.warn(
            ExcludedSampleWarning(f"excluded {n_zero} zero-magnitude samples from the fit"),
            stacklevel=2,
        )
    xu = x[usable]
    yu = np.log(mag[usable])
    if xu.size < 8:
        raise InsufficientDataError(
            f"abscissa estimation needs at least 8 usable samples, got {xu.size}"
        )
    upper = slice(xu.size // 2, None)
    xf, yf = xu[upper], yu[upper]
    slope, intercept = np.polyfit(xf, yf, 1)
    resid = float(np.sqrt(np.mean((yf - (slope * xf + intercept)) ** 2)))
    return ExponentialTypeEstimate(
        sigma_hat=float(slope), M_hat=float(np.exp(intercept)), fit_residual=resid
    )
