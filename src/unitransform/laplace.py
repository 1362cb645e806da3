"""Laplace transform, truncated contour inversion, and growth-rate tools.

The forward transform is the half-line integral of f(x) exp(-s*x) with a
truncation point and a tail estimate; a line of s values sums the samples
of f, damped once to f e^{-sigma t}, against e^{-i tau t}.  Inversion,
:func:`_line_inverse`, integrates along the vertical line Re(s) = sigma,
truncated at height T, by the trapezoid rule in the imaginary coordinate,
and adds the two tails beyond the ends in closed form, taking the
transform there as its a/s asymptote: a E1(-s t) terms (Abate & Whitt,
INFORMS J. Comput. 18, 2006), so the O(1/T) tail of a transform that
decays like 1/s is summed, not dropped.  There is no contour deformation.
It serves the s axis of :mod:`fourier_laplace` too, with its guards:
:func:`_contour_step` (a coarser stored contour raises :class:`AliasingError`) and
:func:`numerics._check_ends` (a :class:`TruncationWarning` when the
integrand at the endpoints exceeds 1e-6 of its peak, read from the
:func:`_contour_profile` that a stored spectrum computes once).  A damping
e^{-sigma X} or contour weight e^{sigma t} beyond float range raises first.

The evaluation line matters: the inversion is only valid for sigma above
the abscissa of convergence of the original function, which
:func:`estimate_abscissa` recovers from samples by a log-linear fit.
"""

from __future__ import annotations

import cmath
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
    QuadratureError,
)
from .numerics import (
    DEFAULT_SPEC,
    Grid,
    HalfLineResult,
    QuadratureSpec,
    SampledFunction,
    _check_decay,
    _check_ends,
    _check_exp,
    _eval_integrand,
    _grid_rule,
    _sampled,
    _scalar,
    exp_sum,
    integrate_halfline,
    oscillation_panels,
)

# Contour step bound: at most 0.05, and at most pi/(8 t) for the target time.
CONTOUR_STEP = 0.05
_EULER = 0.5772156649015329  # the Euler-Mascheroni constant
_EPS = float(np.finfo(float).eps)
_TINY = 1e-300  # the modified Lentz method's stand-in for a zero denominator
# Most continued-fraction terms of _e1; off the series region it needs at most about 1,100.
_E1_TERMS = 10_000
# Radius within which _e1 sums its power series: the largest round R whose series stays
# within 1e-14 of scipy.special.exp1 on a dense ring 1 <= |z| <= R, with a margin (it loses
# about e^{2 Re z} eps to cancellation: 5.7e-15 at R = 1.3, 1.1e-14 at 1.39).
_E1_SERIES = 1.3


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
    _check_exp(-s.real * X, f"e^(-sigma*X) at sigma={s.real:g}, X={X:g}")
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
    and X, costs one integrand call, damped once to g = f e^{-sigma t}, which
    :func:`numerics._check_decay` reads and the rule sums.  The rule is fixed,
    ``spec.order`` Gauss nodes per panel; ``spec.tolerance`` bounds only the tail.
    """
    spec = spec or DEFAULT_SPEC
    X, sigma = _scalar(truncation, "truncation X", "positive"), _scalar(sigma, "sigma")
    _check_exp(-sigma * X, f"e^(-sigma*X) at sigma={sigma:g}, X={X:g}")
    nodes, weights, _ = _grid_rule(0.0, X, tau_grid.points, spec.order)
    t = np.concatenate((nodes, [X / 2.0, X]))
    g = _eval_integrand(f, t) * np.exp(-sigma * t)
    _check_decay(np.abs(g[-2:]), X, spec.tolerance)
    values = exp_sum(g[:-2] * weights, nodes, tau_grid, -1)
    values.flags.writeable = False
    return LaplaceSpectrum(sigma=sigma, tau_grid=tau_grid, values=values)


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
    """Give a frozen line spectrum checked, read-only values and the read state of
    :func:`_line_inverse`: their :func:`_contour_profile`, the contour points s = sigma + i*tau
    and the tau trapezoid weights.  It adopts a read-only array that owns its data, a
    transform's fresh output, and copies any other, a caller's included, whose later writes
    would stale the profile."""
    given = spectrum.values
    fresh = isinstance(given, np.ndarray) and given.flags.owndata and not given.flags.writeable
    values = _sampled(given if fresh else np.array(given, dtype=complex), *grids)
    object.__setattr__(spectrum, "values", values)
    object.__setattr__(spectrum, "_profile", _contour_profile(values))
    object.__setattr__(spectrum, "_s", spectrum.sigma + 1j * spectrum.tau_grid.points)
    object.__setattr__(spectrum, "_weights", spectrum.tau_grid.trapezoid_weights())


def _e1(z: complex) -> complex:
    """The exponential integral E1(z), z off the negative real axis: the power series for
    |z| < ``_E1_SERIES`` and near that axis (Re z < -2 |Im z|, |z| < 40), where it stays
    within 1e-14 and the continued fraction converges slowly; else the continued fraction
    by the modified Lentz method (Numerical Recipes 3rd ed. 6.3)."""
    if abs(z) < _E1_SERIES or (z.real < -2.0 * abs(z.imag) and abs(z) < 40.0):
        total, term, k = 0j, 1 + 0j, 0
        while True:
            k += 1
            term *= -z / k
            total += term / k
            if abs(term) <= _EPS * k * abs(total):
                return -_EULER - cmath.log(z) - total
    b = z + 1.0
    c, d = 1.0 / _TINY, 1.0 / b
    value = d
    for i in range(1, _E1_TERMS):
        b += 2.0
        d = 1.0 / (b - i * i * d)
        c = b - i * i / c
        value *= c * d
        if abs(c * d - 1.0) <= _EPS:
            return value * cmath.exp(-z)
    raise QuadratureError(f"E1({z:.6g}) did not converge in {_E1_TERMS} terms")


def _tail_weights(s: np.ndarray, t: float) -> tuple[complex, complex]:
    """The two contour tails beyond the ends of the contour points ``s``, in closed form, as
    weights on the first and last values, in the units of the trapezoid weights: past an end
    s = sigma + i*tau whose tau points away from 0, fhat is taken as its asymptote a/s, a =
    s fhat(s), and int a/s e^{st} ds / i out to -i or +i infinity is -+a E1(-s t) / i.  An
    end short of 0 has none; on a contour symmetric about the real axis the lower weight is
    the upper one's conjugate."""
    first, last = complex(s[0]), complex(s[-1])
    upper = last * _e1(-last * t) / 1j if last.imag > 0 else 0j
    if first == last.conjugate():
        return upper.conjugate(), upper
    return (-first * _e1(-first * t) / 1j if first.imag < 0 else 0j), upper


def _line_inverse(spectrum, t: float, axis: str = ""):
    """(1/2pi) sum_k w_k values[..., k] e^{s_k t} along the tau axis of a line spectrum,
    s_k = sigma + i*tau_k, by the trapezoid rule, with the :func:`_tail_weights` of the
    contour beyond the ends added to the end weights, behind the endpoint guard on the
    profile the spectrum stored at construction, with the rest of its read state: the tau
    grid needs three points, and its ``spacing``, its largest step, obeys :func:`_contour_step`."""
    if len(spectrum.tau_grid) < 3:
        raise ContractViolationError(f"{axis}contour needs at least three samples")
    _contour_step(t, spectrum.tau_grid.spacing, axis)
    _check_exp(spectrum.sigma * t, f"e^(sigma*t) at sigma={spectrum.sigma:g}, t={t:g}")
    _check_ends(spectrum._profile, f"{axis}contour integrand", "the contour half-height T")
    kernel = np.exp(spectrum._s * t) * spectrum._weights
    first, last = _tail_weights(spectrum._s, t)
    kernel[0] += first
    kernel[-1] += last
    return (spectrum.values @ kernel) / (2.0 * math.pi)


def bromwich_inverse(fhat, sigma: float, T: float, t: float) -> complex:
    """Truncated contour inversion (1/2pi) int_{-T}^{T} fhat(sigma+i*tau) e^{(sigma+i*tau) t} d tau.

    ``sigma`` must exceed the abscissa of convergence of the original
    function and ``t`` must be positive.  The parametrized contour
    absorbs the 1/i of the line integral.  The imaginary part of the
    result should be near zero for real originals and serves as a
    consistency diagnostic.  fhat is sampled on a uniform tau grid with
    the step of :func:`_contour_step` and read as a stored line spectrum;
    a contour weight e^{sigma t} beyond float range is refused before fhat
    is evaluated.
    """
    T, sigma = _scalar(T, "contour half-height T", "positive"), _scalar(sigma, "sigma")
    step = _contour_step(t)
    _check_exp(sigma * t, f"e^(sigma*t) at sigma={sigma:g}, t={t:g}")
    tau_grid = Grid.uniform(-T, T, 2 * math.ceil(T / step) + 1)
    values = _eval_integrand(fhat, sigma + 1j * tau_grid.points, at="s")
    values.flags.writeable = False
    return complex(_line_inverse(LaplaceSpectrum(sigma, tau_grid, values), t))


def bromwich_inverse_from_samples(spectrum: LaplaceSpectrum, t: float) -> complex:
    """Contour inversion from transform samples stored on a vertical line.

    The stored tau grid plays the role of the truncated contour; a grid
    is its points, uniform or not, and its largest step, ``spacing``, must
    satisfy the same step bound as :func:`bromwich_inverse`.
    """
    return complex(_line_inverse(spectrum, t))


def weighted_orthogonality_check(lam: float, mu: float, sigma: float, A: float) -> complex:
    """Truncated weighted inner product of two half-line eigenfunctions.

    The weight exp(-2*sigma*x) cancels the growth of the eigenfunctions
    exp((sigma - i*lam) x), leaving int_0^A exp(-i*d*x) dx with d = lam - mu,
    which is A exp(-i*A*d/2) sinc(A*d/(2*pi)).  On the diagonal (d = 0) the
    value is exactly A, diverging as the truncation grows; off the diagonal
    it stays bounded, the half-line analogue of the truncated delta kernel.
    An A*d beyond float range raises :class:`ContractViolationError`.
    """
    A = _scalar(A, "truncation A", "positive")
    _scalar(sigma, "sigma")  # the weight cancels it out of the value, but it defines the problem
    Ad = _scalar(A * (_scalar(lam, "lam") - _scalar(mu, "mu")), "A * (lam - mu)")
    return complex(A * np.exp(-0.5j * Ad) * np.sinc(Ad / (2.0 * math.pi)))


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
