"""First-order differential eigenvalue problems behind the four transforms.

Four problem kinds are supported:

* ``periodic-interval``: i y' = lam y on (-L, L) with y(-L) = y(L);
  discrete spectrum lam_k = k*pi/L, eigenfunctions exp(-i*k*pi*x/L).
* ``whole-line``: i y' = lam y on R; continuum spectrum R with
  non-normalizable eigenfunctions exp(-i*lam*x).
* ``weighted-halfline``: i (y' - sigma y) = lam y on [0, inf);
  continuum spectrum R, eigenfunctions exp((sigma - i*lam) x),
  orthogonal under the weight exp(-2*sigma*x).
* ``product-2d``: the separable pair of the above on R x [0, inf),
  eigenfunctions exp(-i*lam*x + (sigma - i*mu) t).

The continuum kinds come with a residual-ratio test: a sequence of
square-integrable windowed functions y_n whose normalized operator
residual decays like 1/n certifies that lam belongs to the continuous
spectrum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError
from .numerics import QuadratureSpec, _points, _scalar, integrate

KINDS = ("periodic-interval", "whole-line", "weighted-halfline", "product-2d")

# The gaussian window drops below 1e-14 of its peak at |u| = 8.
_WINDOW_SUPPORT = 8.0


@dataclass(frozen=True)
class EigenProblemSpec:
    """One of the four first-order operator problems."""

    kind: str
    L: float | None = None
    sigma: float | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ContractViolationError(f"unknown problem kind {self.kind!r}")
        if self.kind == "periodic-interval":
            _scalar(self.L, "L", "positive")
        if self.kind in ("weighted-halfline", "product-2d"):
            _scalar(self.sigma, "sigma")

    @classmethod
    def periodic(cls, L: float) -> "EigenProblemSpec":
        return cls(kind="periodic-interval", L=L)

    @classmethod
    def whole_line(cls) -> "EigenProblemSpec":
        return cls(kind="whole-line")

    @classmethod
    def weighted_halfline(cls, sigma: float) -> "EigenProblemSpec":
        return cls(kind="weighted-halfline", sigma=sigma)

    @classmethod
    def product_2d(cls, sigma: float) -> "EigenProblemSpec":
        return cls(kind="product-2d", sigma=sigma)


@dataclass(frozen=True)
class Eigenvalue:
    """A spectral point: a real scalar, or a (lam, mu) pair for product-2d."""

    value: float | tuple[float, float]
    spectrum_kind: str = "discrete"

    def __post_init__(self):
        for v in self.value if isinstance(self.value, tuple) else (self.value,):
            _scalar(v, "eigenvalue")
        if self.spectrum_kind not in ("discrete", "continuum"):
            raise ContractViolationError(
                f"spectrum kind must be 'discrete' or 'continuum', got {self.spectrum_kind!r}"
            )


@dataclass(frozen=True)
class WindowedTestSequence:
    """Gaussian-windowed trial sequence y_n(x) = e(x) * w(x/n).

    ``lam`` is the modulation of the underlying continuum eigenfunction
    ``e``; ``n`` indexes the window width.  Every member is square
    integrable for finite n.
    """

    lam: float
    n: int

    def __post_init__(self):
        _scalar(self.lam, "lam")
        object.__setattr__(self, "n", _scalar(self.n, "window-width index n", "index"))


def discrete_eigenvalues(L: float, k_max: int) -> list[Eigenvalue]:
    """Eigenvalues k*pi/L of the periodic problem for k = -k_max .. k_max."""
    L, k_max = _scalar(L, "L", "positive"), _scalar(k_max, "k_max", "count")
    return [
        Eigenvalue(value=k * math.pi / L, spectrum_kind="discrete")
        for k in range(-k_max, k_max + 1)
    ]


def eigenfunction_eval(problem: EigenProblemSpec, eigenvalue: Eigenvalue, x):
    """Evaluate the eigenfunction of ``problem`` at ``x``.

    The 1-D kinds share exp((sigma - i*lam) x), with sigma = 0 off the
    weighted half-line; a scalar x gives a ``complex``.  For
    ``product-2d`` both the eigenvalue and ``x`` must be pairs.  Accepts
    numpy arrays in place of scalars.
    """
    pair = problem.kind == "product-2d"
    takes = (("a (lam, mu) eigenvalue pair", "an (x, t) pair") if pair
             else ("a scalar eigenvalue", "a scalar x"))
    for arg, what in zip((eigenvalue.value, x), takes):
        if isinstance(arg, tuple) != pair or (pair and len(arg) != 2):
            raise ContractViolationError(f"{problem.kind} eigenfunctions take {what}")
    if pair:
        (lam, mu), (xx, tt) = eigenvalue.value, x
        xx, tt = _points(xx, "evaluation point x"), _points(tt, "evaluation point t")
        return np.exp(-1j * lam * xx + (problem.sigma - 1j * mu) * tt)
    sigma = problem.sigma if problem.kind == "weighted-halfline" else 0.0
    y = np.exp((sigma - 1j * eigenvalue.value) * _points(x, "evaluation point x"))
    return y if np.ndim(x) else complex(y)


def residual_ratio(
    problem: EigenProblemSpec,
    lam: float,
    seq: WindowedTestSequence,
    spec: QuadratureSpec | None = None,
) -> float:
    """Normalized operator residual ||(M - lam) y_n|| / ||y_n||.

    ``y_n`` = exp((sigma - i*lam0) x) * exp(-(x/n)^2 / 2) is the
    gaussian-windowed sequence described by ``seq``; the operator ``M`` is
    i d/dx on the whole line (sigma = 0) or i (d/dx - sigma) on the weighted
    half-line, where the norm carries the weight exp(-2*sigma*x).  The
    derivative of y_n is taken by the product rule and M applied to it.
    Both norms come from one quadrature pass over the window's effective
    support: the real part of the integral of
    exp(-2*sigma*x) * (|(M - lam) y_n|^2 + i |y_n|^2) is the squared
    residual and its imaginary part the squared norm, and the adaptive test
    on the complex pair bounds each.  The weight is taken as e^{-sigma x}
    inside both squares, so no factor e^{sigma x} is formed.
    """
    if problem.kind not in ("whole-line", "weighted-halfline"):
        raise ContractViolationError(
            "residual_ratio is defined for whole-line and weighted-halfline problems"
        )
    lam = _scalar(lam, "lam")
    n, lam0 = seq.n, seq.lam
    halfline = problem.kind == "weighted-halfline"
    sigma = problem.sigma if halfline else 0.0
    interval = (0.0 if halfline else -_WINDOW_SUPPORT * n, _WINDOW_SUPPORT * n)
    rate = sigma - 1j * lam0

    def squares(x):
        y = np.exp((rate - sigma) * x - (x / n) ** 2 / 2.0)
        dy = (rate - x / n**2) * y
        applied = 1j * (dy - sigma * y) - lam * y
        return np.abs(applied) ** 2 + 1j * np.abs(y) ** 2

    # Seed enough panels that the window bump cannot slip between nodes.
    both = integrate(squares, interval, spec, panels=8)
    return math.sqrt(both.real / both.imag)
