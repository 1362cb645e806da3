"""Closed-form references for every request family of the benchmark.

Conventions are the package's (see the README): F(lam) = (1/2pi) int f e^{+i lam x},
c_k = (1/2L) int f e^{+i k pi x / L}, fhat(s) = int_0^inf f e^{-s t}.
Nothing here calls the package.
"""

from __future__ import annotations

import math

import numpy as np

SQRT_2PI = math.sqrt(2.0 * math.pi)

# name -> (original f(x), Fourier transform F(lam)); every F is exact on R.
FT_PAIRS = {
    "gaussian": (lambda x: np.exp(-np.asarray(x, float) ** 2 / 2.0),
                 lambda lam: np.exp(-np.asarray(lam) ** 2 / 2.0) / SQRT_2PI),
    "sech": (lambda x: 1.0 / np.cosh(np.asarray(x, float)),
             lambda lam: 0.5 / np.cosh(math.pi * np.asarray(lam) / 2.0)),
    "kink": (lambda x: np.exp(-np.abs(np.asarray(x, float))),
             lambda lam: 1.0 / (math.pi * (1.0 + np.asarray(lam) ** 2))),
    "slow-decay": (lambda x: 1.0 / (1.0 + np.asarray(x, float) ** 2),
                   lambda lam: 0.5 * np.exp(-np.abs(np.asarray(lam)))),
}


def gauss_ft(lam):
    return FT_PAIRS["gaussian"][1](lam)


def tn_exp(n: int, a: float, t):
    """The original t^n e^{-a t}."""
    t = np.asarray(t, float)
    return t**n * np.exp(-a * t)


def laplace_tn_exp(n: int, a: float, s):
    """Laplace transform of t^n e^{-a t}: n! / (s + a)^(n + 1)."""
    return math.factorial(n) / (np.asarray(s) + a) ** (n + 1)


def bessel_i(k: int, x: float = 1.0, terms: int = 40) -> float:
    """Modified Bessel function I_k(x) by its power series."""
    k = abs(k)
    half = x / 2.0
    term = math.exp(k * math.log(half) - math.lgamma(k + 1))  # m = 0; underflows to 0 for large k
    total = 0.0
    for m in range(terms):
        total += term
        term *= half * half / ((m + 1) * (m + 1 + k))
    return total


def _coeff_exp_cos(k: int) -> complex:
    # (1/2) int_{-1}^{1} e^{cos pi x} e^{i k pi x} dx = I_k(1)
    return complex(bessel_i(k))


def _coeff_abs(k: int) -> complex:
    if k == 0:
        return 0.5 + 0j
    return complex(((-1) ** k - 1) / (k * k * math.pi**2))


def _coeff_x(k: int) -> complex:
    if k == 0:
        return 0j
    return complex(0.0, (-1) ** (k + 1) / (k * math.pi))


# expression text -> (numpy callable, c_k on L = 1)
SERIES = {
    "exp(cos(pi*x))": (lambda x: np.exp(np.cos(np.pi * np.asarray(x, float))), _coeff_exp_cos),
    "abs(x)": (lambda x: np.abs(np.asarray(x, float)), _coeff_abs),
    "x": (lambda x: np.asarray(x, float), _coeff_x),
}


def series_coefficients(name: str, K: int) -> np.ndarray:
    """c_k for k = -K..K of a SERIES function on (-1, 1)."""
    coeff = SERIES[name][1]
    return np.array([coeff(k) for k in range(-K, K + 1)])


def real_from_complex(c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a_k (k = 0..K) and b_k (k = 1..K) from c_k (k = -K..K)."""
    K = (len(c) - 1) // 2
    ck, cmk = c[K:], c[K::-1]
    a = (ck + cmk).real
    b = (-1j * (ck - cmk)).real[1:]
    return a, b


def gram_exact(L: float, K: int) -> np.ndarray:
    return 2.0 * L * np.eye(2 * K + 1, dtype=complex)


def residual_ratio_exact(n: int) -> float:
    """||(M - lam) y_n|| / ||y_n|| = ||w'|| / (n ||w||) = 1 / (n sqrt 2) for a gaussian window."""
    return 1.0 / (n * math.sqrt(2.0))


# The acceptance suite's Laplace table: name -> (f, fhat, abscissa of convergence)
LAPLACE_TABLE = {
    "1": (lambda x: np.ones_like(np.asarray(x, float)), lambda s: 1.0 / s, 0.0),
    "exp(2t)": (lambda x: np.exp(2.0 * np.asarray(x, float)), lambda s: 1.0 / (s - 2.0), 2.0),
    "t": (lambda x: np.asarray(x, float), lambda s: 1.0 / s**2, 0.0),
    "sin(t)": (lambda x: np.sin(np.asarray(x, float)), lambda s: 1.0 / (s**2 + 1.0), 0.0),
}
LAPLACE_OFFSETS = (0.5, 1.0, 2.0 + 1.0j, 3.0 - 2.0j, 1.5 + 3.0j)


def ls_slope(x, y) -> float:
    """Least-squares slope of y on x, in closed form."""
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    xc = x - x.mean()
    return float(np.dot(xc, y - y.mean()) / np.dot(xc, xc))


def abscissa_fit_reference(x, f_values) -> float:
    """Growth rate the package's fit should find on exact samples: the slope of
    log|f| over the upper half of the samples with x > 0."""
    x = np.asarray(x, float)
    mag = np.abs(np.asarray(f_values))
    keep = (x > 0) & (mag > 0)
    xu, yu = x[keep], np.log(mag[keep])
    half = xu.size // 2
    return ls_slope(xu[half:], yu[half:])
