"""Complex and real Fourier series on (-L, L).

Sign convention: synthesis uses the kernel exp(-i*k*pi*x/L) and analysis
uses exp(+i*k*pi*x/L).  This is the mirror of the most common textbook
convention; all round trips in this package are consistent with it.  To
convert a coefficient set to the opposite convention swap c_k and c_{-k}.

Coefficients are computed by quadrature (never FFT); the truncation at
|k| <= K is hard, so Gibbs behavior near jumps is observable by design.
The complex coefficients, like the Gram matrix, are one
:func:`numerics.integrate_grid` pass over the grid k*pi/L, so f is
resolved once for every k; the real coefficients keep one integral per
cosine and sine, an independent route to the same numbers.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError, EvaluationError, QuadratureError
from .numerics import (
    Grid,
    QuadratureSpec,
    _points,
    _scalar,
    integrate,
    integrate_grid,
    oscillation_panels,
)

CONJUGATE_SYMMETRY_TOL = 1e-8


def _top_index(coefficients: dict, *others: dict) -> int:
    """K of a coefficient set: the largest key of ``coefficients``, which may not be empty.

    Every key there and in ``others`` must be an integer, not a bool; anything else raises
    :class:`ContractViolationError`."""
    if not coefficients:
        raise ContractViolationError("coefficient set may not be empty")
    keys = list(itertools.chain(coefficients, *others))
    bad = {t for t in set(map(type, keys))  # one test per type of key, not per key
           if issubclass(t, bool) or not issubclass(t, numbers.Integral)}
    if bad:
        k = next(k for k in keys if type(k) in bad)
        raise ContractViolationError(f"coefficient index must be an integer, got {k}")
    return max(coefficients)


def _check_values(coefficients: dict, rule: str) -> None:
    """Every value of ``coefficients`` obeys ``rule`` of :func:`_scalar`, checked as one array;
    else the first that does not raises its :class:`ContractViolationError`, naming its k."""
    values = list(coefficients.values())
    kind = numbers.Complex if rule == "complex" else numbers.Real
    try:
        ok = (all(issubclass(t, kind) and not issubclass(t, bool) for t in set(map(type, values)))
              and bool(np.isfinite(np.array(values, dtype=complex)).all()))
    except (TypeError, ValueError, OverflowError):
        ok = False
    if not ok:
        for k, v in coefficients.items():
            _scalar(v, f"coefficient with k={k}", rule)


@dataclass(frozen=True)
class FourierCoefficientSet:
    """Complex coefficients c_k for k in [-K, K] on the interval (-L, L)."""

    L: float
    c: dict[int, complex]

    def __post_init__(self):
        _scalar(self.L, "L", "positive")
        K = _top_index(self.c)
        if sorted(self.c) != list(range(-K, K + 1)):
            raise ContractViolationError(
                "coefficient indices must form a symmetric range -K..K"
            )
        _check_values(self.c, "complex")

    @property
    def K(self) -> int:
        return max(self.c)

    def conjugate_symmetry_defect(self) -> tuple[float, int]:
        """Largest |c_{-k} - conj(c_k)| and the k attaining it."""
        worst, worst_k = 0.0, 0
        for k in range(1, self.K + 1):
            d = abs(self.c[-k] - self.c[k].conjugate())
            if d > worst:
                worst, worst_k = d, k
        return worst, worst_k


@dataclass(frozen=True)
class RealFourierCoefficientSet:
    """Real cosine/sine coefficients: a_k for k in [0, K], b_k for k in [1, K]."""

    L: float
    a: dict[int, float]
    b: dict[int, float]

    def __post_init__(self):
        _scalar(self.L, "L", "positive")
        K = _top_index(self.a, self.b)
        if sorted(self.a) != list(range(0, K + 1)):
            raise ContractViolationError("a-coefficients must cover k = 0..K")
        if sorted(self.b) != list(range(1, K + 1)):
            raise ContractViolationError("b-coefficients must cover k = 1..K")
        _check_values(self.a, "finite")
        _check_values(self.b, "finite")

    @property
    def K(self) -> int:
        return max(self.a)


def _indexed_integral(integrand, freq: float, L: float, spec: QuadratureSpec | None,
                      index: str) -> complex:
    """:func:`integrate` of ``integrand``, which oscillates like exp(i*freq*x), over (-L, L);
    a failure is a :class:`QuadratureError` that names ``index``."""
    try:
        return integrate(integrand, (-L, L), spec, panels=oscillation_panels(freq, -L, L))
    except (QuadratureError, EvaluationError) as exc:
        raise QuadratureError(f"{index}: {exc}") from exc


def _index_pass(f, L: float, n: int, spec: QuadratureSpec | None, index: str) -> np.ndarray:
    """The integrals of f(x) exp(i*m*pi*x/L) over (-L, L), m = -n..n, as one
    :func:`numerics.integrate_grid` pass; a failure is a :class:`QuadratureError`
    "<index>=<m>: ..." naming the m its estimate is worst at, or m = -n, which sets the rule,
    when it names no frequency.  The rule's panel budget is checked before its grid is built,
    so a grid that would overflow a float is refused on the budget."""
    try:
        oscillation_panels(n * math.pi / L, -L, L)
        return integrate_grid(f, (-L, L), Grid(np.arange(-n, n + 1) * math.pi / L), spec)[0]
    except (QuadratureError, EvaluationError) as exc:
        w = getattr(exc, "frequency", None)
        m = -n if w is None else round(w * L / math.pi)
        raise QuadratureError(f"{index}={m}: {exc}") from exc


def complex_coefficients(
    f, L: float, K: int, spec: QuadratureSpec | None = None
) -> FourierCoefficientSet:
    """Compute c_k = (1/2L) * integral of f(x) exp(i*k*pi*x/L) over (-L, L).

    The 2K+1 coefficients are one :func:`numerics.integrate_grid` pass of f
    over the uniform grid k*pi/L, k = -K..K, divided by 2L: f is evaluated
    once per panel for every k, on panels fine enough for the largest |k|.
    A failure names the index its estimate is worst at, the first in a tie,
    and k = -K, the index that sets the rule, when it has none:
    "coefficient k=<k>: ...".
    """
    L, K = _scalar(L, "L", "positive"), _scalar(K, "K", "count")
    values = _index_pass(f, L, K, spec, "coefficient k") / (2.0 * L)
    return FourierCoefficientSet(L=L, c=dict(zip(range(-K, K + 1), values.tolist())))


def synthesize(coeffs: FourierCoefficientSet, x):
    """Partial sum of c_k exp(-i*k*pi*x/L) over all stored k.

    ``x`` may be a scalar in [-L, L] or a numpy array.
    """
    xs = _points(x, "evaluation point x")
    total = np.zeros(xs.shape, dtype=complex)
    for k, ck in coeffs.c.items():
        total += ck * np.exp(-1j * k * math.pi * xs / coeffs.L)
    return total if np.ndim(x) else complex(total)


def real_coefficients(
    f, L: float, K: int, spec: QuadratureSpec | None = None
) -> RealFourierCoefficientSet:
    """Cosine/sine coefficients a_k = (1/L) int f cos(k pi x / L), b_k likewise with sin.

    f must be real: a complex f is refused when, on the samples of one call,
    max |Im f| exceeds 1e-12 of max |f|; smaller imaginary parts are rounding
    (of a function read back from an inverse transform, say) and are dropped.
    """
    L, K = _scalar(L, "L", "positive"), _scalar(K, "K", "count")

    def checked(x):
        out = np.asarray(f(x))
        if not np.iscomplexobj(out):
            return out
        if np.max(np.abs(out.imag)) > 1e-12 * np.max(np.abs(out)):
            raise ContractViolationError("real_coefficients requires a real-valued function")
        return out.real

    a, b = {}, {}
    for k in range(0, K + 1):
        freq = k * math.pi / L
        a[k] = _indexed_integral(lambda x: checked(x) * np.cos(freq * np.asarray(x)), freq, L,
                                 spec, f"coefficient a_{k}").real / L
        if k >= 1:
            b[k] = _indexed_integral(lambda x: checked(x) * np.sin(freq * np.asarray(x)), freq, L,
                                     spec, f"coefficient b_{k}").real / L
    return RealFourierCoefficientSet(L=L, a=a, b=b)


def complex_to_real(coeffs: FourierCoefficientSet) -> RealFourierCoefficientSet:
    """Bridge a conjugate-symmetric complex set to cosine/sine form.

    Uses a_k = c_k + c_{-k} and b_k = -i (c_k - c_{-k}); a_0 = 2 c_0, so
    the constant term of the cosine/sine series is a_0 / 2.  Requires
    c_{-k} = conj(c_k) within 1e-8 and names the worst index otherwise.
    """
    defect, worst_k = coeffs.conjugate_symmetry_defect()
    if defect > CONJUGATE_SYMMETRY_TOL:
        raise ContractViolationError(
            f"coefficients are not conjugate-symmetric: |c_-k - conj(c_k)| = {defect:.3e} at k={worst_k}"
        )
    a = {0: (2.0 * coeffs.c[0]).real}
    b = {}
    for k in range(1, coeffs.K + 1):
        a[k] = (coeffs.c[k] + coeffs.c[-k]).real
        b[k] = (-1j * (coeffs.c[k] - coeffs.c[-k])).real
    return RealFourierCoefficientSet(L=coeffs.L, a=a, b=b)


def gram_matrix(L: float, K: int, spec: QuadratureSpec | None = None) -> np.ndarray:
    """Pairwise inner products of the eigenfunctions exp(-i*k*pi*x/L).

    Entry (i, j) corresponds to indices k = i - K and l = j - K and is
    the quadrature of exp(-i*(k-l)*pi*x/L) over (-L, L).  It depends on
    the difference m = k - l only, so the 4K+1 differences are one
    :func:`numerics.integrate_grid` pass of f = 1 over the uniform grid
    m*pi/L, m = -2K..2K (one point for K = 0); f is real, so each
    quadrature is the conjugate of the pass's value at m*pi/L.  The exact
    value is 2L on the diagonal and 0 elsewhere.  A failure names the
    difference its estimate is worst at, the first in a tie:
    "inner product k-l=<m>: ...".
    """
    L, K = _scalar(L, "L", "positive"), _scalar(K, "K", "count")
    by_difference = _index_pass(np.ones_like, L, 2 * K, spec, "inner product k-l").conj()
    index = np.arange(2 * K + 1)
    return by_difference[index[:, None] - index + 2 * K]
