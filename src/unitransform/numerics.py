"""Grids, complex-valued sampled functions, and quadrature engines.

One whole-grid pass integrates f against exp(i w x) over [a, b] for every w on a grid:
:func:`integrate_grid` runs it on the caller's grid (``forward_ft``, the Fourier coefficients
and the Gram matrix), :func:`integrate` on the one point w = 0, where the kernel is 1, and
:func:`integrate_halfline` is :func:`integrate` on a truncated ``[0, X]``.  A :class:`Grid`
is its points: its ``spacing`` is their largest step.  One builder, :func:`_grid_rule`, makes
every rule f is evaluated on before any bisection: ``order`` Gauss nodes on each of
``oscillation_panels(max |w|)`` equal panels, 1.5 per period (no Filon-type machinery), or
more if the caller asks, within ``_MAX_SPLITS`` panels and ``_MAX_NODES`` nodes
(:func:`_panel_budget`).  The pass evaluates f once on that rule: ``gauss-legendre`` sums it
through :func:`exp_sum`; the adaptive method bisects its panels in the one loop,
:func:`_adaptive_grid`, whose panel sums, :func:`_panel_sums`, factor exp(i w x) into
exp(i w mid), one per panel, times exp(i w half x_g), one per node and half-width, formed
once per +-w pair, and contract f against the second before a product with the first.
:func:`exp_sum` also sums the fixed rules of ``laplace_line`` and ``forward_fl`` and the
samples of ``inverse_ft``: one row by chirp-z FFTs where that is cheaper than the direct
kernel, every other sum by the direct kernel in blocks, added into an array the caller may pass.
:func:`_eval_integrand` evaluates every callable.  Every truncation meets one of the two
guards that build a :class:`TruncationWarning`: :func:`_check_decay` on a half line (growth
and tail of the integrand as summed, f e^{-sigma t} on a damped line), :func:`_check_ends` on
an interval or contour whose integrand should have died out at its ends, each warning at the
first caller outside the package (:func:`_warn_truncation`); :func:`_check_exp`
refuses an e^z beyond float range before it is formed.  The input contract is three guards,
which refuse non-numbers, ints beyond float range, ragged or complex arrays of points and
non-finite values: :func:`_scalar` for every scalar that defines a problem, :func:`_points`
for grid points, intervals and evaluation points, scalar or array, and :func:`_sampled` for
every array of sampled values, held as its holder's own.
"""

from __future__ import annotations

import cmath
import math
import numbers
import os
import sys
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .errors import (
    ContractViolationError,
    DivergenceError,
    EvaluationError,
    QuadratureError,
    TruncationWarning,
)

DEFAULT_TOLERANCE = 1e-10

_METHODS = ("gauss-legendre", "adaptive")
_MAX_BISECTIONS = 48
# A change of at most this times |fine| is rounding alone, which no split can shrink.
_ROUNDING = 8 * np.finfo(float).eps
# Work budget of one adaptive pass: panel splits per integrate or integrate_grid call,
# over 100x the most a test needs (1,741, real-series of a piecewise-linear function).
# Also the most panels any rule starts from (the most a test needs: 3,820, T=400 at X=40).
_MAX_SPLITS = 200_000
# Most nodes of any rule: _MAX_SPLITS panels at the default order of 10.
_MAX_NODES = 10 * _MAX_SPLITS
# Kernel columns per block in exp_sum: bounds both the kernel's memory and
# the length of its phase recurrence.
_EXP_BLOCK = 128
# Fixed cost of the chirp-z path of exp_sum, in entries of the direct kernel
# (each about one complex multiply-add); its FFTs of length L cost about one
# entry per L*log2(L).
_CHIRP_SETUP = 50_000
# 2*pi minus its float64 value, so that _phase reduces mod the true 2*pi.
_TWO_PI_LO = 2.4492935982947064e-16
# Complex entries per block of the exp(i w x) kernel in _panel_sums.
_GRID_BLOCK = 8192
# Panels-by-frequencies entries, and integrand nodes, per batch of _adaptive_grid, the
# bisection loop of integrate (one frequency) and integrate_grid.
_GRID_CELLS = 1 << 16
# Largest |integrand| at a truncation end, relative to its peak, that passes
# without a TruncationWarning.
ENDPOINT_RATIO = 1e-6
# Largest QuadratureSpec.order: leggauss(n) builds an n x n companion matrix.
MAX_QUAD_ORDER = 1000
_LOG_MAX = math.log(np.finfo(float).max)  # about 709.78: e^z overflows for any z above it
_PACKAGE = os.path.dirname(__file__)  # the frames a TruncationWarning does not name


_RULES = {"finite": "finite", "positive": "finite and > 0", "count": "a non-negative integer",
          "index": "an integer >= 1", "complex": "a finite number"}


def _scalar(value, name: str, rule: str = "finite"):
    """``value`` as a float (an int for "count" and "index", a complex for "complex") if it obeys
    ``rule``: "finite", "positive" (finite and > 0), "count" (a non-negative integer), "index"
    (an integer >= 1) or "complex" (a finite real or complex number).  Anything else, None,
    booleans, strings and ints beyond float range included, raises
    :class:`ContractViolationError` "<name> must be <rule>, got <value>"."""
    number = isinstance(value, numbers.Complex if rule == "complex" else numbers.Real)
    in_range = number and not isinstance(value, bool) and abs(value.real) <= sys.float_info.max
    v = complex(value) if in_range else complex(math.nan)
    whole = rule in ("count", "index")
    ok = {"finite": True, "complex": True, "positive": v.real > 0, "count": v.real >= 0,
          "index": v.real >= 1}[rule]
    if not (ok and cmath.isfinite(v) and (v.real.is_integer() or not whole)):
        raise ContractViolationError(f"{name} must be {_RULES[rule]}, got {value}")
    return v if rule == "complex" else int(v.real) if whole else v.real


def _points(x, name: str) -> np.ndarray:
    """``x`` as a float array, 0-d for a scalar, if every entry is a finite real number: a scalar
    through :func:`_scalar`, a real array naming its first bad entry, and any other array
    (strings, objects, complex, a ragged nesting) refused as given."""
    try:
        xs = np.asarray(x)
    except ValueError:  # a ragged nesting
        xs = np.array([None])
    if xs.ndim == 0 or xs.dtype.kind not in "iuf":  # any array here is refused as given
        return np.asarray(_scalar(xs[()] if xs.ndim == 0 else x, name))
    ok = np.isfinite(xs)
    if not np.all(ok):
        raise ContractViolationError(f"{name} must be finite, got {xs.flat[np.argmin(ok)]}")
    return xs.astype(float, copy=False)


def _sampled(values, *grids: Grid) -> np.ndarray:
    """``values``, finite numbers, as its holder's own read-only complex array of shape
    (len(g) for g in grids): it adopts a read-only complex array that owns its data, a
    transform's fresh output, and copies any other, so the caller's stays writeable and its
    later writes do not reach it.  Any other kind of array is refused as given."""
    try:
        vals = np.asarray(values)
    except ValueError:  # a ragged nesting
        vals = np.array([None])
    if vals.dtype.kind not in "iufc":
        raise ContractViolationError(f"values must be finite, got {values}")
    if not (vals.dtype == complex and vals.flags.owndata and not vals.flags.writeable):
        vals = vals.astype(complex)
    shape = tuple(len(g) for g in grids)
    if vals.shape != shape:
        raise ContractViolationError(f"value shape {vals.shape} does not match grid sizes {shape}")
    bad = ~np.isfinite(vals)
    if bad.any():
        at = tuple(int(i) for i in np.unravel_index(np.argmax(bad), shape))
        raise ContractViolationError(
            f"values must be finite, got {vals[at]} at index {', '.join(map(str, at))}"
        )
    vals.flags.writeable = False
    return vals


@dataclass(frozen=True)
class QuadratureSpec:
    """Quadrature method selection.

    ``order`` is the number of Gauss-Legendre nodes per panel, of every
    rule a pass starts from and of each half the adaptive engine bisects
    into.  ``tolerance`` is the absolute error target of the adaptive
    engine.  ``gauss-legendre`` is the starting rule summed, unrefined; only
    its own tests and the benchmark's acceptance probe use it.
    """

    method: str = "adaptive"
    order: int = 10
    tolerance: float = DEFAULT_TOLERANCE

    def __post_init__(self):
        if self.method not in _METHODS:
            raise ContractViolationError(
                f"unknown quadrature method {self.method!r}; expected one of {_METHODS}"
            )
        order = _scalar(self.order, "quadrature order", "count")
        if not 2 <= order <= MAX_QUAD_ORDER:
            raise ContractViolationError(
                f"quadrature order must be >= 2 and <= {MAX_QUAD_ORDER}, got {order}"
            )
        object.__setattr__(self, "order", order)
        _scalar(self.tolerance, "quadrature tolerance", "positive")


DEFAULT_SPEC = QuadratureSpec()


class Grid:
    """Ordered real abscissae: a grid is its points, strictly increasing and finite.

    The points pass :func:`_points` into the grid's own read-only copy, which a caller's later
    writes do not move.  ``spacing`` is the largest step between neighbouring points, the one
    step that every step bound reads; a grid of one point has none.
    """

    __slots__ = ("points", "_step")

    def __init__(self, points: Sequence[float] | np.ndarray):
        pts = np.array(_points(points, "grid points"))  # the grid's own copy
        if pts.ndim != 1 or pts.size == 0:
            raise ContractViolationError("grid points must form a non-empty 1-D sequence")
        d = np.diff(pts)
        if not np.all(d > 0):
            raise ContractViolationError("grid points must be strictly increasing")
        pts.flags.writeable = False
        self.points = pts
        self._step = float(np.max(d, initial=0.0))

    @classmethod
    def uniform(cls, a: float, b: float, num: int) -> "Grid":
        """``num`` evenly spaced points from a to b, the ends included: ``np.linspace(a, b, num)``.

        A grid symmetric about 0 (a == -b) is made exactly antisymmetric, (p - p[::-1]) / 2
        of that linspace p, which is itself asymmetric by a few ulps: exact ends, an exact 0
        in the middle of an odd count, and points within 2 ulps of b of linspace, so that one
        exponential serves each +-w pair of the whole-grid sums (:func:`_panel_sums`) and
        :func:`exp_sum` still finds its lattice.
        """
        num = _scalar(num, "grid point count", "index")
        a, b = _scalar(a, "grid start a"), _scalar(b, "grid end b")
        if num == 1:
            return cls(np.array([a]))
        if not a < b:
            raise ContractViolationError("grid requires a < b")
        _scalar(b - a, "grid span b - a")
        points = np.linspace(a, b, num)
        return cls((points - points[::-1]) / 2 if a == -b else points)

    @property
    def spacing(self) -> float:
        if self.points.size < 2:
            raise ContractViolationError("spacing needs at least two points")
        return self._step

    def trapezoid_weights(self) -> np.ndarray:
        """Weights w with sum(w * f(points)) the trapezoid integral."""
        x = self.points
        if x.size == 1:
            return np.zeros(1)
        w = np.empty_like(x)
        w[0] = (x[1] - x[0]) / 2
        w[-1] = (x[-1] - x[-2]) / 2
        w[1:-1] = (x[2:] - x[:-2]) / 2
        return w

    def __len__(self) -> int:
        return self.points.size

    def __repr__(self) -> str:
        return f"Grid({self.points.size} points on [{self.points[0]:g}, {self.points[-1]:g}])"


_ORIGIN = Grid([0.0])  # the one frequency of integrate


class SampledFunction:
    """Complex values attached to a one-dimensional grid."""

    __slots__ = ("grid", "values")

    def __init__(self, grid: Grid, values: Sequence[complex] | np.ndarray):
        self.grid = grid
        self.values = _sampled(values, grid)

    def __len__(self) -> int:
        return self.values.size


class SampledFunction2D:
    """Complex values on the product of an x grid and a t grid.

    ``values[i, j]`` corresponds to ``(x_grid.points[i], t_grid.points[j])``.
    """

    __slots__ = ("x_grid", "t_grid", "values")

    def __init__(self, x_grid: Grid, t_grid: Grid, values: np.ndarray):
        self.x_grid = x_grid
        self.t_grid = t_grid
        self.values = _sampled(values, x_grid, t_grid)


@dataclass(frozen=True)
class HalfLineResult:
    """Truncated half-line integral plus an estimated tail bound."""

    value: complex
    tail_estimate: float

    def __complex__(self) -> complex:
        return self.value


@lru_cache(maxsize=64)
def _leggauss(order: int):
    x, w = np.polynomial.legendre.leggauss(order)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def _eval_integrand(f: Callable, *args: np.ndarray, at: str = "x") -> np.ndarray:
    """Evaluate f on same-shape arrays, vectorized when possible, and check finiteness.

    A callable that rejects arrays or returns the wrong shape is called
    point by point with Python scalars.  ``at`` names the arguments, comma
    separated, in the error raised for a non-finite value.
    """
    try:
        out = np.asarray(f(*args), dtype=complex)
        if out.shape != args[0].shape:
            raise TypeError
    except (TypeError, ValueError):
        points = zip(*(a.ravel().tolist() for a in args))
        out = np.array([complex(f(*p)) for p in points]).reshape(args[0].shape)
    bad = ~np.isfinite(out)
    if bad.any():
        k = np.argmax(bad)
        where = ", ".join(f"{n}={a.flat[k].item()!r}" for n, a in zip(at.split(","), args))
        raise EvaluationError(f"integrand returned a non-finite value at {where}")
    return out


def _check_decay(ends: np.ndarray, X: float, tol: float, axis: str = "", scale=1.0) -> float:
    """The half-line guard, on |g(X/2)| and |g(X)| (``ends``) of the integrand g as it is summed.

    Growth raises :class:`DivergenceError`.  The tail beyond X, |g(X)| over the decay rate
    the two read, times ``scale`` (the weight of an outer integral), is returned, and warns
    with a :class:`TruncationWarning` above ``tol``."""
    g_mid, g_end = float(ends[0]), float(ends[1])
    if g_end > g_mid:
        raise DivergenceError(
            f"{axis}integrand grows toward the truncation point: |f({X})|={g_end:.3e} "
            f"> |f({X / 2.0})|={g_mid:.3e}"
        )
    rate = math.log(g_mid / g_end) / (X / 2.0) if g_mid > g_end > 0.0 else 0.0
    tail = scale * g_end / rate if rate > 0 else (0.0 if g_end == 0.0 else math.inf)
    if tail > tol:
        _warn_truncation(f"{axis}half-line tail estimate {tail:.3e} beyond X={X:g} exceeds "
                         f"tolerance {tol:.3e}; raise X for full accuracy")
    return tail


def _check_ends(magnitude: np.ndarray, what: str, remedy: str) -> None:
    """Warn when ``magnitude`` at either end exceeds ENDPOINT_RATIO of its peak.

    ``magnitude`` is |integrand| along a truncated interval or contour, ends
    first and last; the :class:`TruncationWarning` reads "<what> at the
    endpoints is ... of its peak; raise <remedy> for full accuracy".
    """
    peak = float(magnitude.max())
    ends = max(magnitude[0], magnitude[-1])
    if peak > 0 and ends > ENDPOINT_RATIO * peak:
        _warn_truncation(f"{what} at the endpoints is {ends / peak:.2e} of its peak; "
                         f"raise {remedy} for full accuracy")


def _warn_truncation(message: str) -> None:
    """Warn with a :class:`TruncationWarning` that names the line of the first caller
    outside this package, however many of its frames the guard was reached through."""
    frame, level = sys._getframe(1), 2
    while frame.f_back is not None and os.path.dirname(frame.f_code.co_filename) == _PACKAGE:
        frame, level = frame.f_back, level + 1
    warnings.warn(TruncationWarning(message), stacklevel=level)


def _check_exp(exponent: float, what: str) -> None:
    """Refuse e^exponent, before it is formed, beyond float range; ``what`` names the factors."""
    if exponent > _LOG_MAX:
        raise QuadratureError(f"{what} overflows a float: exponent {exponent:.6g} > {_LOG_MAX:.2f}")


def _phase(a: float, b: float, n: np.ndarray) -> np.ndarray:
    """``a * b * n`` mod 2*pi, within a few ulps of 2*pi, for floats a and b taken as exact and
    int64 |n| < 2**52; the product rounded in float64 would be off by ulps of itself.

    The exact a*b, a ratio of Python ints, is taken in heads with as few bits
    as the largest |n| leaves room for, so each head * n is exact in float64
    and np.fmod reduces it exactly, until the rest times n is below 1.
    """
    top = int(np.max(np.abs(n)))
    keep = 53 - top.bit_length()
    (an, ad), (bn, bd) = a.as_integer_ratio(), b.as_integer_ratio()
    num, den = an * bn, ad * bd
    n = n.astype(float)
    out = np.zeros(n.shape)
    while abs(num) * top >= den:
        mant, exp = math.frexp(num / den)
        head = math.ldexp(math.trunc(math.ldexp(mant, keep)), exp - keep)
        v = head * n
        r = np.fmod(v, 2 * math.pi)
        out += r - np.rint((v - r) / (2 * math.pi)) * _TWO_PI_LO
        hn, hd = head.as_integer_ratio()
        num, den = num * hd - hn * den, den * hd
    return out + num / den * n


def _lattice(rows: np.ndarray):
    """(rows[0], step) if every column of the (P, q) ``rows`` is rows[0] + p * step, else None.

    Columns are q interleaved sub-grids with one common step; they must sit
    on it to 4 ulps of the largest |rows|, a bound that every ``linspace``
    grid and every :func:`composite_gauss_nodes` rule meets.
    """
    step = float(np.mean(rows[-1] - rows[0])) / (rows.shape[0] - 1)
    fit = rows[0] + np.arange(rows.shape[0])[:, None] * step
    if np.max(np.abs(rows - fit)) > 4 * np.finfo(float).eps * np.max(np.abs(rows)):
        return None
    return rows[0], step


def _fft_size(n: int) -> int:
    """The smallest 2**i * 3**j * 5**k >= n, a length numpy.fft transforms fast."""
    best, f5 = 1 << (n - 1).bit_length(), 1
    while f5 < best:
        f = f5
        while f < best:
            best = min(best, f << (-(-n // f) - 1).bit_length())
            f *= 3
        f5 *= 5
    return best


def _chirp_layout(nodes: np.ndarray, grid: Grid):
    """The chirp-z plan of a one-row :func:`exp_sum`, or None when the direct kernel is cheaper.

    The grid must be w0 + m*h (m < M) and the n nodes q interleaved
    sub-grids c_r + p*d (node p*q + r, p < P = n/q), the smallest such q
    (10 for the default Gauss rule, 1 for equispaced nodes).
    The plan is taken when ``_CHIRP_SETUP`` plus q FFTs of length
    L >= M + P - 1 cost less than the n*M entries of the direct kernel.
    Returns (c, d, grid points, h, L).
    """
    n, M = nodes.size, len(grid)
    if M < 2 or n * M <= _CHIRP_SETUP:
        return None
    on_grid = _lattice(grid.points[:, None])
    if on_grid is None:
        return None
    for q in range(1, n // 2 + 1):
        if n % q:
            continue
        L = _fft_size(M + n // q - 1)
        if _CHIRP_SETUP + q * L * math.log2(L) >= n * M:
            return None
        sub = _lattice(nodes.reshape(-1, q))
        if sub is not None:
            return sub[0], sub[1], grid.points, on_grid[1], L
    return None


def _chirp_sum(weighted: np.ndarray, sign: int, c: np.ndarray, d: float, w: np.ndarray,
               h: float, L: int) -> np.ndarray:
    """:func:`exp_sum` of one row on the plan of :func:`_chirp_layout`: q Bluestein chirp-z
    transforms of length L.

    With w_m = w_0 + m*h and nodes c_0 + e_r + p*d, the phase w_m * x is
    c_0*w_0 + c_0*h*m + w_m*e_r + w_0*d*p + h*d*m*p, and m*p = (m^2 + p^2 -
    (m - p)^2) / 2 turns each sub-grid's sum over p into a convolution with
    the chirp exp(-i*sign*h*d*k^2/2).  Each phase but w_m*e_r, below
    max|w| * d, is an exact product of two floats times an integer, reduced by
    :func:`_phase`.
    """
    q, M = c.size, w.size
    P = weighted.size // q
    k = np.arange(max(M, P), dtype=np.int64)

    def turn(a: float, b: float, n: np.ndarray) -> np.ndarray:
        return np.exp(sign * 1j * _phase(a, b, n))

    chirp = turn(h / 2, d, k * k)
    kernel = np.zeros(L, dtype=complex)
    kernel[:M] = chirp[:M].conj()
    kernel[L - P + 1:] = chirp[P - 1:0:-1].conj()
    rows = np.fft.fft(weighted.reshape(P, q).T * (chirp[:P] * turn(w[0], d, k[:P])), L)
    conv = np.fft.ifft(rows * np.fft.fft(kernel))[:, :M]
    conv *= np.exp(sign * 1j * np.outer(c - c[0], w))
    return conv.sum(axis=0) * chirp[:M] * turn(c[0], h, k[:M]) * turn(c[0], w[0], np.array([1]))


def exp_sum(weighted: np.ndarray, nodes: np.ndarray, grid: Grid, sign: int,
            out: np.ndarray | None = None) -> np.ndarray:
    """Add the sums of ``weighted`` against exp(sign*i*w*nodes), for every w on the grid,
    into ``out`` (grid axis last; a fresh zero array when None) and return it.

    The sums are ``weighted @ exp(sign * 1j * outer(nodes, grid.points))``;
    the node axis is the last axis of ``weighted``.  exp_sum finds its own
    lattice w0 + m*h in the grid's points, to 4 ulps (:func:`_lattice`).  One
    row (``weighted.ndim == 1``) on a lattice whose nodes are interleaved
    lattices, when its FFTs cost less than the direct kernel (see
    :func:`_chirp_layout`), is q Bluestein chirp-z transforms,
    :func:`_chirp_sum`, with every large phase reduced exactly.  Every other
    sum runs the direct kernel, one block of ``_EXP_BLOCK`` grid columns at a
    time.  On a lattice of two or more points that kernel is the step kernel
    exp(sign*i*b*h*nodes), b < ``_EXP_BLOCK``, a recurrence started from 1
    with the lattice's step h; block a's kernel is exp(sign*i*w_a*nodes)
    times it, one broadcast multiply into a reused buffer, so rounding cannot
    drift from block to block.  Any other grid gets the exact exponential.
    """
    w = grid.points
    if weighted.ndim == 1 and (chirp := _chirp_layout(nodes, grid)) is not None:
        sums = _chirp_sum(weighted, sign, *chirp)
        return sums if out is None else np.add(out, sums, out=out)
    if out is None:
        out = np.zeros(weighted.shape[:-1] + w.shape, dtype=complex)
    lattice = _lattice(w[:, None]) if w.size > 1 else None
    if lattice is not None:
        step = np.repeat(np.exp(sign * 1j * lattice[1] * nodes)[:, None],
                         min(w.size, _EXP_BLOCK), axis=1)
        step[:, 0] = 1.0
        np.cumprod(step, axis=1, out=step)
        buffer = np.empty_like(step)
    for start in range(0, w.size, _EXP_BLOCK):
        cols = w[start:start + _EXP_BLOCK]
        if lattice is None:
            kernel = np.exp(sign * 1j * np.outer(nodes, cols))
        else:
            kernel = np.multiply(np.exp(sign * 1j * cols[0] * nodes)[:, None],
                                 step[:, :cols.size], out=buffer[:, :cols.size])
        out[..., start:start + cols.size] += weighted @ kernel
    return out


def composite_gauss_nodes(a: float, b: float, order: int, panels: int):
    """Flattened nodes and weights of a composite Gauss-Legendre rule (:func:`_grid_rule`)."""
    return _grid_rule(a, b, np.zeros(1), order, panels)[:2]


def oscillation_panels(frequency: float, a: float, b: float) -> int:
    """Panel count resolving a kernel exp(i*frequency*x) on [a, b].

    Subdivision is 1.5 panels per oscillation period on the interval;
    smooth non-oscillatory integrands get a single panel.  A count over
    the panel budget raises, see :func:`_panel_budget`.
    """
    periods = abs(frequency) * (b - a) / (2.0 * math.pi)
    return max(1, math.ceil(_panel_budget(periods * 1.5)))


def _panel_budget(panels: float, order: int = 1) -> float:
    """``panels``, if a rule of that many panels of ``order`` nodes is within ``_MAX_SPLITS``
    panels and ``_MAX_NODES`` nodes; else :class:`QuadratureError` naming panels, order and
    budget."""
    if not panels <= _MAX_SPLITS:
        raise QuadratureError(
            f"the rule needs {panels:.6g} panels, over the budget of {_MAX_SPLITS} panels; "
            "lower the largest frequency or shorten the interval"
        )
    if panels * order > _MAX_NODES:
        raise QuadratureError(f"the rule needs {panels} panels of order {order}, "
                              f"{panels * order:.6g} nodes, over the budget of {_MAX_NODES} "
                              "nodes; lower the quadrature order or the largest frequency, or "
                              "shorten the interval")
    return panels


def _grid_rule(a: float, b: float, w: np.ndarray, order: int, panels: int = 1):
    """Nodes, weights and panel edges of ``order`` Gauss nodes on each of
    max(panels, oscillation_panels(max |w|)) equal panels of [a, b], w increasing, within the
    budgets of :func:`_panel_budget`, checked before any node is built.  The one rule builder:
    every run's starting rule, the ``gauss-legendre`` sum and the fixed rules of
    ``laplace_line`` and ``forward_fl``."""
    panels = max(panels, oscillation_panels(float(max(-w[0], w[-1])), a, b))
    edges = np.linspace(a, b, _panel_budget(panels, order) + 1)
    return (*_panel_rule(edges[:-1], edges[1:], order), edges)


def _bounds(interval: tuple[float, float]) -> tuple[float, float]:
    ends = _points(interval, "integration interval")
    if ends.shape != (2,) or not ends[0] < ends[1]:
        raise ContractViolationError(f"integration interval must be a pair a < b, got {interval}")
    return float(ends[0]), float(ends[1])


def integrate(
    f: Callable,
    interval: tuple[float, float],
    spec: QuadratureSpec | None = None,
    panels: int = 1,
) -> complex:
    """Integrate a complex-valued function of one real variable over [a, b].

    Parameters
    ----------
    f : callable
        Integrand; may accept numpy arrays for speed, scalars otherwise.
    interval : (a, b)
        Finite bounds with a < b.
    spec : QuadratureSpec, optional
        Method, order and tolerance.  Defaults to adaptive Gauss-Legendre
        with absolute tolerance 1e-10.
    panels : int
        Extra initial subdivision, an integer >= 1, used by callers that
        know the oscillation scale of their kernel.

    Returns
    -------
    complex
        The integral approximation.  Deterministic for fixed inputs.

    This is the whole-grid pass of :func:`integrate_grid` at the one frequency w = 0,
    from ``panels`` starting panels; a :class:`QuadratureError` it raises names no
    frequency.  f is evaluated on Gauss nodes only, not at a or b, save where bisection
    makes a panel so narrow (about 2^-47 of [-1, 1]) that its nodes round onto an end.
    """
    spec = spec or DEFAULT_SPEC
    a, b = _bounds(interval)
    panels = _scalar(panels, "panel count", "index")
    try:
        return complex(_grid_pass(f, a, b, _ORIGIN, spec, panels)[0][0])
    except QuadratureError as exc:
        exc.frequency = None  # w = 0 is the loop's kernel, not a grid the caller gave
        raise


def _panel_rule(lo: np.ndarray, hi: np.ndarray, order: int):
    """Flattened nodes and weights of the order-point Gauss rule on each panel [lo, hi]."""
    xg, wg = _leggauss(order)
    mid = (lo + hi) / 2.0
    half = (hi - lo) / 2.0
    return (mid[:, None] + half[:, None] * xg).ravel(), (half[:, None] * wg).ravel()


def _kernel(phases: np.ndarray, freqs: np.ndarray) -> np.ndarray:
    """exp(i * phases * w) for every w in ``freqs``, on a last axis of its own."""
    return np.exp(1j * np.multiply.outer(phases, freqs))


def _panel_sums(weighted: np.ndarray, lo: np.ndarray, hi: np.ndarray, order: int,
                freqs: np.ndarray) -> np.ndarray:
    """Sums of ``weighted`` against exp(i*w*x) over each panel [lo, hi], x its ``order``
    Gauss nodes as :func:`_panel_rule` places them.

    Returns shape (lo.size, freqs.size).  At the one frequency 0 the kernel is 1
    and these are plain Gauss sums.  Otherwise each node is mid + half*x_g, so
    exp(i*w*x) is exp(i*w*mid) times exp(i*w*half*x_g): a block's kernel is a
    midpoint table, one exponential per panel, times an offset table, one
    exponential per Gauss node for each distinct half-width (panels of one
    bisection depth differ only by rounding), read for each panel.  A block's
    sums are one contraction of ``weighted`` against the offset table over each
    panel's nodes, then one (panels x w) product with the midpoint table: the
    gathered offset table is its one (panels x order x w) array.  No node moves,
    so f is summed where it was evaluated.  One exponential serves each +-w
    pair: the tables are formed once for each distinct |w|, and a negative w
    reads their conjugate columns, exp(-i*|w|*x) = conj(exp(i*|w|*x)) (the
    real-data symmetry of Cooley, Lewis & Welch 1970).  Blocks run over the
    distinct |w|, as many as fit in ``_GRID_BLOCK`` kernel entries (one at a
    time when there are more nodes than that), so each pair shares a block and
    its sums are the unpaired ones.  They differ from the direct sum of
    weighted * exp(i*w*x) only in the order of the sum over a panel and where
    the midpoint factor is applied.
    """
    if freqs.size == 1 and freqs[0] == 0:
        return weighted.reshape(-1, order).sum(axis=1)[:, None]
    out = np.empty((lo.size, freqs.size), dtype=complex)
    mid, half = (lo + hi) / 2.0, (hi - lo) / 2.0
    halves, width = np.unique(half, return_inverse=True)
    offsets = halves[:, None] * _leggauss(order)[0]  # the node offsets of _panel_rule
    weighted = weighted.reshape(lo.size, order)
    mag = np.abs(freqs)
    by_mag = np.argsort(mag, kind="stable")  # columns by |w|
    mag = mag[by_mag]
    heads = np.flatnonzero(np.concatenate(([True], mag[1:] != mag[:-1])))  # first of each |w|
    bounds = np.concatenate((heads, [freqs.size]))
    step = max(1, _GRID_BLOCK // weighted.size)
    for start in range(0, heads.size, step):
        first, last = bounds[start], bounds[min(start + step, heads.size)]
        cols, mags = by_mag[first:last], mag[heads[start:start + step]]
        centre, offset = _kernel(mid, mags), _kernel(offsets, mags)
        if cols.size > mags.size:  # some |w| serve both signs: a column for each
            pick = np.searchsorted(mags, mag[first:last])
            centre, offset = centre[:, pick], offset[:, :, pick]
        negative = freqs[cols] < 0
        np.conjugate(centre, out=centre, where=negative)
        np.conjugate(offset, out=offset, where=negative)
        out[:, cols] = np.einsum("pg,pgw->pw", weighted, offset[width]) * centre
    return out


def integrate_grid(
    f: Callable,
    interval: tuple[float, float],
    grid: Grid,
    spec: QuadratureSpec | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Integrals of f(x) exp(i*w*x) over [a, b] for every w on ``grid``, sharing the samples.

    The rule of :func:`_grid_rule` starts from ``oscillation_panels(max |w|)`` panels.
    ``gauss-legendre`` evaluates f once on it and sums it through :func:`exp_sum`.
    ``adaptive`` bisects the Gauss panels, see :func:`_adaptive_grid`, over runs of the grid
    small enough that the starting panels times the run fit in ``_GRID_CELLS``, under one
    split budget; each run evaluates f once on the rule of its own largest |w|.  f is evaluated
    on Gauss nodes only, not at a or b, save where a bisected panel is so narrow that its nodes
    round onto an end (see :func:`integrate`).  Within a run one exponential serves each +-w
    pair (:func:`_panel_sums`); runs are contiguous in w, so a symmetric grid split into runs
    pairs only in the run that holds 0.

    Returns the integrals and |f| on the starting nodes (the first run's).
    An adaptive pass that fails its defect or split budget raises a
    :class:`QuadratureError` whose ``frequency`` is the w on the grid its
    estimate is worst at, the first in a tie, so a caller can name it.
    """
    return _grid_pass(f, *_bounds(interval), grid, spec or DEFAULT_SPEC, 1)


def _grid_pass(f, a: float, b: float, grid: Grid, spec: QuadratureSpec, panels: int):
    """:func:`integrate_grid` from at least ``panels`` panels; the one reader of spec.method."""
    w = grid.points
    x, weights, edges = _grid_rule(a, b, w, spec.order, panels)
    if spec.method != "adaptive":
        fx = _eval_integrand(f, x)
        return exp_sum(weights * fx, x, grid, 1), np.abs(fx)
    run, splits = max(1, _GRID_CELLS // (2 * (edges.size - 1))), 0
    total = np.empty(w.size, dtype=complex)
    for start in range(0, w.size, run):
        piece = w[start:start + run]
        if piece.size < w.size:  # one of several runs: the rule of its own largest |w|
            x, weights, edges = _grid_rule(a, b, piece, spec.order, panels)
        fx = _eval_integrand(f, x)
        total[start:start + run], splits = _adaptive_grid(f, edges, weights * fx, piece,
                                                          spec, splits)
        if start == 0:
            magnitude = np.abs(fx)
    return total, magnitude


def _adaptive_grid(f, edges: np.ndarray, weighted: np.ndarray, w: np.ndarray,
                   spec: QuadratureSpec, splits: int):
    """The one bisection loop: integrals of f(x) exp(i*w*x) over the panels between ``edges``
    for every w, sharing the bisection.  ``weighted`` holds the Gauss weights times f on the
    starting panels' nodes, which the caller evaluated; the panel sums, :func:`_panel_sums`,
    take each batch's panels, not its nodes.  :func:`integrate` passes the one frequency
    w = 0, whose kernel is 1, so its panel sums are plain Gauss sums.

    Panels go through a depth-first stack in batches of at most
    ``_GRID_CELLS // (2 * max(order, w.size))``, so the nodes of a batch's halves and their
    panels-by-frequencies sums each fit in ``_GRID_CELLS`` entries; the stack holds the
    starting panels' sums and at most one more batch per bisection level.
    Each batch evaluates f once, on the Gauss nodes of both halves of its panels.  A panel
    is accepted when ``max over w |fine - coarse| <= tol * width / span``, the test at its
    worst frequency (QUADPACK's QAG acceptance, Piessens et al. 1983).  A panel that
    cannot be split further keeps its refined value and its change joins the defect: at a
    jump or machine resolution, at depth ``_MAX_BISECTIONS``, or when every failing
    frequency changed by rounding alone (``_ROUNDING`` times |fine|).  The pass raises
    :class:`QuadratureError` naming the w its estimate is worst at, the first in a tie, as
    soon as the defect, which can only grow, exceeds tol at some w, or once the splits of
    all batches and earlier runs (``splits``) pass ``_MAX_SPLITS``.

    Returns the integrals and the splits so far.
    """
    order, tol, span = spec.order, spec.tolerance, edges[-1] - edges[0]
    rows = max(1, _GRID_CELLS // (2 * max(order, w.size)))
    lo, hi = edges[:-1], edges[1:]
    stack = []
    for s in reversed(range(0, lo.size, rows)):
        coarse = _panel_sums(weighted[s * order:(s + rows) * order], lo[s:s + rows],
                             hi[s:s + rows], order, w)
        stack.append((lo[s:s + rows], hi[s:s + rows], coarse, 0))
    total = np.zeros(w.size, dtype=complex)
    defect = np.zeros(w.size)
    while stack:
        lo, hi, coarse, depth = stack.pop()
        mid = (lo + hi) / 2.0
        starts, ends = np.concatenate((lo, mid)), np.concatenate((mid, hi))
        x, weights = _panel_rule(starts, ends, order)
        halves = _panel_sums(weights * _eval_integrand(f, x), starts, ends, order, w)
        left, right = halves[:lo.size], halves[lo.size:]
        fine = left + right
        change = np.abs(fine - coarse)
        limit = tol * (hi - lo)[:, None] / span
        done = np.all(change <= limit, axis=1)
        stuck = ~done & ((depth >= _MAX_BISECTIONS) | (mid <= lo) | (mid >= hi))
        failed = np.flatnonzero(~done)  # the rounding test reads only these
        stuck[failed] |= np.all(change[failed] <= np.maximum(
            limit[failed], _ROUNDING * np.abs(fine[failed])), axis=1)
        total += fine[done | stuck].sum(axis=0)
        defect += change[stuck].sum(axis=0)
        worst = int(np.argmax(defect))
        if defect[worst] > tol:
            raise QuadratureError(f"adaptive quadrature error estimate {defect[worst]:.3e} "
                                  f"exceeds tolerance {tol:.3e}", float(w[worst]))
        split = ~(done | stuck)
        splits += int(np.count_nonzero(split))
        if splits > _MAX_SPLITS:
            estimate = defect + change[split].sum(axis=0)
            worst = int(np.argmax(estimate))
            raise QuadratureError(
                f"adaptive quadrature stopped at its budget of {_MAX_SPLITS} panel splits; "
                f"error estimate so far {estimate[worst]:.3e}, tolerance {tol:.3e}",
                float(w[worst]),
            )
        lo, hi = np.concatenate((lo[split], mid[split])), np.concatenate((mid[split], hi[split]))
        coarse = np.concatenate((left[split], right[split]))
        for s in reversed(range(0, lo.size, rows)):
            stack.append((lo[s:s + rows], hi[s:s + rows], coarse[s:s + rows], depth + 1))
    return total, splits


def integrate_halfline(f: Callable, truncation: float, spec: QuadratureSpec | None = None,
                       panels: int = 1) -> HalfLineResult:
    """Integrate f over [0, X], with the tail beyond X of :func:`_check_decay`: growth of
    |f| toward X raises, a tail above the spec's tolerance warns."""
    spec = spec or DEFAULT_SPEC
    X = _scalar(truncation, "truncation X", "positive")
    tail = _check_decay(np.abs(_eval_integrand(f, np.array([X / 2.0, X]))), X, spec.tolerance)
    return HalfLineResult(value=integrate(f, (0.0, X), spec, panels=panels), tail_estimate=tail)
