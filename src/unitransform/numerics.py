"""Grids, complex-valued sampled functions, and quadrature engines.

The integral of a function over one interval goes through :func:`integrate`
(finite intervals) or :func:`integrate_halfline` (truncated ``[0, X]``
integrals); integrals against exp(i w x) for a whole grid of w go through
:func:`integrate_grid` (``forward_ft`` and the Gram matrix); and fixed-rule
or stored samples are summed against that kernel by :func:`exp_sum`
(``laplace_line``, ``forward_fl`` and ``inverse_ft``).
Oscillatory integrands are handled by panel subdivision, see
:func:`oscillation_panels`; no Filon-type machinery.  Every rule, like
every adaptive call, is held to the budget of ``_MAX_SPLITS`` panels
(:func:`_panel_budget`).  Every pass evaluates f once on its starting
rule, ``order`` Gauss nodes on each of its equal panels
(:func:`composite_gauss_nodes`): ``gauss-legendre`` is that rule summed,
and the adaptive method bisects its panels from there.  :func:`exp_sum`
sums one row by chirp-z FFTs where that is cheaper than the direct
kernel, and every other sum by the direct kernel, block by block; it adds
the sums into an array the caller passes, so a caller that sums many
arrays onto one output holds no second output.
:func:`_eval_integrand` evaluates every callable.  Every truncation meets one of the two
guards that build a :class:`TruncationWarning`: :func:`_check_decay` on a half line (growth
and tail of the integrand as summed, f e^{-sigma t} on a damped line), :func:`_check_ends` on
an interval or contour whose integrand should have died out at its ends; :func:`_check_exp`
refuses an e^z beyond float range before it is formed.  The input contract is three guards:
:func:`_scalar` for every scalar that defines a problem, :func:`_points` for evaluation
points given as a scalar or an array, and :func:`_sampled` for every array of sampled values.
"""

from __future__ import annotations

import cmath
import math
import numbers
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
# Work budget of one adaptive pass: panel splits per _adaptive or _adaptive_grid call,
# over 100x the most a test needs (1,741, real-series of a piecewise-linear function).
# Also the most panels any rule starts from (the most a test needs: 3,820, T=400 at X=40).
_MAX_SPLITS = 200_000
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
# Panels-by-frequencies entries per batch of the adaptive pass in integrate_grid.
_GRID_CELLS = 1 << 16
# Largest |integrand| at a truncation end, relative to its peak, that passes
# without a TruncationWarning.
ENDPOINT_RATIO = 1e-6
# Largest QuadratureSpec.order: leggauss(n) builds an n x n companion matrix.
MAX_QUAD_ORDER = 1000
_LOG_MAX = math.log(np.finfo(float).max)  # about 709.78: e^z overflows for any z above it


_RULES = {"finite": "finite", "positive": "finite and > 0", "count": "a non-negative integer",
          "complex": "a finite number"}


def _scalar(value, name: str, rule: str = "finite"):
    """``value`` as a float (an int for rule "count", a complex for "complex") if it obeys ``rule``.

    ``rule`` is "finite", "positive" (finite and > 0), "count" (a
    non-negative integer) or "complex" (a finite real or complex number).
    Anything else, None, booleans and strings included, raises
    :class:`ContractViolationError` "<name> must be <rule>, got <value>".
    """
    number = isinstance(value, numbers.Complex if rule == "complex" else numbers.Real)
    v = complex(value) if number and not isinstance(value, bool) else complex(math.nan)
    ok = {"finite": True, "complex": True, "positive": v.real > 0,
          "count": v.real >= 0 and v.real.is_integer()}[rule]
    if not (ok and cmath.isfinite(v)):
        raise ContractViolationError(f"{name} must be {_RULES[rule]}, got {value}")
    return v if rule == "complex" else int(v.real) if rule == "count" else v.real


def _points(x, name: str) -> np.ndarray:
    """``x`` as a float array, 0-d for a scalar, if every entry is a finite real number.

    A scalar goes through :func:`_scalar`; an array's first bad entry is named.
    """
    xs = np.asarray(x)
    if xs.ndim == 0:
        return np.asarray(_scalar(xs[()], name))
    ok = xs.dtype.kind in "iuf" and np.isfinite(xs)
    if not np.all(ok):
        raise ContractViolationError(f"{name} must be finite, got {xs.flat[np.argmin(ok)]}")
    return xs.astype(float, copy=False)


def _sampled(values, *grids: Grid) -> np.ndarray:
    """``values`` as a read-only complex array of shape (len(g) for g in grids), all finite.

    The caller's array is not frozen: the result is a view or a copy.
    """
    vals = np.asarray(values, dtype=complex).view()
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
    engine.  ``gauss-legendre`` is the starting rule summed, unrefined: the
    reference rule that tests and the acceptance probe compare against.
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
    """Ordered real abscissae.

    ``kind`` is either ``"uniform"`` (constant spacing, checked to a
    relative tolerance of 1e-12) or ``"gauss-nodes"``.
    """

    __slots__ = ("points", "kind")
    KINDS = ("uniform", "gauss-nodes")

    def __init__(self, points: Sequence[float] | np.ndarray, kind: str = "uniform"):
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 1 or pts.size == 0:
            raise ContractViolationError("grid points must form a non-empty 1-D sequence")
        if not np.all(np.isfinite(pts)):
            raise ContractViolationError("grid points must be finite")
        if pts.size > 1 and not np.all(np.diff(pts) > 0):
            raise ContractViolationError("grid points must be strictly increasing")
        if kind not in Grid.KINDS:
            raise ContractViolationError(f"unknown grid kind {kind!r}")
        if kind == "uniform" and pts.size > 2:
            d = np.diff(pts)
            mean = d.mean()
            if np.max(np.abs(d - mean)) > 1e-12 * max(abs(mean), np.max(np.abs(pts))):
                raise ContractViolationError("uniform grid has non-constant spacing")
        pts.flags.writeable = False
        self.points = pts
        self.kind = kind

    @classmethod
    def uniform(cls, a: float, b: float, num: int) -> "Grid":
        num = _scalar(num, "grid point count", "count")
        if num < 1:
            raise ContractViolationError("grid needs at least one point")
        if num == 1:
            return cls(np.array([a]), kind="uniform")
        if not a < b:
            raise ContractViolationError("grid requires a < b")
        return cls(np.linspace(a, b, num), kind="uniform")

    @property
    def spacing(self) -> float:
        if self.kind != "uniform":
            raise ContractViolationError("spacing is defined for uniform grids only")
        if self.points.size < 2:
            raise ContractViolationError("spacing needs at least two points")
        return float((self.points[-1] - self.points[0]) / (self.points.size - 1))

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
        return f"Grid({self.points.size} points on [{self.points[0]:g}, {self.points[-1]:g}], {self.kind})"


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
        warnings.warn(TruncationWarning(
            f"{axis}half-line tail estimate {tail:.3e} beyond X={X:g} exceeds tolerance "
            f"{tol:.3e}; raise X for full accuracy"), stacklevel=3)
    return tail


def _check_ends(magnitude: np.ndarray, what: str, remedy: str, stacklevel: int = 4) -> None:
    """Warn when ``magnitude`` at either end exceeds ENDPOINT_RATIO of its peak.

    ``magnitude`` is |integrand| along a truncated interval or contour, ends
    first and last; the :class:`TruncationWarning` reads "<what> at the
    endpoints is ... of its peak; raise <remedy> for full accuracy".
    """
    peak = float(np.max(magnitude))
    ends = max(magnitude[0], magnitude[-1])
    if peak > 0 and ends > ENDPOINT_RATIO * peak:
        warnings.warn(
            TruncationWarning(
                f"{what} at the endpoints is {ends / peak:.2e} of its peak; "
                f"raise {remedy} for full accuracy"
            ),
            stacklevel=stacklevel,
        )


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
    if grid.kind != "uniform" or M < 2 or n * M <= _CHIRP_SETUP:
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
    the node axis is the last axis of ``weighted``.  One row (``weighted.ndim
    == 1``) on a uniform grid whose nodes are interleaved uniform sub-grids,
    when its FFTs cost less than the direct kernel (see
    :func:`_chirp_layout`), is q Bluestein chirp-z transforms,
    :func:`_chirp_sum`, with every large phase reduced exactly.  Every other
    sum runs the direct kernel, one block of ``_EXP_BLOCK`` grid columns at a
    time.  On a uniform grid of two or more points that kernel is the step
    kernel exp(sign*i*b*h*nodes), b < ``_EXP_BLOCK``, a recurrence started
    from 1 with the step h taken from ``grid.spacing``; block a's kernel is
    exp(sign*i*w_a*nodes) times it, one broadcast multiply into a reused
    buffer, so rounding cannot drift from block to block.  Any other grid
    gets a direct exponential per block.
    """
    w = grid.points
    if weighted.ndim == 1 and (chirp := _chirp_layout(nodes, grid)) is not None:
        sums = _chirp_sum(weighted, sign, *chirp)
        return sums if out is None else np.add(out, sums, out=out)
    if out is None:
        out = np.zeros(weighted.shape[:-1] + w.shape, dtype=complex)
    step = None
    if grid.kind == "uniform" and w.size > 1:
        step = np.repeat(np.exp(sign * 1j * grid.spacing * nodes)[:, None],
                         min(w.size, _EXP_BLOCK), axis=1)
        step[:, 0] = 1.0
        np.cumprod(step, axis=1, out=step)
        buffer = np.empty_like(step)
    for start in range(0, w.size, _EXP_BLOCK):
        cols = w[start:start + _EXP_BLOCK]
        if step is None:
            kernel = np.exp(sign * 1j * np.outer(nodes, cols))
        else:
            kernel = np.multiply(np.exp(sign * 1j * cols[0] * nodes)[:, None],
                                 step[:, :cols.size], out=buffer[:, :cols.size])
        out[..., start:start + cols.size] += weighted @ kernel
    return out


def _adaptive(f, edges: np.ndarray, start: np.ndarray, tol: float) -> complex:
    """Depth-first adaptive Gauss-Legendre from the panels between ``edges``; the rows of
    ``start`` are f on their :func:`composite_gauss_nodes`.  Each split evaluates f once, on
    the nodes of both halves."""
    order = start.shape[1]
    xg, wg = _leggauss(order)
    span = float(edges[-1] - edges[0])
    stack = [(float(lo), float(hi), complex((hi - lo) / 2.0 * np.dot(wg, row)), 0)
             for lo, hi, row in zip(edges[:-1], edges[1:], start)]
    total = 0j
    defect = 0.0
    splits = 0
    while stack:
        lo, hi, coarse, depth = stack.pop()
        mid = (lo + hi) / 2.0
        half_l, half_r = (mid - lo) / 2.0, (hi - mid) / 2.0
        vals = _eval_integrand(f, np.concatenate(((lo + mid) / 2.0 + half_l * xg,
                                                  (mid + hi) / 2.0 + half_r * xg)))
        left = complex(half_l * np.dot(wg, vals[:order]))
        right = complex(half_r * np.dot(wg, vals[order:]))
        fine = left + right
        if abs(fine - coarse) <= tol * (hi - lo) / span:
            total += fine
        elif depth >= _MAX_BISECTIONS or mid <= lo or mid >= hi:
            # Cannot subdivide further (jump or machine resolution); keep
            # the refined value and account for its unresolved defect.
            total += fine
            defect += abs(fine - coarse)
            _check_defect(defect, tol)
        else:
            splits += 1
            if splits > _MAX_SPLITS:
                _over_budget(defect + abs(fine - coarse), tol)
            stack.append((mid, hi, right, depth + 1))
            stack.append((lo, mid, left, depth + 1))
    return total


def _check_defect(defect: float, tol: float, frequency: float | None = None) -> None:
    """Fail an adaptive pass as soon as its unresolved defect, which can only grow, exceeds tol;
    ``frequency`` is the grid frequency of a whole-grid pass that the defect is worst at."""
    if defect > tol:
        raise QuadratureError(
            f"adaptive quadrature error estimate {defect:.3e} exceeds tolerance {tol:.3e}",
            frequency,
        )


def _over_budget(estimate: float, tol: float, frequency: float | None = None):
    """Stop a pass past ``_MAX_SPLITS``; ``estimate`` is its defect plus the change of the
    panels being split, worst at ``frequency`` in a whole-grid pass."""
    raise QuadratureError(
        f"adaptive quadrature stopped at its budget of {_MAX_SPLITS} panel splits; "
        f"error estimate so far {estimate:.3e}, tolerance {tol:.3e}",
        frequency,
    )


def composite_gauss_nodes(a: float, b: float, order: int, panels: int):
    """Flattened nodes and weights of a composite Gauss-Legendre rule."""
    edges = np.linspace(a, b, panels + 1)
    return _panel_rule(edges[:-1], edges[1:], order)


def oscillation_panels(frequency: float, a: float, b: float) -> int:
    """Panel count resolving a kernel exp(i*frequency*x) on [a, b].

    Subdivision is 1.5 panels per oscillation period on the interval;
    smooth non-oscillatory integrands get a single panel.  A count over
    the panel budget raises, see :func:`_panel_budget`.
    """
    periods = abs(frequency) * (b - a) / (2.0 * math.pi)
    return max(1, math.ceil(_panel_budget(periods * 1.5)))


def _panel_budget(panels: float) -> float:
    """``panels``, if a rule of that many panels is within ``_MAX_SPLITS``; else
    :class:`QuadratureError` naming the count and the budget."""
    if not panels <= _MAX_SPLITS:
        raise QuadratureError(
            f"the rule needs {panels:.6g} panels, over the budget of {_MAX_SPLITS} panels; "
            "lower the largest frequency or shorten the interval"
        )
    return panels


def _grid_rule(a: float, b: float, grid: Grid, order: int):
    """The fixed rule of the whole-grid sums: oscillation_panels(max |w|) Gauss panels on [a, b]."""
    panels = oscillation_panels(float(np.max(np.abs(grid.points))), a, b)
    return composite_gauss_nodes(a, b, order, panels)


def _bounds(interval: tuple[float, float]) -> tuple[float, float]:
    a, b = float(interval[0]), float(interval[1])
    if not (math.isfinite(a) and math.isfinite(b) and a < b):
        raise ContractViolationError(f"integration interval must satisfy a < b, got ({a}, {b})")
    return a, b


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
    """
    spec = spec or DEFAULT_SPEC
    a, b = _bounds(interval)
    panels = _scalar(panels, "panel count", "count")
    if panels < 1:
        raise ContractViolationError("panel count must be >= 1")
    _panel_budget(panels)
    nodes, weights = composite_gauss_nodes(a, b, spec.order, panels)
    fx = _eval_integrand(f, nodes)
    if spec.method != "adaptive":
        return complex(np.dot(weights, fx))
    return _adaptive(f, np.linspace(a, b, panels + 1), fx.reshape(panels, -1), spec.tolerance)


def _panel_rule(lo: np.ndarray, hi: np.ndarray, order: int):
    """Flattened nodes and weights of the order-point Gauss rule on each panel [lo, hi]."""
    xg, wg = _leggauss(order)
    mid = (lo + hi) / 2.0
    half = (hi - lo) / 2.0
    return (mid[:, None] + half[:, None] * xg).ravel(), (half[:, None] * wg).ravel()


def _kernel(nodes: np.ndarray, freqs: np.ndarray) -> np.ndarray:
    return np.exp(1j * np.outer(nodes, freqs))


def _panel_sums(weighted: np.ndarray, nodes: np.ndarray, size: int,
                freqs: np.ndarray) -> np.ndarray:
    """Sums of ``weighted`` against exp(i*w*nodes) over each run of ``size`` nodes.

    Returns shape (nodes.size // size, freqs.size).  The kernel is built for
    as many frequencies at a time as fit in ``_GRID_BLOCK`` entries (one at a
    time when there are more nodes than that).
    """
    out = np.empty((nodes.size // size, freqs.size), dtype=complex)
    step = max(1, _GRID_BLOCK // nodes.size)
    for start in range(0, freqs.size, step):
        cols = freqs[start:start + step]
        kernel = _kernel(nodes, cols)
        kernel *= weighted[:, None]
        out[:, start:start + cols.size] = kernel.reshape(-1, size, cols.size).sum(axis=1)
    return out


def integrate_grid(
    f: Callable,
    interval: tuple[float, float],
    grid: Grid,
    spec: QuadratureSpec | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Integrals of f(x) exp(i*w*x) over [a, b] for every w on ``grid``, sharing the samples.

    The rule starts from ``oscillation_panels(max |w|)`` panels.
    ``gauss-legendre`` evaluates f once on that rule, :func:`_grid_rule`,
    and sums it through :func:`exp_sum`.  ``adaptive`` bisects the Gauss
    panels, see :func:`_adaptive_grid`, over runs of the grid small enough
    that the starting panels times the run fit in ``_GRID_CELLS``, under one split budget.

    Returns the integrals and |f| at a, the starting nodes (the first
    run's) and b, for :func:`_check_ends`.  An adaptive pass that fails
    its defect or split budget raises a :class:`QuadratureError` whose
    ``frequency`` is the w on the grid its estimate is worst at, the first
    in a tie, so a caller can name it.
    """
    spec = spec or DEFAULT_SPEC
    a, b = _bounds(interval)
    w = grid.points
    if spec.method != "adaptive":
        x, weights = _grid_rule(a, b, grid, spec.order)
        fx = _eval_integrand(f, np.concatenate(([a], x, [b])))
        return exp_sum(weights * fx[1:-1], x, grid, 1), np.abs(fx)
    panels = oscillation_panels(float(np.max(np.abs(w))), a, b)
    run, splits = max(1, _GRID_CELLS // (2 * panels)), 0
    total = np.empty(w.size, dtype=complex)
    for start in range(0, w.size, run):
        piece = w[start:start + run]
        total[start:start + run], ends, splits = _adaptive_grid(f, a, b, piece, spec, splits)
        if start == 0:
            magnitude = ends
    return total, magnitude


def _adaptive_grid(f, a: float, b: float, w: np.ndarray, spec: QuadratureSpec, splits: int):
    """Adaptive integrals of f(x) exp(i*w*x) over [a, b] for every w, sharing the bisection.

    Panels go through a depth-first stack in batches of at most
    ``_GRID_CELLS // (2 * w.size)``, so the panels-by-frequencies sums of a
    batch's halves fit in ``_GRID_CELLS`` entries; the stack holds the
    starting panels' sums and at most one more batch per bisection level.
    Each batch evaluates f once, on both halves of its panels.  A panel is accepted
    when ``max over w |fine - coarse| <= tol * width / span``, the test of
    :func:`integrate` at its worst frequency; ``_MAX_BISECTIONS`` and the
    unresolved-defect :class:`QuadratureError` apply per frequency as there,
    and ``_MAX_SPLITS`` to the splits of all batches and earlier runs (``splits``).

    Returns the integrals, |f| at a, the starting Gauss nodes and b, and the splits so far.
    """
    order, tol, span = spec.order, spec.tolerance, b - a
    rows = max(1, _GRID_CELLS // (2 * w.size))
    edges = np.linspace(a, b, oscillation_panels(float(np.max(np.abs(w))), a, b) + 1)
    lo, hi = edges[:-1], edges[1:]
    x, weights = _panel_rule(lo, hi, order)
    fx = _eval_integrand(f, np.concatenate(([a], x, [b])))
    weighted = weights * fx[1:-1]
    stack = []
    for s in reversed(range(0, lo.size, rows)):
        nodes = slice(s * order, (s + rows) * order)
        coarse = _panel_sums(weighted[nodes], x[nodes], order, w)
        stack.append((lo[s:s + rows], hi[s:s + rows], coarse, 0))
    total = np.zeros(w.size, dtype=complex)
    defect = np.zeros(w.size)
    while stack:
        lo, hi, coarse, depth = stack.pop()
        mid = (lo + hi) / 2.0
        x, weights = _panel_rule(np.concatenate((lo, mid)), np.concatenate((mid, hi)), order)
        halves = _panel_sums(weights * _eval_integrand(f, x), x, order, w)
        left, right = halves[:lo.size], halves[lo.size:]
        fine = left + right
        change = np.abs(fine - coarse)
        done = np.max(change, axis=1) <= tol * (hi - lo) / span
        # A panel that cannot be split further (jump or machine resolution)
        # keeps its refined value and accounts for its unresolved defect.
        stuck = ~done & ((depth >= _MAX_BISECTIONS) | (mid <= lo) | (mid >= hi))
        total += fine[done | stuck].sum(axis=0)
        defect += change[stuck].sum(axis=0)
        worst = int(np.argmax(defect))
        _check_defect(float(defect[worst]), tol, float(w[worst]))
        split = ~(done | stuck)
        splits += int(np.count_nonzero(split))
        if splits > _MAX_SPLITS:
            estimate = defect + change[split].sum(axis=0)
            worst = int(np.argmax(estimate))
            _over_budget(float(estimate[worst]), tol, float(w[worst]))
        lo, hi = np.concatenate((lo[split], mid[split])), np.concatenate((mid[split], hi[split]))
        coarse = np.concatenate((left[split], right[split]))
        for s in reversed(range(0, lo.size, rows)):
            stack.append((lo[s:s + rows], hi[s:s + rows], coarse[s:s + rows], depth + 1))
    return total, np.abs(fx), splits


def integrate_halfline(f: Callable, truncation: float, spec: QuadratureSpec | None = None,
                       panels: int = 1) -> HalfLineResult:
    """Integrate f over [0, X], with the tail beyond X of :func:`_check_decay`: growth of
    |f| toward X raises, a tail above the spec's tolerance warns."""
    spec = spec or DEFAULT_SPEC
    X = _scalar(truncation, "truncation X", "positive")
    tail = _check_decay(np.abs(_eval_integrand(f, np.array([X / 2.0, X]))), X, spec.tolerance)
    return HalfLineResult(value=integrate(f, (0.0, X), spec, panels=panels), tail_estimate=tail)
