"""line-spectra: store spectra on vertical lines, then read them back (in process).

Each deck builds one ``laplace_line`` and one ``forward_fl`` spectrum at every
contour half-height T in {2, 10, 25, 50, 100} (step 0.05), and reads each
stored spectrum with T >= 25 back a few times: ``bromwich_inverse_from_samples``
of the Laplace line and ``inverse_fl`` of the 2-D spectrum.  Every 2-D
spectrum also comes with one ``inverse_ft`` of the closed-form gaussian
spectrum on its lambda grid.  The originals are t^n e^{-at}; lambda grids
have 31-121 points, so the 2-D spectra span up to 7.7 MB, on both sides of
the L2 cache.

Almost all the time goes to uniform-grid kernel sums (complex-exp outer
products and matmuls); there is no adaptive quadrature, no expression
parsing and no file I/O.

Every deck holds the same requests up to the seed's choices, and none of
those choices changes what a request costs: the seed draws n and a from
the sets below, the read times and points, and the order of the spectra.
Only originals the program answers within tolerance are drawn (see
``defects.py`` for the ones it does not).
"""

from __future__ import annotations

import math
import random

import numpy as np

import unitransform as ut
from common import Request
from oracles import gauss_ft, laplace_tn_exp, tn_exp

T_VALUES = (2.0, 10.0, 25.0, 50.0, 100.0)
STEP = 0.05
X_TRUNC = 40.0
A_TRUNC = 12.0
LAMBDA_MAX = 6.0
# lambda points per T: the 2-D spectra then hold 0.16, 0.2, 1, 2.9 and 7.7 MB,
# on both sides of the L2 cache.  Tying the size to T keeps the cost of
# every deck the same, so that runs on different seeds compare.
LAMBDA_SIZES = {2.0: 121, 10.0: 31, 25.0: 61, 50.0: 91, 100.0: 121}
# Per T: the decay rates a, powers n and abscissae sigma the seed draws
# from, and the reads per stored Laplace line and per 2-D spectrum.
# * The fixed 10-point rule of laplace_line/forward_fl resolves e^{-at} only
#   while a * (panel width) stays small, which rules out a = 50 everywhere
#   and a = 5 at T = 2; a = 0.5 leaves a tail above 1e-8 at X = 40 once n >= 1.
# * A T = 2 or T = 10 contour is too short for a 1e-3 read, so those
#   spectra are built and not read.
# * The read spectra have n = 3, whose transform n!/(s + a)^4 falls below
#   1e-6 of its peak by the end of the line for a = 1 at T >= 50, so those
#   reads never warn; at T = 25, a = 5 keeps t^3 e^{-5t} small enough that
#   its reads pass, and they always warn.  The cost of a read then does not
#   depend on the seed.
SLOTS = {
    2.0: {"a": (1.0,), "n": (2, 3), "sigma": (0.25, 0.5, 1.0), "reads": (0, 0)},
    10.0: {"a": (1.0, 5.0), "n": (2, 3), "sigma": (0.25, 0.5, 1.0), "reads": (0, 0)},
    25.0: {"a": (5.0,), "n": (3,), "sigma": (0.25, 0.5), "reads": (4, 1)},
    50.0: {"a": (1.0,), "n": (3,), "sigma": (0.25, 0.5), "reads": (4, 8)},
    100.0: {"a": (1.0,), "n": (3,), "sigma": (0.25, 0.5), "reads": (4, 8)},
}
# A deck then holds 44 requests.  Sorted by cost, 18 cheaper reads come
# first, then the eight T = 50 inverse_fl reads, then 18 dearer requests,
# so the median is one of those eight; the p90 is the T = 25 laplace_line
# build, between the T = 50 builds and the T = 25 forward_fl build of like
# cost.  Neither falls on the step between two cost classes.
# Read times are spread over this range; the truncation error of a read
# grows like e^{sigma t}.
READ_T_RANGE = (0.25, 3.0)
DECKS = 10
# The machine-speed kernel each request kind's time follows (calibration.py):
# builds are complex exponentials and matvecs over megabytes, reads (and
# set-up) one pass over a stored spectrum.
CALIBRATION = {"laplace_line": "build", "forward_fl": "build", "*": "read"}


def _tau_grid(T: float) -> ut.Grid:
    return ut.Grid.uniform(-T, T, int(round(2 * T / STEP)) + 1)


def _t_fn(n: int, a: float):
    return lambda x: np.asarray(x, float) ** n * np.exp(-a * np.asarray(x, float)) + 0j


def _xt_fn(n: int, a: float):
    def f(x, t):
        t = np.asarray(t, float)
        return np.exp(-np.asarray(x, float) ** 2 / 2.0) * t**n * np.exp(-a * t) + 0j

    return f


def _build(state: dict, key: str, make):
    """Drop the spectrum read so far, then build the next one and store it.

    Only one stored spectrum is alive at a time, so the peak memory of a
    deck does not depend on the order the seed gives its spectra.
    """
    for old in [k for k in state if k != "wrap"]:
        del state[old]
    state[key] = make()
    return state[key]


def _read_times(rng: random.Random, reads: int) -> list:
    """Read times spread over READ_T_RANGE: one in each of ``reads`` equal parts."""
    edges = np.linspace(*READ_T_RANGE, reads + 1)
    return [round(rng.uniform(lo, hi), 4) for lo, hi in zip(edges[:-1], edges[1:])]


def make_deck(rng: random.Random, index: int) -> list:
    groups = []
    for T in T_VALUES:
        tag = f"d{index}.T{T:g}"
        slot = SLOTS[T]
        tau = _tau_grid(T)
        # Laplace line and its contour reads.
        n, a, sigma = rng.choice(slot["n"]), rng.choice(slot["a"]), rng.choice(slot["sigma"])
        key = tag + ".ll"
        params = {"T": T, "n": n, "a": a, "sigma": sigma, "X": X_TRUNC}
        group = [Request(
            key, "laplace_line", params,
            lambda st, key=key, f=_t_fn(n, a), sigma=sigma, tau=tau: _build(
                st, key, lambda: ut.laplace_line(st["wrap"](f), sigma, tau, X_TRUNC)),
            lambda n=n, a=a, s=sigma + 1j * tau.points: laplace_tn_exp(n, a, s),
            lambda r: r.values)]
        for k, t in enumerate(_read_times(rng, slot["reads"][0])):
            group.append(Request(
                f"{key}.r{k}", "bromwich_inverse_from_samples", {**params, "t": t},
                lambda st, key=key, t=t: ut.bromwich_inverse_from_samples(st[key], t),
                float(tn_exp(n, a, t))))
        groups.append(group)
        # Fourier-Laplace spectrum, its point reads, and one inverse_ft read.
        n, a, sigma = rng.choice(slot["n"]), rng.choice(slot["a"]), rng.choice(slot["sigma"])
        lam = ut.Grid.uniform(-LAMBDA_MAX, LAMBDA_MAX, LAMBDA_SIZES[T])
        key = tag + ".fl"
        params = {"T": T, "n": n, "a": a, "sigma": sigma, "lambda_points": LAMBDA_SIZES[T],
                  "A": A_TRUNC, "X": X_TRUNC}
        expected = lambda n=n, a=a, lam=lam.points, s=sigma + 1j * tau.points: np.outer(  # noqa: E731
            gauss_ft(lam), laplace_tn_exp(n, a, s))
        group = [Request(
            key, "forward_fl", params,
            lambda st, key=key, f=_xt_fn(n, a), lam=lam, sigma=sigma, tau=tau: _build(
                st, key, lambda: ut.forward_fl(st["wrap"](f), lam, sigma, tau, (A_TRUNC, X_TRUNC))),
            expected, lambda r: r.values)]
        # The lambda step bounds |x| by the pi/4 aliasing rule.
        x_max = min(1.5, 0.9 * (math.pi / 4) / lam.spacing)
        for k, t in enumerate(_read_times(rng, slot["reads"][1])):
            x = round(rng.uniform(-x_max, x_max), 4)
            group.append(Request(
                f"{key}.r{k}", "inverse_fl", {**params, "x": x, "t": t},
                lambda st, key=key, x=x, t=t: ut.inverse_fl(st[key], x, t),
                math.exp(-x * x / 2.0) * float(tn_exp(n, a, t))))
        x_grid = ut.Grid.uniform(-x_max, x_max, 61)
        spectrum = ut.ContinuousSpectrum(lambda_grid=lam, values=gauss_ft(lam.points) + 0j)
        group.append(Request(
            f"{key}.ift", "inverse_ft", {"lambda_points": LAMBDA_SIZES[T], "x_max": x_max},
            lambda st, spectrum=spectrum, x_grid=x_grid: ut.inverse_ft(spectrum, x_grid),
            np.exp(-x_grid.points**2 / 2.0), lambda r: r.values))
        groups.append(group)
    rng.shuffle(groups)
    return [req for group in groups for req in group]


def make_decks(seed: int) -> list:
    rng = random.Random(f"line-spectra:{seed}")
    return [make_deck(rng, i) for i in range(DECKS)]


def warm_up() -> None:
    """One small call of every request kind."""
    tau = _tau_grid(1.0)
    line = ut.laplace_line(_t_fn(2, 1.0), 0.5, tau, X_TRUNC)
    ut.bromwich_inverse_from_samples(line, 1.0)
    lam = ut.Grid.uniform(-LAMBDA_MAX, LAMBDA_MAX, 31)
    fl = ut.forward_fl(_xt_fn(2, 1.0), lam, 0.5, tau, (A_TRUNC, X_TRUNC))
    ut.inverse_fl(fl, 0.1, 1.0)
    spectrum = ut.ContinuousSpectrum(lambda_grid=lam, values=gauss_ft(lam.points) + 0j)
    ut.inverse_ft(spectrum, ut.Grid.uniform(-1.0, 1.0, 11))
