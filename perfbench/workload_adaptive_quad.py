"""adaptive-quad: transforms computed by adaptive quadrature (in process).

Each deck holds 15 requests: ``forward_ft`` of a gaussian, sech and
e^{-|x|} (a kink) on 121-481-point grids; ``complex_coefficients`` of
e^{cos pi x}, |x| and x for K in 8..60; ``gram_matrix`` for K = 3 and 8;
``forward_laplace`` at points of the acceptance Laplace table;
``bromwich_inverse`` of table transforms at T=400; and one
``residual_ratio``, whose reference is 1/(n sqrt 2).

The time goes to the Python bisection loop of ``numerics.integrate`` and to
tens of thousands of small integrand calls; there are no large kernel
matrices, so this workload isolates the adaptive engine.

Every deck holds the same requests up to the seed's choices, and none of
those choices changes much what a request costs: FT grids, series and Gram
sizes are fixed, and the seed draws the Gram interval, the forward Laplace
points, the inversion times, the residual's problem and lambda, and the
order.  Only requests the program answers within tolerance are drawn;
the slow-decay FT and the 1/s-type inversions, which it does not, are
exercised by ``defects.py``.
"""

from __future__ import annotations

import random

import numpy as np

import oracles
import unitransform as ut
from common import Request

LAMBDA_MAX = 6.0
# FT function -> (truncation A, grid points).  Sizes are fixed per function
# because the cost of a request depends on both.
FT_CASES = {"gaussian": (12.0, 481), "sech": (25.0, 241), "kink": (25.0, 121)}
# Series slots (function, K).  The function is fixed per slot because x
# costs half as much again as |x| or e^{cos pi x} at the same K.  Sorted by
# cost, the 15 requests of a deck put the K = 20 series of |x| in the
# middle and the sech FT at p90, each one cost class rather than the step
# between two.
SERIES_SLOTS = (("x", 8), ("abs(x)", 20), ("exp(cos(pi*x))", 32), ("x", 40),
                ("abs(x)", 60))
GRAM_K = (3, 8)
GRAM_L = (1.0, np.pi, 2.5)
LAPLACE_X = 60.0
LAPLACE_POINTS = 2
BROMWICH_T = 400.0
# Contour inversions of transforms that decay like 1/s^2 (the 1/s-type ones
# miss 1e-3 at T=400), at seeded times.
INVERSIONS = ("t", "sin(t)")
INVERSION_T = (0.1, 5.0)
RESIDUAL_N = 8
RESIDUAL_LAMBDA = (0.0, 1.0, 5.0)
DECKS = 15
# The machine-speed kernel each request kind's time follows (calibration.py):
# interpreted Python around small numpy calls.
CALIBRATION = {"*": "python"}


def _complex(f):
    return lambda x: f(x) + 0j


def make_deck(rng: random.Random, index: int, offsets: dict) -> list:
    reqs = []
    tag = f"d{index}"
    # Fourier transforms.
    for name, (A, size) in FT_CASES.items():
        f, F = oracles.FT_PAIRS[name]
        grid = ut.Grid.uniform(-LAMBDA_MAX, LAMBDA_MAX, size)
        reqs.append(Request(
            f"{tag}.ft.{name}", "forward_ft", {"f": name, "points": size, "A": A},
            lambda st, f=_complex(f), grid=grid, A=A: ut.forward_ft(st["wrap"](f), grid, A),
            F(grid.points), lambda r: r.values))
    # Fourier series coefficients.
    for j, (name, K) in enumerate(SERIES_SLOTS):
        f = oracles.SERIES[name][0]
        reqs.append(Request(
            f"{tag}.series{j}.{name}", "complex_coefficients", {"f": name, "K": K},
            lambda st, f=_complex(f), K=K: ut.complex_coefficients(st["wrap"](f), 1.0, K),
            oracles.series_coefficients(name, K),
            lambda r: np.array([r.c[k] for k in range(-r.K, r.K + 1)])))
    # Gram matrices.
    for j, K in enumerate(GRAM_K):
        L = rng.choice(GRAM_L)
        reqs.append(Request(
            f"{tag}.gram{j}", "gram_matrix", {"K": K, "L": L},
            lambda st, K=K, L=L: ut.gram_matrix(L, K), oracles.gram_exact(L, K)))
    # Forward Laplace points, rotating through the table.
    table = list(oracles.LAPLACE_TABLE.items())
    for j in range(LAPLACE_POINTS):
        name, (f, fhat, abscissa) = table[(index * LAPLACE_POINTS + j + offsets["laplace"]) % len(table)]
        s = abscissa + oracles.LAPLACE_OFFSETS[(index + j + offsets["s"]) % len(oracles.LAPLACE_OFFSETS)]
        reqs.append(Request(
            f"{tag}.lt{j}", "forward_laplace", {"f": name, "s": [s.real, s.imag]},
            lambda st, f=_complex(f), s=s: ut.forward_laplace(st["wrap"](f), s, LAPLACE_X),
            fhat(s), lambda r: r.value))
    for j, name in enumerate(INVERSIONS):
        f, fhat, abscissa = oracles.LAPLACE_TABLE[name]
        t = round(rng.uniform(*INVERSION_T), 4)
        reqs.append(Request(
            f"{tag}.ilt{j}.{name}", "bromwich_inverse", {"fhat": name, "t": t, "T": BROMWICH_T},
            lambda st, fhat=fhat, sigma=abscissa + 1.0, t=t: ut.bromwich_inverse(
                st["wrap"](fhat), sigma, BROMWICH_T, t),
            complex(f(np.asarray(t)))))
    # Continuum residual certificate.
    lam = rng.choice(RESIDUAL_LAMBDA)
    sigma = rng.choice((None, 0.5, 1.0))
    problem = (ut.EigenProblemSpec.whole_line() if sigma is None
               else ut.EigenProblemSpec.weighted_halfline(sigma))
    reqs.append(Request(
        f"{tag}.residual", "residual_ratio",
        {"problem": problem.kind, "sigma": sigma, "lam": lam, "n": RESIDUAL_N},
        lambda st, problem=problem, lam=lam: ut.residual_ratio(
            problem, lam, ut.WindowedTestSequence(lam=lam, n=RESIDUAL_N)),
        oracles.residual_ratio_exact(RESIDUAL_N)))
    rng.shuffle(reqs)
    return reqs


def make_decks(seed: int) -> list:
    rng = random.Random(f"adaptive-quad:{seed}")
    offsets = {key: rng.randrange(60) for key in ("laplace", "s")}
    return [make_deck(rng, i, offsets) for i in range(DECKS)]


def warm_up() -> None:
    """One small call of every request kind."""
    grid = ut.Grid.uniform(-1.0, 1.0, 5)
    ut.forward_ft(_complex(oracles.FT_PAIRS["gaussian"][0]), grid, 12.0)
    ut.complex_coefficients(_complex(oracles.SERIES["x"][0]), 1.0, 2)
    ut.gram_matrix(1.0, 1)
    f, fhat, _ = oracles.LAPLACE_TABLE["t"]
    ut.forward_laplace(_complex(f), 1.0, LAPLACE_X)
    ut.bromwich_inverse(fhat, 1.0, BROMWICH_T, 1.0)
    ut.residual_ratio(ut.EigenProblemSpec.whole_line(), 0.0, ut.WindowedTestSequence(lam=0.0, n=2))
