"""Acceptance-scale reference cases, timed once in traced runs and never gated.

Each case of the ROADMAP baseline table runs once, untraced, next to its
single-run ROADMAP figure and, where a closed form exists, its accuracy.
The two 26-second cases go to different workloads so that every traced run
ends well within its time limit:

* line-spectra: 121 x 16001 ``forward_fl``;
* adaptive-quad: the 481-point FT (adaptive and fixed ``gauss-legendre``),
  K=256 series and K=32 Gram matrix;
* cli-files: the 16001-point ``laplace_line`` (``lt --sigma`` runs it), the
  JSON write of a 121 x 2001 spectrum and CLI ``series`` from start to exit.

A case that would start after ``deadline`` (a ``perf_counter`` value) is
recorded as skipped instead.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

import oracles
from common import CONFIG, scaled_error


def _timed(fn):
    start = perf_counter()
    result = fn()
    return result, perf_counter() - start


def _separable(x, t):
    return np.exp(-np.asarray(x, float) ** 2 / 2.0) * np.exp(-np.asarray(t, float)) + 0j


def _fl_case(ut, lam_points: int, tau_points: int, T: float):
    lam = ut.Grid.uniform(-12.0, 12.0, lam_points)
    tau = ut.Grid.uniform(-T, T, tau_points)
    spectrum, seconds = _timed(lambda: ut.forward_fl(_separable, lam, 0.0, tau, (12.0, 40.0)))
    expected = np.outer(oracles.gauss_ft(lam.points), oracles.laplace_tn_exp(0, 1.0, 1j * tau.points))
    return spectrum, seconds, scaled_error(spectrum.values, expected, "normwise")


def _forward_fl(ut, root):
    _, seconds, err = _fl_case(ut, 121, 16001, 400.0)
    return seconds, err, {}


def _laplace_line(ut, root):
    tau = ut.Grid.uniform(-400.0, 400.0, 16001)
    line, seconds = _timed(lambda: ut.laplace_line(
        lambda x: np.exp(-np.asarray(x, float)) + 0j, 0.0, tau, 40.0))
    return seconds, scaled_error(
        line.values, oracles.laplace_tn_exp(0, 1.0, 1j * tau.points), "normwise"), {}


def _forward_ft(spec_kwargs):
    def case(ut, root):
        f, F = oracles.FT_PAIRS["gaussian"]
        grid = ut.Grid.uniform(-12.0, 12.0, 481)
        spec = ut.QuadratureSpec(**spec_kwargs) if spec_kwargs else None
        spectrum, seconds = _timed(lambda: ut.forward_ft(lambda x: f(x) + 0j, grid, 12.0, spec))
        return seconds, scaled_error(spectrum.values, F(grid.points), "normwise"), {}

    return case


def _series(ut, root):
    g = oracles.SERIES["exp(cos(pi*x))"][0]
    coeffs, seconds = _timed(lambda: ut.complex_coefficients(lambda x: g(x) + 0j, 1.0, 256))
    got = np.array([coeffs.c[k] for k in range(-256, 257)])
    return seconds, scaled_error(
        got, oracles.series_coefficients("exp(cos(pi*x))", 256), "normwise"), {}


def _gram(ut, root):
    gram, seconds = _timed(lambda: ut.gram_matrix(1.0, 32))
    return seconds, scaled_error(gram, oracles.gram_exact(1.0, 32), "normwise"), {}


def _json_write(ut, root):
    from unitransform import io_formats

    spectrum, _, _ = _fl_case(ut, 121, 2001, 50.0)
    data, seconds = _timed(lambda: io_formats.to_json_bytes(
        io_formats.spectrum_payload(spectrum, {"request": {}})))
    return seconds, None, {"bytes": len(data)}


def _cli_series(ut, root):
    argv = ["series", "--expr", "x", "--L", "1", "--K", "3"]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    proc, seconds = _timed(lambda: subprocess.run(
        [sys.executable, "-m", "unitransform", *argv], cwd=root, capture_output=True, timeout=120,
        env=env))
    doc = json.loads(proc.stdout) if proc.returncode == 0 else None
    err = None if doc is None else scaled_error(
        [complex(re, im) for _, re, im in doc["c"]], oracles.series_coefficients("x", 3), "normwise")
    return seconds, err, {"exit": proc.returncode}


PROBES = {
    "line-spectra": {"forward_fl_121x16001": _forward_fl},
    "adaptive-quad": {
        "forward_ft_481_adaptive": _forward_ft(None),
        "forward_ft_481_gauss_legendre": _forward_ft({"method": "gauss-legendre"}),
        "complex_coefficients_K256": _series,
        "gram_matrix_K32": _gram,
    },
    "cli-files": {
        "laplace_line_16001": _laplace_line,
        "json_write_fl_121x2001": _json_write,
        "cli_series_start_to_exit": _cli_series,
    },
}


def run(workload: str, root: Path, deadline: float) -> list[dict]:
    import unitransform as ut

    baseline = CONFIG["roadmap_baseline_s"]
    out = []
    for case, probe in PROBES[workload].items():
        entry = {"case": case, "roadmap_s": baseline[case]}
        if perf_counter() > deadline:
            entry["skipped"] = "time budget of the traced run"
        else:
            seconds, err, extra = probe(ut, root)
            entry.update(seconds=round(seconds, 4), max_rel_error=err, **extra)
        out.append(entry)
    return out
