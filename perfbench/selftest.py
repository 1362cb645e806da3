"""Self-tests of the benchmark.

    python3 perfbench/selftest.py            # or: python -m pytest perfbench/selftest.py

They check that a seed fixes the request list, that every oracle agrees
with the package on an easy case of its family, that metric names and
units follow the rules of BENCHMARK.json, and that a run prints exactly
the metric set BENCHMARK.json declares.
"""

from __future__ import annotations

import json
import math
import re
import subprocess
import sys
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import calibration  # noqa: E402
import common  # noqa: E402
import defects  # noqa: E402
import oracles  # noqa: E402
import tracing  # noqa: E402
import unitransform as ut  # noqa: E402
import workload_adaptive_quad  # noqa: E402
import workload_cli_files  # noqa: E402
import workload_line_spectra  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _library_signature(module, seed):
    return [[(r.rid, r.kind, json.dumps(r.params, sort_keys=True)) for r in deck]
            for deck in module.make_decks(seed)]


def test_same_seed_same_requests():
    for module in (workload_line_spectra, workload_adaptive_quad):
        assert _library_signature(module, 5) == _library_signature(module, 5)
        assert _library_signature(module, 5) != _library_signature(module, 6)
    cli = lambda seed: [(s.rid, s.argv) for s in workload_cli_files.make_deck(seed)]  # noqa: E731
    assert cli(5) == cli(5)
    assert cli(5) != cli(6)


def test_same_seed_same_references():
    a = workload_line_spectra.make_decks(3)[0]
    b = workload_line_spectra.make_decks(3)[0]
    value = lambda r: r.expected() if callable(r.expected) else r.expected  # noqa: E731
    for ra, rb in zip(a, b):
        assert np.array_equal(np.asarray(value(ra)), np.asarray(value(rb)))


def _close(got, expected, tol):
    err = common.scaled_error(got, expected, "normwise")
    assert err <= tol, f"error {err:.3e} > {tol:.1e}"


def test_oracle_fourier_pairs():
    grid = ut.Grid.uniform(-3.0, 3.0, 13)
    for name, (f, F) in oracles.FT_PAIRS.items():
        # 1/(1+x^2) decays slowly: only a long interval gets near its transform.
        A, tol = (400.0, 1e-2) if name == "slow-decay" else (30.0, 1e-8)
        spec = ut.forward_ft(lambda x, f=f: f(x) + 0j, grid, A)
        _close(spec.values, F(grid.points), tol)


def test_oracle_laplace_pair_and_inversion():
    for n, a in ((0, 1.0), (2, 5.0), (3, 0.5)):
        for s in (0.5, 1.0 + 2.0j):
            got = ut.forward_laplace(lambda x: oracles.tn_exp(n, a, x) + 0j, s, 120.0).value
            _close(got, oracles.laplace_tn_exp(n, a, s), 1e-8)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        got = ut.bromwich_inverse(lambda s: oracles.laplace_tn_exp(2, 1.0, s), 0.5, 400.0, 1.0)
    assert abs(got - oracles.tn_exp(2, 1.0, 1.0)) < 1e-3


def test_oracle_laplace_table():
    for name, (f, fhat, abscissa) in oracles.LAPLACE_TABLE.items():
        s = abscissa + 1.0
        got = ut.forward_laplace(lambda x, f=f: f(x) + 0j, s, 60.0).value
        _close(got, fhat(s), 1e-8)


def test_oracle_series_and_real_bridge():
    for name, (f, _) in oracles.SERIES.items():
        coeffs = ut.complex_coefficients(lambda x, f=f: f(x) + 0j, 1.0, 4)
        got = np.array([coeffs.c[k] for k in range(-4, 5)])
        expected = oracles.series_coefficients(name, 4)
        _close(got, expected, 1e-8)
        real = ut.real_coefficients(f, 1.0, 4)
        a_ref, b_ref = oracles.real_from_complex(expected)
        _close(np.array([real.a[k] for k in range(5)] + [real.b[k] for k in range(1, 5)]),
               np.concatenate([a_ref, b_ref]), 1e-8)


def test_oracle_bessel_series():
    # I_0(1) and I_1(1) to 16 digits, and the recurrence I_{k-1} - I_{k+1} = (2k/x) I_k.
    assert abs(oracles.bessel_i(0) - 1.2660658777520084) < 1e-15
    assert abs(oracles.bessel_i(1) - 0.5651591039924851) < 1e-15
    for k in range(1, 20):
        lhs = oracles.bessel_i(k - 1) - oracles.bessel_i(k + 1)
        assert abs(lhs - 2 * k * oracles.bessel_i(k)) <= 1e-14 * abs(lhs) + 1e-300


def test_oracle_gram_and_residual():
    _close(ut.gram_matrix(2.5, 2), oracles.gram_exact(2.5, 2), 1e-10)
    for problem in (ut.EigenProblemSpec.whole_line(), ut.EigenProblemSpec.weighted_halfline(0.5)):
        got = ut.residual_ratio(problem, 1.0, ut.WindowedTestSequence(lam=1.0, n=4))
        _close(got, oracles.residual_ratio_exact(4), 1e-8)


def test_oracle_abscissa_fit():
    grid = ut.Grid.uniform(-2.0, 2.0, 81)
    f = np.exp(-((grid.points - 0.3) ** 2) / 2.4)
    est = ut.estimate_abscissa(ut.SampledFunction(grid, f + 0j))
    assert abs(est.sigma_hat - oracles.abscissa_fit_reference(grid.points, f)) < 1e-10


def test_oracle_stored_line_reads():
    tau = ut.Grid.uniform(-50.0, 50.0, 2001)
    line = ut.laplace_line(lambda x: oracles.tn_exp(3, 1.0, x) + 0j, 0.5, tau, 40.0)
    _close(line.values, oracles.laplace_tn_exp(3, 1.0, 0.5 + 1j * tau.points), 1e-8)
    value = ut.bromwich_inverse_from_samples(line, 2.0)
    assert abs(value - oracles.tn_exp(3, 1.0, 2.0)) < 1e-3
    lam = ut.Grid.uniform(-6.0, 6.0, 31)
    fl = ut.forward_fl(lambda x, t: np.exp(-np.asarray(x) ** 2 / 2) * oracles.tn_exp(3, 1.0, t) + 0j,
                       lam, 0.5, tau, (12.0, 40.0))
    _close(fl.values, np.outer(oracles.gauss_ft(lam.points), line.values), 1e-8)


def test_calibration_scale():
    cal = calibration.Calibration({"forward_fl": "build", "*": "read"})
    ref = {name: calibration.REFERENCE_S[name] for name in calibration.KERNELS}
    slow = {name: 2 * t for name, t in ref.items()}
    assert cal.scale("forward_fl", ref, ref) == 1.0
    assert abs(cal.scale("inverse_fl", slow, slow) - 0.5) < 1e-15
    sample = cal.sample()
    assert set(sample) == {"build", "read"} and all(t > 0 for t in sample.values())


def test_known_defects_still_show():
    # The timed mixes leave the known defects out; the probes must still hit them.
    for workload in ("line-spectra", "adaptive-quad"):
        records = defects.run(workload, None)
        assert records and all(r["open"] for r in records), records


def test_metric_names_and_units():
    for entry in BENCH["workloads"] + BENCH["end_to_end"] + BENCH["per_layer"]:
        assert NAME.match(entry["name"]), entry["name"]
    for entry in BENCH["end_to_end"] + BENCH["per_layer"]:
        assert re.match(r"^[A-Za-z0-9_/%.-]{1,16}$", entry["unit"]), entry["unit"]
    names = [e["name"] for e in BENCH["end_to_end"] + BENCH["per_layer"]]
    assert len(names) == len(set(names))
    for entry in BENCH["end_to_end"]:
        assert 0 < entry["bound"] <= 0.25
    setup = [e for e in BENCH["end_to_end"] if e["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(e["bound"] for e in BENCH["end_to_end"])}]
    assert all(len(w["why"]) <= 200 for w in BENCH["workloads"])
    assert set(common.TOLERANCES) >= {r.kind for d in workload_line_spectra.make_decks(1) for r in d}


def test_declared_metric_sets():
    declared = {e["name"]: e["unit"] for e in BENCH["end_to_end"]}
    outcome = common.Outcome("r", "inverse_ft", 0.01, "ok", 1e-9)
    metrics, _ = common.summarize([outcome] * 30, 10.0, (1.0, 1.0))
    assert {k: u for k, (_, u) in metrics.items()} == declared
    layered = tracing.layer_metrics(tracing.Tracer(), 1, [], 0.0)
    assert {k: u for k, (_, u) in layered.items()} == {e["name"]: e["unit"] for e in BENCH["per_layer"]}


def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    return result


def test_printed_metrics_match_declaration():
    result = _run("adaptive-quad", 0)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        e["name"]: e["unit"] for e in BENCH["end_to_end"]}
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    result = _run("cli-files", 1)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        e["name"]: e["unit"] for e in BENCH["per_layer"]}


def main() -> int:
    failures = 0
    for name, fn in sorted(globals().items()):
        if name.startswith("test_") and callable(fn):
            try:
                fn()
                print(f"PASS {name}")
            except Exception as exc:  # report every test, then fail the run
                failures += 1
                print(f"FAIL {name}: {type(exc).__name__}: {exc}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
