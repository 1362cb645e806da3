"""The program's known defects, exercised once per run apart from the timed loop.

The timed mixes hold only requests the program answers within tolerance, so
that a request that fails there is a regression.  The defects the program
is known to have at this commit (``known_defects`` in ``config.json``) are
run here instead, once per run and untimed, and their outcome goes to the
``detail`` line: ``open`` is true while the program still misses the
reference, refuses, or raises.  A change that fixes one shows as
``open: false``; nothing here makes a run incorrect.
"""

from __future__ import annotations

import oracles
import unitransform as ut
from common import Request, execute


def _line(n: int, a: float, sigma: float, T: float):
    tau = ut.Grid.uniform(-T, T, int(round(2 * T / 0.05)) + 1)
    return ut.laplace_line(lambda x: oracles.tn_exp(n, a, x) + 0j, sigma, tau, 40.0)


def _library_probes(workload: str) -> list[tuple[str, Request]]:
    if workload == "line-spectra":
        tau = ut.Grid.uniform(-1.0, 1.0, 41)
        return [
            ("fixed_rule_underresolved", Request(
                "laplace_line.exp(-50t).T1", "laplace_line", {"a": 50.0, "T": 1.0, "sigma": 0.0},
                lambda st: ut.laplace_line(lambda x: oracles.tn_exp(0, 50.0, x) + 0j, 0.0, tau, 40.0),
                oracles.laplace_tn_exp(0, 50.0, 1j * tau.points), lambda r: r.values)),
            ("contour_tail", Request(
                "bromwich_inverse_from_samples.exp(-t).T25", "bromwich_inverse_from_samples",
                {"n": 0, "a": 1.0, "sigma": 0.5, "T": 25.0, "t": 1.0},
                lambda st: ut.bromwich_inverse_from_samples(_line(0, 1.0, 0.5, 25.0), 1.0),
                float(oracles.tn_exp(0, 1.0, 1.0)))),
        ]
    if workload == "adaptive-quad":
        f, F = oracles.FT_PAIRS["slow-decay"]
        grid = ut.Grid.uniform(-6.0, 6.0, 121)
        _, fhat, _ = oracles.LAPLACE_TABLE["1"]
        return [
            ("ft_decay_unchecked", Request(
                "forward_ft.slow-decay.A12", "forward_ft", {"f": "slow-decay", "A": 12.0},
                lambda st: ut.forward_ft(lambda x: f(x) + 0j, grid, 12.0),
                F(grid.points), lambda r: r.values)),
            ("contour_tail", Request(
                "bromwich_inverse.1/s.T400", "bromwich_inverse", {"fhat": "1", "T": 400.0, "t": 1.0},
                lambda st: ut.bromwich_inverse(fhat, 1.0, 400.0, 1.0), 1.0 + 0j)),
        ]
    return []


# Each CLI probe: a forward command that writes a spectrum, then the read
# that refuses it.  t e^{-t} and e^{-t} leave 1/s^2- and 1/s-type spectra
# whose ends are far above 1e-6 of their peak.
_CLI_PROBES = [
    ("iflt.t*exp(-t)", [
        ["flt", "--expr", "exp(-x^2/2)*t*exp(-t)", "--sigma", "0.25", "--A", "12", "--X", "40",
         "--lambda-min", "-1", "--lambda-max", "1", "--lambda-step", "0.5",
         "--tau-min", "-50", "--tau-max", "50", "--tau-step", "0.05", "--output", "probe-fl.json"],
        ["iflt", "--input", "probe-fl.json", "--x", "0.5", "--t", "1"]]),
    ("ilt.exp(-t)", [
        ["lt", "--expr", "exp(-x)", "--sigma", "0.5", "--tau-min", "-25", "--tau-max", "25",
         "--tau-step", "0.05", "--X", "40", "--output", "probe-line.json"],
        ["ilt", "--input", "probe-line.json", "--t", "1"]]),
]


def run(workload_name: str, workload) -> list[dict]:
    """Run the known-defect probes of one workload and describe each outcome."""
    out = []
    state = {"wrap": lambda f: f}
    for tag, req in _library_probes(workload_name):
        o = execute(req, state)
        out.append({"defect": tag, "request": req.rid, "status": o.status, "error": o.error,
                    "note": o.note, "open": not o.ok})
    if workload_name == "cli-files":
        from workload_cli_files import _error_category

        for rid, steps in _CLI_PROBES:
            for argv in steps:
                proc, _ = workload._spawn(argv, workload.tmp)
            out.append({"defect": "cli_refuses_truncated_contour", "request": rid,
                        "exit": proc.returncode, "category": _error_category(proc.stderr),
                        "open": proc.returncode != 0})
    return out


def summary(records: list[dict]) -> dict:
    """Open defects by tag, for the detail line."""
    tags = sorted({r["defect"] for r in records})
    return {tag: sum(r["open"] for r in records if r["defect"] == tag) for tag in tags}
