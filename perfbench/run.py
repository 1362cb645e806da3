"""Benchmark of the unitransform toolkit: one workload, one seed, one closed loop.

    python3 perfbench/run.py --workload line-spectra --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  One client issues one request at a time (a closed loop) from
this process, and numpy runs one BLAS thread, so nothing runs
concurrently.  The loop
runs whole decks (see ``common.py``) until the requests have taken
``--seconds`` seconds, checks every result against its reference, and
prints, as its last line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The line before it is a ``detail`` record
(tail percentile and sample counts, failure classes, digests, environment,
and the outcome of the known-defect probes of ``defects.py``, which run once
after the timed loop).

``--trace 0`` reports the end-to-end metrics, with every time taken at the
reference machine speed of ``calibration.py``; each request's measured
latency goes to ``.perfbench_out/requests-<workload>-seed<seed>.json``.
``--trace 1`` reports the per-layer metrics instead: it times the acceptance-scale reference cases
once, runs some decks untimed by the tracer, runs the same decks again with
the timing wrappers of ``tracing.py`` installed, and reports per-layer
figures per deck plus the tracer's own overhead.  Spans are written to
``.perfbench_out/``.

``python3 perfbench/run.py --record-env`` rewrites ``environment.json``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

START = perf_counter()
# One BLAS thread: on a machine of a few shared cores a second OpenBLAS
# thread makes a small matmul cost anything from one to six times its
# single-thread time, so the figures would measure the scheduler.  Set
# before numpy is imported; CLI children inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOADS = {
    "line-spectra": "workload_line_spectra",
    "adaptive-quad": "workload_adaptive_quad",
    "cli-files": "workload_cli_files",
}
# Fresh set-up processes timed per run; fewer where one set-up takes seconds.
SETUP_REPEATS = {"line-spectra": 5, "adaptive-quad": 5, "cli-files": 3}
# A traced run starts no reference case after this many seconds, so that it
# ends within the three minutes a run may take even on a slow machine.
PROBE_DEADLINE_S = 60.0
CHILD_TIMEOUT_S = 150


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set up, print 'ready' and exit (used to time set-up)")
    p.add_argument("--record-env", action="store_true",
                   help="write the machine record to environment.json and exit")
    args = p.parse_args(argv)
    if not args.record_env and args.workload is None:
        p.error("--workload is required")
    return args


def make_workload(name: str, seed: int):
    import common

    module = importlib.import_module(WORKLOADS[name])
    if hasattr(module, "Workload"):
        return module.Workload(seed, ROOT)
    return common.LibraryWorkload(module, seed)


def run_loop(workload, seconds: float, tracer=None, cycles: int | None = None, cal=None):
    """Run whole decks until the requests have taken ``seconds`` (or ``cycles`` decks).

    With ``cal``, each outcome carries its factor to the reference machine
    speed (see ``calibration.py``), and ``seconds`` counts request time at
    that speed, so that the number of decks, and with it the percentile the
    tail is read at, does not change with the machine's speed.
    """
    outcomes, sizes, timed = [], [], 0.0
    while (timed < seconds) if cycles is None else (len(sizes) < cycles):
        batch = workload.run_cycle(len(sizes), tracer, cal)
        timed += sum(o.latency_s * o.scale for o in batch)
        outcomes.extend(batch)
        sizes.append(len(batch))
    return outcomes, sizes, timed


def time_setups(args, cal) -> tuple[list[float], list[float]]:
    """Wall time from process start to 'ready' for fresh set-up processes.

    Returns the measured times and the same times at the reference speed.
    """
    times, scaled = [], []
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]
    for _ in range(SETUP_REPEATS[args.workload]):
        before = cal.sample()
        start = perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            try:
                line = proc.stdout.readline()
                ready = perf_counter()
                proc.communicate(timeout=CHILD_TIMEOUT_S)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up process failed (exit {proc.returncode})")
        times.append(ready - start)
        scaled.append(times[-1] * cal.scale("setup", before, cal.sample()))
    return times, scaled


def rss_peak_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def environment() -> dict:
    import numpy as np

    info = {
        "nproc": os.cpu_count(),
        "cpu_model": platform.processor() or "unknown",
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    info["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    caches = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")) if base.is_dir() else ():
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind != "Instruction":
                caches[f"L{level}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    info["caches_per_cpu0"] = caches
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    info["blas_threads"] = _blas_threads()
    return info


def _blas_threads():
    """Thread count reported by the OpenBLAS library numpy loaded, if it can be found."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def record_environment() -> None:
    import common

    env = environment()
    try:
        env["git_commit"] = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        env["git_commit"] = None
    env["seeds"] = common.CONFIG["seeds"]
    (HERE / "environment.json").write_text(json.dumps(env, indent=2) + "\n")
    print(json.dumps(env))


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "unitransform" / "__init__.py").is_file():
        print(f"error: no unitransform package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import common
    import defects
    import tracing

    if args.record_env:
        record_environment()
        return 0
    seed = common.CONFIG["seeds"]["default"] if args.seed is None else args.seed
    args.seed = seed
    workload = make_workload(args.workload, seed)
    workload.warm_up()
    if args.setup_only:
        print("ready", flush=True)
        workload.close()
        return 0
    try:
        if args.trace:
            result, detail = traced_run(args, workload, common, tracing, defects)
        else:
            result, detail = plain_run(args, workload, common, defects)
    finally:
        workload.close()
    detail["environment"] = environment()
    print("detail " + json.dumps(detail, default=str))
    print(json.dumps(result))
    return 0


def plain_run(args, workload, common, defects):
    from calibration import Calibration

    cal = Calibration(workload.calibration)
    outcomes, sizes, _ = run_loop(workload, args.seconds, cal=cal)
    rss = rss_peak_mb(children=getattr(workload, "children", False))
    known = defects.run(args.workload, workload)
    setups, scaled_setups = time_setups(args, cal)
    setup = (statistics.median(scaled_setups), statistics.median(setups))
    metrics, detail = common.summarize(outcomes, rss, setup, sizes)
    detail.update(cycles=len(sizes), setup_runs_s=[round(s, 4) for s in setups],
                  calibration=cal.report(),
                  workload=args.workload, seed=args.seed,
                  known_defects_open=defects.summary(known), known_defects=known)
    detail.update(getattr(workload, "report", lambda: {})())
    OUT.mkdir(exist_ok=True)
    path = OUT / f"requests-{args.workload}-seed{args.seed}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"deck_sizes": sizes, "setup_s": setups,
                   "requests": [[o.rid, o.kind, o.latency_s, o.extra.get("kernel_s")]
                                for o in outcomes]}, fh)
    detail["requests_file"] = str(path.relative_to(ROOT))
    return _result(outcomes, metrics, workload, detail), detail


def traced_run(args, workload, common, tracing, defects):
    import probe

    probes = probe.run(args.workload, ROOT, START + PROBE_DEADLINE_S)
    half = args.seconds / 2.0
    plain, sizes, plain_s = run_loop(workload, half)
    cycles = len(sizes)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced, _, traced_s = run_loop(workload, half, tracer=tracer, cycles=cycles)
    finally:
        tracer.uninstall()
    known = defects.run(args.workload, workload)
    metrics = tracing.layer_metrics(tracer, cycles, traced, traced_s / plain_s - 1.0)
    outcomes = plain + traced
    _, detail = common.summarize(outcomes, rss_peak_mb(False), None)
    detail.update(cycles=cycles, probes=probes, workload=args.workload, seed=args.seed,
                  untraced_s=round(plain_s, 4), traced_s=round(traced_s, 4),
                  known_defects_open=defects.summary(known), known_defects=known)
    detail.update(getattr(workload, "report", lambda: {})())
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"detail": detail, **tracer.state()}, fh, default=str)
    detail["spans_file"] = str(path.relative_to(ROOT))
    return _result(outcomes, metrics, workload, detail), detail


def _result(outcomes, metrics, workload, detail) -> dict:
    failed = sum(not o.ok for o in outcomes)
    return {
        "correct": failed == 0 and getattr(workload, "consistent", True),
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


if __name__ == "__main__":
    sys.exit(main())
