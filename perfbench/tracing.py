"""Timing wrappers installed around the package's public functions, from outside.

``Tracer.install()`` replaces every binding of each wrapped function in every
loaded ``unitransform`` module, found by object identity, so that
``from .numerics import integrate`` inside ``fourier_transform`` is wrapped
as well as ``unitransform.integrate``.  ``src/`` is not modified.

Each wrapped call records a span (name, start, end, parent span, request
id).  Integrand callables (the functions the benchmark passes in, and the
expression callables the CLI builds) are wrapped too, but only aggregated:
one integrand call per adaptive panel would make millions of spans.  A
layer's self time is its duration minus that of the wrapped calls inside it.
Spans stay in memory and are written once, by ``dump``.
"""

from __future__ import annotations

import json
import os
import sys
import warnings
from collections import defaultdict
from time import perf_counter

import numpy as np

# (module, function) -> layer name.  The io_formats payload functions and
# byte renderers together make up one "write" layer, the loaders one "load".
_IO_WRITE = ("to_json_bytes", "to_csv_bytes", "function_payload", "function2d_payload",
             "coefficients_payload", "real_coefficients_payload", "spectrum_payload",
             "value_payload", "report_payload")
_IO_LOAD = ("load_function", "load_function2d", "load_spectrum")
WRAPPED = {
    ("numerics", "integrate"): "numerics.integrate",
    ("numerics", "integrate_halfline"): "numerics.integrate_halfline",
    ("fourier_transform", "forward_ft"): "fourier_transform.forward_ft",
    ("fourier_transform", "inverse_ft"): "fourier_transform.inverse_ft",
    ("fourier_series", "complex_coefficients"): "fourier_series.complex_coefficients",
    ("fourier_series", "real_coefficients"): "fourier_series.real_coefficients",
    ("fourier_series", "gram_matrix"): "fourier_series.gram_matrix",
    ("laplace", "forward_laplace"): "laplace.forward_laplace",
    ("laplace", "laplace_line"): "laplace.laplace_line",
    ("laplace", "bromwich_inverse"): "laplace.bromwich_inverse",
    ("laplace", "bromwich_inverse_from_samples"): "laplace.bromwich_inverse_from_samples",
    ("fourier_laplace", "forward_fl"): "fourier_laplace.forward_fl",
    ("fourier_laplace", "inverse_fl"): "fourier_laplace.inverse_fl",
    ("eigenproblems", "residual_ratio"): "eigenproblems.residual_ratio",
    ("expressions", "parse"): "expressions.parse",
    ("expressions", "evaluate_array"): "expressions.evaluate_array",
    ("cli", "main"): "cli.main",
    **{("io_formats", name): "io_formats.write" for name in _IO_WRITE},
    **{("io_formats", name): "io_formats.load" for name in _IO_LOAD},
}
# Transforms whose output size is the denominator of integrand.points_per_value.
_TRANSFORMS = {
    "fourier_transform.forward_ft", "fourier_series.complex_coefficients",
    "fourier_series.real_coefficients", "fourier_series.gram_matrix",
    "laplace.forward_laplace", "laplace.laplace_line", "laplace.bromwich_inverse",
    "fourier_laplace.forward_fl", "eigenproblems.residual_ratio",
}
# Layers whose size is reported as terms: integrand points x output points.
_TERMS = {"laplace.laplace_line", "fourier_laplace.forward_fl"}
# Layers that emit TruncationWarning; they are counted and passed on.
_WARNS = {"laplace.bromwich_inverse", "laplace.bromwich_inverse_from_samples",
          "fourier_laplace.inverse_fl"}
# CLI factories whose returned callable is the integrand of the request.
_INTEGRAND_FACTORIES = ("_function_of_x", "_function_of_xt")


def output_size(result) -> int:
    """Number of values a transform returned."""
    for attr in ("values", "c"):
        vals = getattr(result, attr, None)
        if vals is not None:
            return int(np.size(vals)) if attr == "values" else len(vals)
    if hasattr(result, "a") and hasattr(result, "b"):
        return len(result.a) + len(result.b)
    if isinstance(result, np.ndarray):
        return int(result.size)
    return 1


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.rid: str | None = None
        self._stack: list[list] = []  # [span index or -1, child time, layer]
        self._installed: list = []

    # -- recording -------------------------------------------------------
    def _call(self, name, fn, args, kwargs):
        parent = self._stack[-1][0] if self._stack else -1
        nested_in_numerics = bool(self._stack) and self._stack[-1][2].startswith("numerics.")
        index = len(self.spans)
        self.spans.append(None)
        frame = [index, 0.0, name]
        points_before = self.counts["integrand.points"]
        self._stack.append(frame)
        start = perf_counter()
        caught = None
        try:
            if name in _WARNS:
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    result = fn(*args, **kwargs)
            else:
                result = fn(*args, **kwargs)
        except BaseException as exc:
            if name.startswith("numerics.") and not nested_in_numerics:
                if type(exc).__name__ in ("QuadratureError", "DivergenceError"):
                    self.counts["numerics.quadrature_failures"] += 1
            raise
        else:
            self._account(name, args, result, points_before)
            return result
        finally:
            end = perf_counter()
            self._stack.pop()
            duration = end - start
            self.self_s[name] += duration - frame[1]
            if self._stack:
                self._stack[-1][1] += duration
            self.counts[name + ".calls"] += 1
            self.spans[index] = (name, start, end, parent, self.rid)
            for w in caught or ():
                if w.category.__name__ == "TruncationWarning":
                    self.counts["laplace.truncation_warnings"] += 1
                warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)

    def _account(self, name, args, result, points_before):
        points = self.counts["integrand.points"] - points_before
        if name in _TRANSFORMS and points > 0:
            self.counts["integrand.values"] += output_size(result)
        if name in _TERMS:
            self.counts[name + ".terms"] += points * output_size(result)
        if name == "expressions.evaluate_array":
            self.counts[name + ".points"] += np.broadcast(*[a for a in args[1:] if a is not None]).size
        elif name == "io_formats.write" and isinstance(result, bytes):
            self.counts["io_formats.bytes_written"] += len(result)
        elif name == "io_formats.load":
            self.counts["io_formats.bytes_read"] += os.path.getsize(args[0])

    def wrap_integrand(self, f):
        """Aggregate calls, points and self time of a callable passed to the package."""
        def traced(*args):
            points = np.broadcast(*args).size
            frame = [-1, 0.0, "integrand"]
            self._stack.append(frame)
            start = perf_counter()
            try:
                return f(*args)
            finally:
                duration = perf_counter() - start
                self._stack.pop()
                self.self_s["integrand"] += duration - frame[1]
                if self._stack:
                    self._stack[-1][1] += duration
                self.counts["integrand.calls"] += 1
                self.counts["integrand.points"] += points

        return traced

    # -- installation ------------------------------------------------------
    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "unitransform" or n.startswith("unitransform."))]
        for (mod_name, fn_name), layer in WRAPPED.items():
            module = sys.modules.get("unitransform." + mod_name)
            if module is None:
                continue
            self._rebind(modules, getattr(module, fn_name), self._wrapper(layer, getattr(module, fn_name)))
        cli = sys.modules.get("unitransform.cli")
        if cli is not None:
            for fn_name in _INTEGRAND_FACTORIES:
                factory = getattr(cli, fn_name)
                self._rebind(modules, factory, self._integrand_factory(factory))

    def _wrapper(self, layer, fn):
        def wrapper(*args, **kwargs):
            return self._call(layer, fn, args, kwargs)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", layer)
        return wrapper

    def _integrand_factory(self, factory):
        def wrapper(*args, **kwargs):
            return self.wrap_integrand(factory(*args, **kwargs))

        return wrapper

    def _rebind(self, modules, original, replacement) -> None:
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._installed.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    # -- output ------------------------------------------------------------
    def state(self) -> dict:
        return {"self_s": dict(self.self_s), "counts": dict(self.counts), "spans": self.spans}

    def merge(self, state: dict) -> None:
        """Fold in the record of a child process (spans keep their own parents)."""
        offset = len(self.spans)
        for key, value in state["self_s"].items():
            self.self_s[key] += value
        for key, value in state["counts"].items():
            self.counts[key] += value
        for name, start, end, parent, rid in state["spans"]:
            self.spans.append((name, start, end, parent + offset if parent >= 0 else -1, rid))

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.state(), fh)


# Per-layer metrics of the traced run, with their units.  Times and counts
# are per deck, so that runs of different length compare.
PER_LAYER = [
    ("laplace.laplace_line.self_s", "s"),
    ("laplace.laplace_line.terms", "count"),
    ("fourier_laplace.forward_fl.self_s", "s"),
    ("fourier_laplace.forward_fl.terms", "count"),
    ("laplace.bromwich_inverse_from_samples.self_s", "s"),
    ("fourier_laplace.inverse_fl.self_s", "s"),
    ("fourier_transform.inverse_ft.self_s", "s"),
    ("laplace.truncation_warnings", "count"),
    ("numerics.integrate.calls", "count"),
    ("numerics.integrate.self_s", "s"),
    ("numerics.integrate_halfline.calls", "count"),
    ("numerics.quadrature_failures", "count"),
    ("integrand.calls", "count"),
    ("integrand.points", "count"),
    ("integrand.self_s", "s"),
    ("integrand.points_per_value", "ratio"),
    ("fourier_transform.forward_ft.self_s", "s"),
    ("fourier_series.complex_coefficients.self_s", "s"),
    ("fourier_series.real_coefficients.self_s", "s"),
    ("fourier_series.gram_matrix.self_s", "s"),
    ("laplace.forward_laplace.self_s", "s"),
    ("laplace.bromwich_inverse.self_s", "s"),
    ("eigenproblems.residual_ratio.self_s", "s"),
    ("expressions.parse.calls", "count"),
    ("expressions.parse.self_s", "s"),
    ("expressions.evaluate_array.calls", "count"),
    ("expressions.evaluate_array.points", "count"),
    ("expressions.evaluate_array.self_s", "s"),
    ("io_formats.write.self_s", "s"),
    ("io_formats.bytes_written", "B"),
    ("io_formats.load.self_s", "s"),
    ("io_formats.bytes_read", "B"),
    ("cli.proc_ms_p50", "ms"),
    ("cli.startup_ms_p50", "ms"),
    ("cli.main.self_s", "s"),
    ("cli.exit_validation", "count"),
    ("cli.exit_numerical", "count"),
    ("trace.overhead_frac", "ratio"),
]


def layer_metrics(tracer: Tracer, cycles: int, outcomes: list, overhead: float) -> dict:
    """The PER_LAYER figures of a traced run of ``cycles`` decks."""
    procs = [o.extra for o in outcomes if "proc_ms" in o.extra]
    values = {
        "integrand.points_per_value": (
            tracer.counts["integrand.points"] / tracer.counts["integrand.values"]
            if tracer.counts["integrand.values"] else 0.0),
        "cli.proc_ms_p50": float(np.median([p["proc_ms"] for p in procs])) if procs else 0.0,
        "cli.startup_ms_p50": (float(np.median([p["proc_ms"] - p["main_ms"] for p in procs]))
                               if procs else 0.0),
        "cli.exit_validation": sum(p["exit"] == 1 for p in procs) / cycles,
        "cli.exit_numerical": sum(p["exit"] == 2 for p in procs) / cycles,
        "trace.overhead_frac": overhead,
    }
    out = {}
    for name, unit in PER_LAYER:
        if name not in values:
            if name.endswith(".self_s"):
                layer = name[: -len(".self_s")]
                values[name] = tracer.self_s.get(layer, 0.0) / cycles
            else:
                values[name] = tracer.counts.get(name, 0.0) / cycles
        out[name] = (float(values[name]), unit)
    return out
