"""Command-line surface tying the transform modules together.

One request per invocation.  Exit status 0 on success, 1 on validation
errors, 2 on numerical errors (divergence, aliasing, and truncation
warnings are escalated to failures).  Each failure prints a single
machine-parsable line ``error: <category>: <message>`` on stderr; every
other warning prints ``warning: <Category>: <message>``.

Outputs are deterministic byte-for-byte: fixed field order, floats with
17 significant digits, no timestamps.  Every output embeds the request
that produced it under ``meta.request``.

Each command's flags are declared once, in ``_COMMANDS``, which the
parser, the source check and the echo all read.  Echo rule: every flag a
command reads is echoed in ``meta.request`` when given (except --output
and --format, which only choose where and how the bytes are written),
and no flag is accepted that is not read; a flag the request's mode does
not read (``lt --s`` with a --sigma/--tau-* line, ``estimate-abscissa
--input`` with --x-*, --quad-tol for the fixed Gauss rule of ``lt
--sigma`` and ``flt``) is a validation error.  Every other command that
integrates runs the adaptive engine on --quad-order and --quad-tol.

Numeric flags accept plain decimals and pi multiples ("pi", "0.5pi",
"-2pi").
"""

from __future__ import annotations

import argparse
import math
import sys
import warnings
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from . import expressions
from . import io_formats as io
from .eigenproblems import EigenProblemSpec, WindowedTestSequence, residual_ratio
from .errors import (
    AliasingError,
    ContractViolationError,
    EvaluationError,
    InsufficientDataError,
    ParseError,
    QuadratureError,
    TruncationWarning,
    UniTransformError,
)
from .fourier_laplace import FourierLaplaceSpectrum, forward_fl, inverse_fl
from .fourier_series import complex_coefficients, gram_matrix, real_coefficients
from .fourier_transform import ContinuousSpectrum, forward_ft, inverse_ft
from .laplace import (
    LaplaceSpectrum,
    bromwich_inverse_from_samples,
    estimate_abscissa,
    forward_laplace,
    laplace_line,
)
from .numerics import DEFAULT_TOLERANCE, Grid, QuadratureSpec, SampledFunction, _scalar

GRAM_OFFDIAG_TOL = 1e-10
RESIDUAL_DECAY_RANGE = (0.4, 0.6)
RESIDUAL_SPREAD_TOL = 1e-10
# Points per axis of a --<axis>-min/-max/-step grid.
MAX_GRID_POINTS = 1_000_000


class UsageError(UniTransformError):
    """Request cannot be validated."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; route through UsageError
    # instead so validation failures uniformly exit 1.
    def error(self, message):
        raise UsageError(message)


def parse_pi_float(text: str) -> float:
    """Decimal or pi-multiple literal: "2", "-0.25", "pi", "0.5pi"."""
    t = text.strip().lower()
    try:
        if t.endswith("pi"):
            head = t[:-2]
            if head in ("", "+"):
                return math.pi
            if head == "-":
                return -math.pi
            return float(head) * math.pi
        return float(t)
    except ValueError:
        raise UsageError(f"not a number: {text!r}") from None


def parse_complex(text: str) -> complex:
    """Complex literal with a trailing i: "2+0i", "1.5-2i", "3i", "-i", "3"."""
    t = text.strip().lower()
    try:
        return complex(t[:-1] + "j" if t.endswith("i") else t)
    except ValueError:
        raise UsageError(f"not a complex number: {text!r}") from None


def _grid_from_flags(name: str, lo, hi, step) -> Grid:
    missing = [
        flag
        for flag, v in ((f"--{name}-min", lo), (f"--{name}-max", hi), (f"--{name}-step", step))
        if v is None
    ]
    if missing:
        raise UsageError(f"missing {', '.join(missing)}")
    lo, hi = _scalar(lo, f"--{name}-min"), _scalar(hi, f"--{name}-max")
    step = _scalar(step, f"--{name}-step", "positive")
    if not hi > lo:
        raise UsageError(f"--{name}-max must exceed --{name}-min")
    # round(span) + 1 points; an overflow to inf fails the bound too.
    span = (hi - lo) / step
    if not span < MAX_GRID_POINTS - 0.5:
        raise UsageError(f"--{name}-step {step!r} gives more than {MAX_GRID_POINTS} points "
                         f"on [{lo!r}, {hi!r}]")
    return Grid.uniform(lo, hi, int(round(span)) + 1)


def _covered(points: np.ndarray, at, axis: str) -> np.ndarray:
    """``at`` as a float array, refused if it strays over 1e-12 outside the grid ``points``."""
    at = np.asarray(at, dtype=float)
    lo, hi = float(points[0]), float(points[-1])
    if at.min() < lo - 1e-12 or at.max() > hi + 1e-12:
        raise ContractViolationError(
            f"input samples cover {axis} in [{lo:g}, {hi:g}] but evaluation needs "
            f"{axis} in [{at.min():g}, {at.max():g}]"
        )
    return at


def _bracket(points: np.ndarray, at, axis: str):
    """The (index, weight) pairs of the grid points either side of each covered value of ``at``.

    The weights are np.interp's linear ones; on a one-point grid both sides
    are point 0 and the far side weighs 0, so the value is constant along ``axis``.
    """
    u = np.interp(_covered(points, at, axis), points, np.arange(points.size, dtype=float))
    i = np.minimum(u.astype(int), max(points.size - 2, 0))
    return (i, 1.0 - (u - i)), (np.minimum(i + 1, points.size - 1), u - i)


def _interp_function(fn: SampledFunction) -> Callable:
    x = fn.grid.points
    return lambda xs: np.interp(_covered(x, xs, "x"), x, fn.values)


def _interp_function2d(fn) -> Callable:
    def f(xs, ts):
        x_sides = _bracket(fn.x_grid.points, xs, "x")
        t_sides = _bracket(fn.t_grid.points, ts, "t")
        return sum(fn.values[ix, it] * wx * wt for it, wt in t_sides for ix, wx in x_sides)

    return f


def _function_of_x(args) -> Callable:
    """The integrand of the request; an --expr tree is kept on ``args`` for ``_echo``."""
    if args.expr is not None:
        ast = args.expr_ast = expressions.parse(args.expr)
        if "t" in expressions.variables(ast):
            raise UsageError("this command takes a function of x only; expression uses t")
        return lambda xs: expressions.evaluate_array(ast, xs)
    return _interp_function(io.load_function(args.input))


def _function_of_xt(args) -> Callable:
    if args.expr is not None:
        ast = args.expr_ast = expressions.parse(args.expr)
        return lambda xs, ts: expressions.evaluate_array(ast, xs, ts)
    return _interp_function2d(io.load_function2d(args.input))


def _require_one_source(args) -> None:
    # A command with a single source flag has argparse require it.
    if len(_COMMANDS[args.command].source) == 2 and (args.expr is None) == (args.input is None):
        raise UsageError("exactly one of --expr and --input is required")


def _given(*values) -> bool:
    return any(v is not None for v in values)


def _quad_spec(args, fixed_rule: bool = False) -> QuadratureSpec:
    """The quadrature in use: the adaptive engine on --quad-order and --quad-tol, or for a
    fixed Gauss rule (``lt --sigma``, ``flt``) --quad-order alone."""
    if args.quad_tol is None:
        return QuadratureSpec(order=args.quad_order)
    if fixed_rule:
        raise UsageError(f"{args.command} uses a fixed Gauss rule; give only --quad-order")
    return QuadratureSpec(order=args.quad_order, tolerance=args.quad_tol)


def _echo(args, spec: QuadratureSpec | None = None, fixed_rule: bool = False) -> dict:
    """``meta.request``: the source, every own flag given, and the handler's quadrature ``spec``."""
    request: dict[str, Any] = {"command": args.command}
    expr = getattr(args, "expr", None)
    if expr is not None:
        request["expr"] = expr
        request["expr_canonical"] = expressions.canonical(args.expr_ast)
    if getattr(args, "input", None) is not None:
        request["input"] = args.input
    for name in _COMMANDS[args.command].flags:
        value = getattr(args, name.replace("-", "_"))
        if value is None:
            continue
        if isinstance(value, complex):
            value = [value.real, value.imag]
        request[name] = value
    if fixed_rule:
        request["quad_order"] = spec.order
    elif spec is not None:
        request.update(quad_method=spec.method, quad_order=spec.order, quad_tol=spec.tolerance)
    return {"request": request}


# ----------------------------- command handlers -----------------------------


def _cmd_series(args) -> dict:
    f, spec = _function_of_x(args), _quad_spec(args)
    coeffs = complex_coefficients(f, args.L, args.K, spec)
    return io.coefficients_payload(coeffs, _echo(args, spec))


def _cmd_real_series(args) -> dict:
    f, spec = _function_of_x(args), _quad_spec(args)
    coeffs = real_coefficients(f, args.L, args.K, spec)
    return io.real_coefficients_payload(coeffs, _echo(args, spec))


def _cmd_ft(args) -> dict:
    grid = _grid_from_flags("lambda", args.lambda_min, args.lambda_max, args.lambda_step)
    f, spec = _function_of_x(args), _quad_spec(args)
    spectrum = forward_ft(f, grid, args.A, spec)
    return io.spectrum_payload(spectrum, _echo(args, spec))


def _stored_spectrum(args, kind: type):
    """The spectrum in the --input file; it must be a ``kind`` spectrum."""
    spectrum = io.load_spectrum(args.input)
    if not isinstance(spectrum, kind):
        raise UsageError(f"{args.command} needs a spectrum with convention {kind.convention}")
    return spectrum


def _cmd_ift(args) -> dict:
    spectrum = _stored_spectrum(args, ContinuousSpectrum)
    x_grid = _grid_from_flags("x", args.x_min, args.x_max, args.x_step)
    return io.function_payload(inverse_ft(spectrum, x_grid), _echo(args))


def _cmd_lt(args) -> dict:
    f = _function_of_x(args)
    if args.s is not None:
        if _given(args.sigma, args.tau_min, args.tau_max, args.tau_step):
            raise UsageError("give either --s or a --sigma/--tau-* line, not both")
        spec = _quad_spec(args)
        result = forward_laplace(f, args.s, args.X, spec)
        meta = _echo(args, spec)
        meta["tail_estimate"] = result.tail_estimate
        return io.value_payload(result.value, meta)
    if args.sigma is None:
        raise UsageError("lt needs --s, or --sigma with --tau-min/--tau-max/--tau-step")
    tau_grid = _grid_from_flags("tau", args.tau_min, args.tau_max, args.tau_step)
    spec = _quad_spec(args, fixed_rule=True)
    spectrum = laplace_line(f, args.sigma, tau_grid, args.X, spec)
    return io.spectrum_payload(spectrum, _echo(args, spec, fixed_rule=True))


def _cmd_ilt(args) -> dict:
    spectrum = _stored_spectrum(args, LaplaceSpectrum)
    value = bromwich_inverse_from_samples(spectrum, args.t)
    meta = _echo(args)
    meta["imag_residual"] = abs(value.imag)
    return io.value_payload(value, meta)


def _cmd_flt(args) -> dict:
    if args.sigma is None:
        raise UsageError("flt needs --sigma")
    f = _function_of_xt(args)
    lam_grid = _grid_from_flags("lambda", args.lambda_min, args.lambda_max, args.lambda_step)
    tau_grid = _grid_from_flags("tau", args.tau_min, args.tau_max, args.tau_step)
    spec = _quad_spec(args, fixed_rule=True)
    spectrum = forward_fl(f, lam_grid, args.sigma, tau_grid, (args.A, args.X), spec)
    return io.spectrum_payload(spectrum, _echo(args, spec, fixed_rule=True))


def _cmd_iflt(args) -> dict:
    spectrum = _stored_spectrum(args, FourierLaplaceSpectrum)
    value = inverse_fl(spectrum, args.x, args.t)
    meta = _echo(args)
    meta["imag_residual"] = abs(value.imag)
    return io.value_payload(value, meta)


def _cmd_verify_orthogonality(args) -> dict:
    spec = _quad_spec(args)
    gram = gram_matrix(args.L, args.K, spec)
    diag = np.diagonal(gram)
    off = gram - np.diag(diag)
    diag_err = float(np.max(np.abs(diag - 2.0 * args.L)))
    off_max = float(np.max(np.abs(off))) if gram.size > 1 else 0.0
    passed = off_max <= GRAM_OFFDIAG_TOL and diag_err <= GRAM_OFFDIAG_TOL
    fields = {
        "L": args.L,
        "K": args.K,
        "expected_diagonal": 2.0 * args.L,
        "diagonal_max_error": diag_err,
        "offdiagonal_max": off_max,
        "tolerance": GRAM_OFFDIAG_TOL,
        "passed": passed,
    }
    return io.report_payload("orthogonality", fields, _echo(args, spec))


def _cmd_verify_residual(args) -> dict:
    lams = args.lam if args.lam else [0.0, 1.0, 5.0]
    ns = args.n if args.n else [4, 8, 16]
    problem = EigenProblemSpec.whole_line()
    spec = _quad_spec(args)
    sequences = {lam: [WindowedTestSequence(lam=lam, n=n) for n in ns] for lam in lams}
    if len(ns) < 2 or any(b != 2 * a for a, b in zip(ns, ns[1:])):
        raise UsageError(f"--n needs at least two widths, each twice the one before, got {ns}")
    ratios = {lam: [residual_ratio(problem, lam, seq, spec) for seq in sequences[lam]]
              for lam in lams}
    table = np.array([ratios[lam] for lam in lams])  # a row per --lam, a column per --n
    decay = (table[:, 1:] / table[:, :-1]).ravel()
    spread = float(np.max(np.ptp(table, axis=0)))
    lo, hi = RESIDUAL_DECAY_RANGE
    passed = all(lo <= d <= hi for d in decay) and spread <= RESIDUAL_SPREAD_TOL
    fields = {
        "lambdas": [float(v) for v in lams],
        "widths": [int(n) for n in ns],
        "ratios": table,
        "decay_factors": decay,
        "lambda_spread": spread,
        "decay_range": [lo, hi],
        "spread_tolerance": RESIDUAL_SPREAD_TOL,
        "passed": passed,
    }
    return io.report_payload("residual", fields, _echo(args, spec))


def _cmd_estimate_abscissa(args) -> dict:
    if args.input is not None:
        if _given(args.x_min, args.x_max, args.x_step):
            raise UsageError("estimate-abscissa --input uses the file's grid; drop --x-*")
        samples = io.load_function(args.input)
    else:
        grid = _grid_from_flags("x", args.x_min, args.x_max, args.x_step)
        samples = SampledFunction(grid, _function_of_x(args)(grid.points))
    estimate = estimate_abscissa(samples)
    fields = {
        "sigma_hat": estimate.sigma_hat,
        "M_hat": estimate.M_hat,
        "fit_residual": estimate.fit_residual,
    }
    return io.report_payload("abscissa", fields, _echo(args))


def _cmd_roundtrip(args) -> dict:
    f = _function_of_x(args)
    lam_grid = _grid_from_flags("lambda", args.lambda_min, args.lambda_max, args.lambda_step)
    x_grid = _grid_from_flags("x", args.x_min, args.x_max, args.x_step)
    spec = _quad_spec(args)
    spectrum = forward_ft(f, lam_grid, args.A, spec)
    recovered = inverse_ft(spectrum, x_grid)
    reference = np.asarray(f(x_grid.points), dtype=complex)
    sup_error = float(np.max(np.abs(recovered.values - reference)))
    fields = {
        "sup_error": sup_error,
        "x_grid": x_grid.points,
        "values": io.complex_pairs(recovered.values),
        "reference": io.complex_pairs(reference),
    }
    return io.report_payload("roundtrip", fields, _echo(args, spec))


# ------------------------------ command table ------------------------------


@dataclass(frozen=True)
class _Command:
    """A subcommand and every flag it accepts; each of them is read.

    ``flags`` are the command's own flags in ``meta.request`` order.
    ``source`` is how f arrives: ``("expr", "input")`` (exactly one),
    ``("expr",)`` or ``("input",)`` (required), or ``()``.  ``quad``
    adds --quad-order/--quad-tol, echoed on every request with
    ``quad_method`` "adaptive" (a fixed Gauss rule build takes and echoes
    --quad-order only);
    ``csv`` adds --format json|csv.  Every command takes --output.
    """

    handler: Callable[[argparse.Namespace], dict]
    help: str
    flags: tuple[str, ...] = ()
    source: tuple[str, ...] = ()
    quad: bool = False
    csv: bool = False


def _grid(axis: str) -> tuple[str, str, str]:
    return (f"{axis}-min", f"{axis}-max", f"{axis}-step")


_EXPR_OR_INPUT = ("expr", "input")
_COMMANDS = {
    "series": _Command(_cmd_series, "complex Fourier coefficients on (-L, L)",
                       ("L", "K"), _EXPR_OR_INPUT, quad=True, csv=True),
    "real-series": _Command(_cmd_real_series, "cosine/sine Fourier coefficients",
                            ("L", "K"), _EXPR_OR_INPUT, quad=True, csv=True),
    "ft": _Command(_cmd_ft, "forward Fourier transform on a frequency grid",
                   ("A", *_grid("lambda")), _EXPR_OR_INPUT, quad=True, csv=True),
    "ift": _Command(_cmd_ift, "inverse Fourier transform of a stored spectrum",
                    _grid("x"), ("input",), csv=True),
    "lt": _Command(_cmd_lt, "Laplace transform at a point s or along a line",
                   ("s", "sigma", "X", *_grid("tau")), _EXPR_OR_INPUT, quad=True, csv=True),
    "ilt": _Command(_cmd_ilt, "inverse Laplace transform of a stored line spectrum",
                    ("t",), ("input",), csv=True),
    "flt": _Command(_cmd_flt, "forward Fourier-Laplace transform of f(x, t)",
                    ("sigma", "A", "X", *_grid("lambda"), *_grid("tau")),
                    _EXPR_OR_INPUT, quad=True),
    "iflt": _Command(_cmd_iflt, "inverse Fourier-Laplace transform at (x, t)",
                     ("x", "t"), ("input",), csv=True),
    "verify-orthogonality": _Command(_cmd_verify_orthogonality, "Gram matrix report",
                                     ("L", "K"), quad=True),
    "verify-residual": _Command(_cmd_verify_residual, "continuum residual decay report",
                                ("lam", "n"), quad=True),
    "estimate-abscissa": _Command(_cmd_estimate_abscissa, "exponential growth-rate fit",
                                  _grid("x"), _EXPR_OR_INPUT),
    "roundtrip": _Command(_cmd_roundtrip, "forward+inverse Fourier transform report",
                          ("A", *_grid("lambda"), *_grid("x")), ("expr",), quad=True),
}

# argparse keywords of every flag; a command accepts only those its entry names.
_FLAGS: dict[str, dict] = {
    "expr": dict(help="expression in x (and t where supported)"),
    "input": dict(help="input file path"),
    "L": dict(type=parse_pi_float, required=True),
    "K": dict(type=int, required=True),
    "A": dict(type=parse_pi_float, required=True, help="x-integration truncation [-A, A]"),
    "X": dict(type=parse_pi_float, required=True, help="half-line truncation point"),
    "s": dict(type=parse_complex, help="single evaluation point, e.g. 2+0i"),
    "sigma": dict(type=parse_pi_float, help="abscissa of the vertical line"),
    "t": dict(type=parse_pi_float, required=True),
    "x": dict(type=parse_pi_float, required=True),
    "lam": dict(type=parse_pi_float, action="append",
                help="eigenvalue to test (repeatable; default 0 1 5)"),
    "n": dict(type=int, action="append", help="window width index (repeatable; default 4 8 16)"),
    **{name: dict(type=parse_pi_float) for axis in ("lambda", "tau", "x") for name in _grid(axis)},
    "quad-order": dict(type=int, default=10),
    "quad-tol": dict(type=parse_pi_float, default=None,
                     help=f"absolute tolerance of the adaptive method "
                          f"(default {DEFAULT_TOLERANCE})"),
    "format": dict(choices=("json", "csv"), default="json"),
    "output": dict(help="output file path (stdout when omitted)"),
}
_QUAD = ("quad-order", "quad-tol")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="unitransform",
        description="Integral-transform toolkit: Fourier series, Fourier, Laplace "
        "and Fourier-Laplace transforms with verification subcommands.",
        epilog=(
            "Expression grammar: numbers, pi, e, variables x and t, unary "
            "functions exp/sin/cos/sqrt/abs/log with mandatory parentheses, "
            "operators + - * / ^ with ^ constant-exponent only and tighter "
            "than unary minus.  Numeric flags accept pi multiples like 0.5pi. "
            "CSV columns: function x,re,im; fourier spectrum lambda,re,im; "
            "laplace line tau,re,im; coefficients k,re,im (complex) or k,a,b (real)."
        ),
    )
    subs = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name, command in _COMMANDS.items():
        sub = subs.add_parser(name, help=command.help)
        quad = _QUAD if command.quad else ()
        csv = ("format",) if command.csv else ()
        for flag in (*command.source, *command.flags, *quad, *csv, "output"):
            kwargs = _FLAGS[flag]
            if flag in command.source and len(command.source) == 1:
                kwargs = dict(kwargs, required=True)
            sub.add_argument(f"--{flag}", **kwargs)
    return parser


def run(args: argparse.Namespace) -> int:
    """Execute a validated request; returns the process exit status."""
    command = _COMMANDS[args.command]
    try:
        _require_one_source(args)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            payload = command.handler(args)
        for w in caught:
            if not issubclass(w.category, TruncationWarning):
                _report("warning", w.category.__name__, w.message)
        truncated = [str(w.message) for w in caught if issubclass(w.category, TruncationWarning)]
        if truncated:
            raise QuadratureError(truncated[0])
        passed = bool(payload.get("passed", True))
        csv = command.csv and args.format == "csv"
        data = io.to_csv_bytes(payload) if csv else io.to_json_bytes(payload)
        if args.output:
            with open(args.output, "wb") as fh:
                fh.write(data)
        else:
            sys.stdout.buffer.write(data)
            sys.stdout.buffer.flush()
        if not passed:
            _report("error", "numerical", "verification check failed; see the report output")
            return 2
        return 0
    except (UsageError, ParseError, ContractViolationError, InsufficientDataError) as exc:
        _report("error", "validation", str(exc))
        return 1
    except (QuadratureError, AliasingError, EvaluationError) as exc:
        _report("error", "numerical", str(exc))
        return 2


def _report(kind: str, category: str, message) -> None:
    line = " ".join(str(message).split())
    print(f"{kind}: {category}: {line}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        _report("error", "validation", str(exc))
        return 1
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
