"""Interchange file formats.

All writers are deterministic: fixed key order, floats rendered with 17
significant digits (each float array in one formatting pass), no timestamps.
Running the same request twice produces byte-identical files.

Kinds::

    function      {"kind":"function","grid":[...],"values":[[re,im],...],"meta":{...}}
    function2d    {"kind":"function2d","x_grid":[...],"t_grid":[...],
                   "values":[[[re,im],...],...],"meta":{...}}
                  values[i][j] belongs to (x_grid[i], t_grid[j])
    coefficients  {"kind":"fourier-coefficients","L":..,"K":..,
                   "c":[[k,re,im],...],"meta":{...}}
                  real variant carries "a":[[k,a_k],...] and "b":[[k,b_k],...]
                  instead of "c"
    spectrum      {"kind":"spectrum","convention":"paper-fourier"|"laplace-line"
                   |"fourier-laplace", ...grids..., "values":...,"meta":{...}}
    value         {"kind":"value","value":[re,im],"meta":{...}}
    report        {"kind":"report","check":..., ...fields..., "meta":{...}}

A grid is stored as its points alone and read back as them; a
``"<grid key>_kind"`` entry of an older file is ignored.
Every file embeds the request that produced it under meta.request.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import re
from typing import Any

import numpy as np

from .errors import ContractViolationError
from .fourier_laplace import FourierLaplaceSpectrum
from .fourier_transform import ContinuousSpectrum
from .laplace import LaplaceSpectrum
from .numerics import Grid, SampledFunction, SampledFunction2D

# The header line of every to_csv_bytes rendering, such as "tau,re,im".
_CSV_HEADER = re.compile(r"[a-z]+(,[a-z]+)+\r?\n")
# Header and grid key of each CSV rendering with a grid column, by file kind or convention.
_CSV_GRIDS = {"function": ("x,re,im", "grid"),
              ContinuousSpectrum.convention: ("lambda,re,im", "lambda_grid"),
              LaplaceSpectrum.convention: ("tau,re,im", "tau_grid")}
# Spectrum classes by the convention tag of their files.
_SPECTRA = {cls.convention: cls
            for cls in (ContinuousSpectrum, LaplaceSpectrum, FourierLaplaceSpectrum)}


def format_float(v: float) -> str:
    """Render a float with 17 significant digits, the round-trip precision."""
    v = float(v) + 0.0  # normalize -0.0
    if not math.isfinite(v):
        raise ContractViolationError("cannot serialize a non-finite number")
    return format(v, ".17g")


def _finite_floats(a) -> tuple:
    """The entries of float array ``a`` in C order, -0.0 as 0.0; a NaN or inf is refused."""
    a = np.asarray(a, dtype=float) + 0.0
    if not np.isfinite(a).all():
        raise ContractViolationError("cannot serialize a non-finite number")
    return tuple(a.ravel().tolist())


def _json_array(a: np.ndarray) -> str:
    """Nested JSON lists of a float array in one formatting pass; ``"%.17g" % v`` is
    ``format(v, ".17g")``, so each entry reads as format_float renders it."""
    template = "%.17g"
    for n in reversed(a.shape):
        template = "[" + ",".join([template] * n) + "]"
    return template % _finite_floats(a)


def _csv_rows(table) -> str:
    """A newline, then the rows of a 2-D float table, in one formatting pass."""
    rows, cols = np.shape(table)
    return ("\n" + ",".join(["%.17g"] * cols)) * rows % _finite_floats(table)


def _render(obj: Any, out: list[str]) -> None:
    if isinstance(obj, np.ndarray) and obj.dtype.kind == "f":
        out.append(_json_array(obj))
    elif isinstance(obj, dict):
        out.append("{")
        for idx, (key, val) in enumerate(obj.items()):
            out.append(("," if idx else "") + json.dumps(key) + ":")
            _render(val, out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for idx, val in enumerate(obj):
            if idx:
                out.append(",")
            _render(val, out)
        out.append("]")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif obj is None:
        out.append("null")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(format_float(float(obj)))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    else:
        raise ContractViolationError(f"cannot serialize {type(obj).__name__}")


def to_json_bytes(payload: dict) -> bytes:
    out: list[str] = []
    _render(payload, out)
    out.append("\n")
    return "".join(out).encode("ascii")


def complex_pairs(values) -> np.ndarray:
    """[re, im] pairs of complex ``values`` along a new last axis, as one float array."""
    return np.stack([np.real(values), np.imag(values)], -1)


def function_payload(fn: SampledFunction, meta: dict) -> dict:
    return {
        "kind": "function",
        "grid": fn.grid.points,
        "values": complex_pairs(fn.values),
        "meta": meta,
    }


def function2d_payload(fn: SampledFunction2D, meta: dict) -> dict:
    return {
        "kind": "function2d",
        "x_grid": fn.x_grid.points,
        "t_grid": fn.t_grid.points,
        "values": complex_pairs(fn.values),
        "meta": meta,
    }


def coefficients_payload(coeffs, meta: dict) -> dict:
    return {
        "kind": "fourier-coefficients",
        "L": float(coeffs.L),
        "K": int(coeffs.K),
        "c": [[k, coeffs.c[k].real, coeffs.c[k].imag] for k in range(-coeffs.K, coeffs.K + 1)],
        "meta": meta,
    }


def real_coefficients_payload(coeffs, meta: dict) -> dict:
    return {
        "kind": "fourier-coefficients",
        "L": float(coeffs.L),
        "K": int(coeffs.K),
        "a": [[k, float(coeffs.a[k])] for k in range(0, coeffs.K + 1)],
        "b": [[k, float(coeffs.b[k])] for k in range(1, coeffs.K + 1)],
        "meta": meta,
    }


def spectrum_payload(spectrum, meta: dict) -> dict:
    """The spectrum's convention, then its fields in declaration order: grids, sigma, values."""
    if not isinstance(spectrum, tuple(_SPECTRA.values())):
        raise ContractViolationError(f"not a spectrum: {type(spectrum).__name__}")
    payload: dict = {"kind": "spectrum", "convention": spectrum.convention}
    for field in dataclasses.fields(spectrum):
        value = getattr(spectrum, field.name)
        if isinstance(value, Grid):
            payload[field.name] = value.points
        elif field.name == "values":
            payload["values"] = complex_pairs(value)
        else:
            payload[field.name] = float(value)
    payload["meta"] = meta
    return payload


def value_payload(value: complex, meta: dict) -> dict:
    return {"kind": "value", "value": complex_pairs(complex(value)), "meta": meta}


def report_payload(check: str, fields: dict, meta: dict) -> dict:
    payload: dict = {"kind": "report", "check": check}
    payload.update(fields)
    payload["meta"] = meta
    return payload


def _load(path: str, kind: str) -> dict:
    """The JSON document at ``path``, of the given kind; a CSV file (its header
    line, as :func:`to_csv_bytes` writes it) is refused as output-only."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        if _CSV_HEADER.match(text):
            raise ContractViolationError(
                f"cannot read {path}: CSV is an output-only format; "
                "write the file with --format json"
            )
        doc = json.loads(text)
    except (OSError, json.JSONDecodeError) as exc:
        raise ContractViolationError(f"cannot read {path}: {exc}") from exc
    if not isinstance(doc, dict) or "kind" not in doc:
        raise ContractViolationError(f"{path} is not a toolkit file (missing 'kind')")
    if doc["kind"] != kind:
        raise ContractViolationError(f"{path}: expected kind '{kind}', got {doc['kind']!r}")
    return doc


def _read(doc: dict, key: str, path: str, convert):
    """``convert(doc[key])``; a missing or malformed entry names the file and the key."""
    if key not in doc:
        raise ContractViolationError(f"{path}: missing '{key}'")
    try:
        return convert(doc[key])
    except (TypeError, ValueError) as exc:
        raise ContractViolationError(f"{path}: malformed '{key}' entries") from exc


def _number(value) -> float:
    """A JSON number as a float; a string or a boolean is a TypeError."""
    if type(value) not in (int, float):
        raise TypeError(f"not a number: {value!r}")
    return float(value)


def _floats(entries) -> np.ndarray:
    """JSON numbers nested in lists as a float array; a string or a boolean is a ValueError.

    numpy's dtype inference makes a string among numbers a string array, but a
    boolean 0 or 1, so only an array that holds 0 or 1 has the types of its
    entries walked: a file of ordinary samples costs one inference.
    """
    parts = np.array(entries)
    if parts.dtype.kind not in "iuf":
        raise ValueError("entries must be numbers")
    if ((parts == 0) | (parts == 1)).any():
        leaves = [entries]
        for _ in range(parts.ndim):
            leaves = itertools.chain.from_iterable(leaves)
        if not {int, float}.issuperset(map(type, leaves)):
            raise ValueError("entries must be numbers, not booleans")
    return parts.astype(float, copy=False)


def _complex(pairs) -> np.ndarray:
    """Nested [re, im] pairs as a complex array one level shallower."""
    parts = _floats(pairs)
    if parts.shape[-1:] != (2,):
        raise ValueError("values must be [re, im] pairs")
    return parts.view(complex)[..., 0]


def _entry(doc: dict, key: str, path: str):
    """``doc[key]`` as the field of that name: complex values, a float sigma, or a grid."""
    if key == "values":
        return _read(doc, key, path, _complex)
    if key == "sigma":
        return _read(doc, key, path, _number)
    return _read(doc, key, path, lambda v: Grid(_floats(v)))


def load_function(path: str) -> SampledFunction:
    doc = _load(path, "function")
    return SampledFunction(_entry(doc, "grid", path), _entry(doc, "values", path))


def load_function2d(path: str) -> SampledFunction2D:
    doc = _load(path, "function2d")
    return SampledFunction2D(*(_entry(doc, key, path) for key in ("x_grid", "t_grid", "values")))


def load_spectrum(path: str):
    """The spectrum class is looked up by the file's convention tag."""
    doc = _load(path, "spectrum")
    cls = _SPECTRA.get(doc.get("convention"))
    if cls is None:
        raise ContractViolationError(
            f"{path}: unknown spectrum convention {doc.get('convention')!r}"
        )
    return cls(**{field.name: _entry(doc, field.name, path) for field in dataclasses.fields(cls)})


def to_csv_bytes(payload: dict) -> bytes:
    """Flat CSV rendering for plotting; one row per grid point."""
    kind = payload["kind"]
    grid = _CSV_GRIDS.get(payload.get("convention", kind))
    if grid is not None:
        header, key = grid
        text = header + _csv_rows(np.column_stack([payload[key], payload["values"]]))
    elif kind == "value":
        text = "re,im" + _csv_rows(np.reshape(payload["value"], (1, 2)))
    elif kind == "fourier-coefficients" and "c" in payload:
        text = "k,re,im" + _csv_rows(payload["c"])
    elif kind == "fourier-coefficients":
        b = {k: v for k, v in payload["b"]}
        text = "k,a,b" + "".join(f"\n{k},{format_float(a)},{format_float(b[k]) if k in b else ''}"
                                 for k, a in payload["a"])
    else:
        raise ContractViolationError(f"no CSV rendering for kind {kind!r}")
    return (text + "\n").encode("ascii")
