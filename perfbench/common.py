"""Requests, reference checks, failure accounting and statistics shared by the workloads.

A workload turns a seed into *decks*: ordered lists of requests, each with
its own reference.  One cycle of the closed loop runs one deck.  Every
request ends in one of four states:

* ``ok``      returned a result within its tolerance;
* ``raised``  raised an exception (library);
* ``refused`` the CLI exited non-zero; the category comes from the
  ``error: <category>:`` line on stderr;
* ``miss``    returned a result outside its tolerance.

The timed mixes hold only requests the program answers within tolerance,
so every state but ``ok`` is a failure and makes the run incorrect.  The
program's known defects are exercised apart from the timed loop, by
``defects.py``.
"""

from __future__ import annotations

import json
import math
import warnings
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

import numpy as np

HERE = Path(__file__).resolve().parent
CONFIG = json.loads((HERE / "config.json").read_text())
TOLERANCES = CONFIG["tolerances"]

DIGITS_CAP = 12.0
# Percentiles the tail and low-accuracy figures are chosen from; the
# highest (lowest) one with at least MIN_BEYOND samples beyond it is used.
# The rungs are far apart so that runs whose request counts differ by a
# deck or two still report the same percentile: 40 <= n < 100 gives p75,
# 100 <= n < 1000 gives p90.
PERCENTILE_LADDER = (50.0, 75.0, 90.0, 99.0, 99.9)
MIN_BEYOND = 10


def scaled_error(result, reference, measure: str) -> float:
    """The error measure named in config.json's ``error_measures``."""
    got = np.asarray(result, dtype=complex)
    ref = np.asarray(reference, dtype=complex)
    if got.shape != ref.shape:
        return math.inf
    diff = float(np.max(np.abs(got - ref))) if ref.size else 0.0
    if not math.isfinite(diff):
        return math.inf
    if measure == "normwise":
        scale = float(np.max(np.abs(ref)))
        return diff / scale if scale > 0 else diff
    if measure == "acceptance":
        mag = float(np.max(np.abs(ref)))
        return diff / mag if mag >= 0.1 else diff
    if measure == "absolute":
        return diff
    raise ValueError(f"unknown error measure {measure!r}")


def digits(err: float) -> float:
    """-log10 of an error, capped so rounding-level changes cannot read as a loss."""
    if err <= 0:
        return DIGITS_CAP
    if not math.isfinite(err):
        return 0.0
    return min(DIGITS_CAP, -math.log10(err))


@dataclass
class Request:
    """One library call with its reference.

    ``call(state)`` performs the request; builds store their spectrum in
    ``state`` for the reads that follow in the same deck.  ``expected``
    is the reference value, or a closed form that computes it when large.
    """

    rid: str
    kind: str
    params: dict
    call: Callable[[dict], Any]
    expected: Any
    extract: Callable[[Any], Any] = lambda r: r


@dataclass
class Outcome:
    rid: str
    kind: str
    latency_s: float
    status: str
    error: float | None = None
    note: str = ""
    extra: dict = field(default_factory=dict)
    # Factor to the reference machine speed (see calibration.py).
    scale: float = 1.0

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def judge(kind: str, error: float) -> str:
    return "ok" if error <= TOLERANCES[kind]["tol"] else "miss"


def execute(req: Request, state: dict) -> Outcome:
    """Run one library request and check it against its reference."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        start = perf_counter()
        try:
            result, exc = req.call(state), None
        except Exception as e:  # recorded as a failure of the request
            result, exc = None, e
        latency = perf_counter() - start
    warned = sorted({w.category.__name__ for w in caught})
    note = "warned " + ",".join(warned) if warned else ""
    if exc is not None:
        return Outcome(req.rid, req.kind, latency, "raised", None,
                       f"{type(exc).__name__}: {exc}")
    expected = req.expected() if callable(req.expected) else req.expected
    err = scaled_error(req.extract(result), expected, TOLERANCES[req.kind]["error"])
    return Outcome(req.rid, req.kind, latency, judge(req.kind, err), err, note)


def run_calibrated(items, run_one, cal=None) -> list[Outcome]:
    """Run ``run_one`` on each item in turn.

    With ``cal`` (a ``calibration.Calibration``), the machine-speed kernels
    are timed between consecutive requests and each outcome gets its factor
    to the reference speed from the samples on either side of it.
    """
    outcomes = []
    before = cal.sample() if cal is not None else None
    for item in items:
        o = run_one(item)
        if cal is not None:
            after = cal.sample()
            o.scale = cal.scale(o.kind, before, after)
            o.extra["kernel_s"] = {name: 0.5 * (before[name] + after[name]) for name in after}
            before = after
        outcomes.append(o)
    return outcomes


class LibraryWorkload:
    """A workload of in-process library requests, cycled deck by deck."""

    def __init__(self, module, seed: int):
        self.decks = module.make_decks(seed)
        self.calibration = module.CALIBRATION
        self._module = module

    def warm_up(self) -> None:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            self._module.warm_up()

    def run_cycle(self, index: int, tracer=None, cal=None) -> list[Outcome]:
        state = {"wrap": tracer.wrap_integrand if tracer else (lambda f: f)}

        def run_one(req):
            if tracer:
                tracer.rid = req.rid
            return execute(req, state)

        return run_calibrated(self.decks[index % len(self.decks)], run_one, cal)

    def close(self) -> None:
        pass


def tail_percentile(n: int) -> float:
    """Highest ladder percentile with at least MIN_BEYOND samples above it."""
    best = PERCENTILE_LADDER[0]
    for p in PERCENTILE_LADDER:
        if n * (1.0 - p / 100.0) >= MIN_BEYOND:
            best = p
    return best


def summarize(outcomes: list[Outcome], rss_mb: float, setup: tuple | None,
              deck_sizes: list[int] | None = None) -> tuple[dict, dict]:
    """End-to-end metrics and the detail record behind them.

    Goodput is taken per deck (requests within tolerance over the time the
    deck's requests took) and the median over decks is reported, so that a
    burst of load from outside slows one deck rather than the whole figure.
    Times are taken at the reference machine speed (each outcome's
    ``scale``, see ``calibration.py``); the detail record keeps the
    measured figures.  ``setup`` is (reported, measured) set-up time.
    """
    n = len(outcomes)
    raw_ms = np.array([o.latency_s for o in outcomes]) * 1e3
    lat_ms = raw_ms * np.array([o.scale for o in outcomes])
    timed = float(np.sum(raw_ms)) / 1e3
    good = sum(o.ok for o in outcomes)
    rates, raw_rates, start = [], [], 0
    for size in deck_sizes or [n]:
        deck = outcomes[start:start + size]
        rates.append(sum(o.ok for o in deck) / sum(o.latency_s * o.scale for o in deck))
        raw_rates.append(sum(o.ok for o in deck) / sum(o.latency_s for o in deck))
        start += size
    failed = n - good
    p_tail = tail_percentile(n)
    completed = [digits(o.error) for o in outcomes if o.error is not None]
    p_low = 100.0 - tail_percentile(len(completed))
    measured = {
        "goodput_rps": float(np.median(raw_rates)),
        "req_p50_ms": float(np.percentile(raw_ms, 50)),
        "req_tail_ms": float(np.percentile(raw_ms, p_tail)),
    }
    metrics = {
        "goodput_rps": (float(np.median(rates)), "1/s"),
        "req_p50_ms": (float(np.percentile(lat_ms, 50)), "ms"),
        "req_tail_ms": (float(np.percentile(lat_ms, p_tail)), "ms"),
        "acc_digits_p50": (float(np.percentile(completed, 50)), "digits"),
        "acc_digits_low": (float(np.percentile(completed, p_low)), "digits"),
        "rss_peak_mb": (rss_mb, "MB"),
    }
    if setup is not None:
        metrics["setup_s"] = (setup[0], "s")
        measured["setup_s"] = setup[1]
    by_kind: dict[str, dict] = {}
    for o in outcomes:
        k = by_kind.setdefault(o.kind, {"attempted": 0, "failed": 0, "ms": [], "digits": []})
        k["attempted"] += 1
        k["failed"] += not o.ok
        k["ms"].append(o.latency_s * 1e3)
        if o.error is not None:
            k["digits"].append(digits(o.error))
    for k in by_kind.values():
        k["p50_ms"] = round(float(np.median(k.pop("ms"))), 3)
        d = k.pop("digits")
        k["digits_min_p50"] = [round(min(d), 3), round(float(np.median(d)), 3)] if d else None
    detail = {
        "measured": measured,
        "attempted": n,
        "failed": failed,
        "timed_s": round(timed, 4),
        "goodput_per_deck": [round(r, 4) for r in rates],
        "req_tail_percentile": p_tail,
        "req_tail_beyond": int(round(n * (1 - p_tail / 100.0))),
        "acc_digits_completed": len(completed),
        "acc_digits_low_percentile": p_low,
        "acc_digits_low_below": int(round(len(completed) * p_low / 100.0)),
        "failures": dict(Counter(o.status for o in outcomes)),
        "by_kind": by_kind,
        "failed_requests": [vars(o) for o in outcomes if not o.ok][:20],
    }
    return metrics, detail

