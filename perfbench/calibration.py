"""Machine-speed reference: fixed kernels timed around every request.

The machines this benchmark runs on are shared, and their speed drifts by
a third or more within seconds while the program stays the same; how much
depends on what the code does, interpreted Python, compute-bound and
memory-bound numpy drifting differently.  Each workload therefore maps its
request kinds to small fixed kernels, independent of the package, that do
what those requests do (``CALIBRATION``, with ``"*"`` for every other kind):

* ``python``: a Python loop of small-array numpy calls, the pattern of the
  package's adaptive quadrature;
* ``build``: a complex-exponential outer product and a matvec over a
  stored 121 x 4001 complex array (7.7 MB), the pattern of the kernel sums
  that build spectra on a line;
* ``read``: one pass of ``abs`` and ``max`` over a stored 91 x 2001 complex
  array (2.9 MB) and a matvec with it, the pattern of a read of a stored
  spectrum;
* ``spawn``: start an interpreter that does nothing (``python -S -c pass``),
  the pattern of a CLI request's process start.

The kernels are timed between consecutive requests and around every
set-up process, and a request's latency is reported at the reference
speed,

    reported time = measured time * reference_s / kernel time,

with the kernel time the mean of its samples just before and just after
the request, and ``reference_s`` the kernel's time at the reference speed,
fixed in ``config.json`` near its typical time on the machine of
``environment.json`` (so that reported and measured figures are close
there); goodput is scaled the other way.  The measured figures are on the
detail line.  Nothing the package does can move the kernels, so a change
to the package moves the reported figures as it moves the measured ones.
"""

from __future__ import annotations

import functools
import statistics
import subprocess
import sys
from time import perf_counter

import numpy as np

from common import CONFIG

REFERENCE_S = CONFIG["calibration"]["reference_s"]  # kernel name -> seconds
# Kernel timings per sample; the sample is their median.  The kernels take
# about 1 ms (python, read), 5 ms (build) and 10 ms (spawn).
REPS = 3
_SMALL = np.linspace(-1.0, 1.0, 21)
_TAU = np.linspace(-100.0, 100.0, 4001)
_NODES = np.linspace(0.0, 40.0, 100)


@functools.cache
def _stored(rows: int, cols: int) -> np.ndarray:
    """A stored complex array, made once, only by runs whose kernels use it."""
    return np.exp(1j * np.outer(np.linspace(-6.0, 6.0, rows), _TAU[:cols]))


def _python_kernel():
    acc = 0.0
    for i in range(150):
        acc += float(np.sum(np.exp(-_SMALL * (i % 7)) * _SMALL))
    return acc


def _build_kernel():
    m = np.exp(-1j * np.outer(_NODES, _TAU[::4]))
    return _stored(121, 4001) @ np.exp((0.5 + 1j * _TAU) * 1.3), m.sum()


def _read_kernel():
    stored = _stored(91, 2001)
    profile = np.max(np.abs(stored), axis=0)
    return profile, stored @ np.exp((0.25 + 1j * _TAU[:2001]) * 1.3)


def _spawn_kernel():
    subprocess.run([sys.executable, "-S", "-c", "pass"], check=True)


KERNELS = {"python": _python_kernel, "build": _build_kernel, "read": _read_kernel,
           "spawn": _spawn_kernel}


class Calibration:
    """Kernel samples of one run.

    ``kernels`` maps request kinds to kernel names, ``"*"`` standing for
    every kind not listed.
    """

    def __init__(self, kernels: dict[str, str]):
        self.kernels = kernels
        self.samples: dict[str, list[float]] = {name: [] for name in sorted(set(kernels.values()))}

    def sample(self) -> dict[str, float]:
        """Time each kernel of the run; return the median of REPS timings of each."""
        for name, times in self.samples.items():
            runs = []
            for _ in range(REPS):
                start = perf_counter()
                KERNELS[name]()
                runs.append(perf_counter() - start)
            times.append(statistics.median(runs))
        return {name: times[-1] for name, times in self.samples.items()}

    def scale(self, kind: str, before: dict, after: dict) -> float:
        """Factor that takes a time measured between two samples to the reference speed."""
        name = self.kernels.get(kind, self.kernels["*"])
        return REFERENCE_S[name] / (0.5 * (before[name] + after[name]))

    def report(self) -> dict:
        return {"kernels": self.kernels,
                "reference_s": {name: REFERENCE_S[name] for name in self.samples},
                "median_s": {name: statistics.median(t) for name, t in self.samples.items()},
                "samples": len(next(iter(self.samples.values())))}
