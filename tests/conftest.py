"""Pin BLAS to one thread before numpy loads.

A complex matmul can round differently with one BLAS thread and with two,
and the golden digests record the bytes of ``flt`` and ``iflt`` output that
go through one.  One thread makes them the same on every machine with the
same BLAS build.  The variables are read when the BLAS library loads, so a
numpy imported before this file would keep its own thread count; that fails
the run instead of letting the digests depend on it.
"""

import os
import sys

if "numpy" in sys.modules:
    raise RuntimeError(
        "numpy was imported before tests/conftest.py could pin BLAS to one thread; "
        "run the tests without a plugin or startup hook that imports numpy"
    )
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402  (after the pin)


def gauss_sum(f, a, b, order, panels, lam=0.0):
    """Integral of f(x) exp(i lam x) over [a, b] on ``panels`` equal Gauss-Legendre panels.

    The independent reference of the tests: built only from
    ``np.polynomial.legendre.leggauss`` and an explicit ``np.exp`` sum, so it
    shares no quadrature or kernel code with the package.  ``lam`` may be an
    array, giving one integral per entry.
    """
    t, w = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(a, b, panels + 1)
    mid, half = (edges[:-1] + edges[1:])[:, None] / 2.0, np.diff(edges)[:, None] / 2.0
    x, weights = (mid + half * t).ravel(), (half * w).ravel()
    return np.exp(1j * np.multiply.outer(lam, x)) @ (weights * f(x))


def pytest_configure(config):
    """Fail every test on numpy's ComplexWarning, a complex value silently cast to float.

    The class is in ``numpy.exceptions`` from numpy 1.25 on and in ``numpy`` before.
    """
    module = getattr(np, "exceptions", np).__name__
    config.addinivalue_line("filterwarnings", f"error::{module}.ComplexWarning")


def pytest_collection_modifyitems(items):
    """Fail every test that lets a TruncationWarning escape unasserted.

    The class is named here, after the pin above, because naming it in
    pyproject.toml's ``filterwarnings`` would import numpy before this file.
    """
    import pytest

    for item in items:
        item.add_marker(pytest.mark.filterwarnings("error::unitransform.errors.TruncationWarning"))
