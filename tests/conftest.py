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


def pytest_collection_modifyitems(items):
    """Fail every test that lets a TruncationWarning escape unasserted.

    The class is named here, after the pin above, because naming it in
    pyproject.toml's ``filterwarnings`` would import numpy before this file.
    """
    import pytest

    for item in items:
        item.add_marker(pytest.mark.filterwarnings("error::unitransform.errors.TruncationWarning"))
