"""The package's one runtime dependency is numpy.

Importing the library and its CLI, in a fresh interpreter, loads no top-level
module but ``unitransform``, numpy and the standard library.  Modules already
loaded before the import (by ``site``, say) are not counted.
"""

import json
import subprocess
import sys

_PROBE = """
import json, sys
before = set(sys.modules)
import unitransform, unitransform.cli
print(json.dumps(sorted({name.split(".")[0] for name in set(sys.modules) - before})))
"""


def test_import_loads_only_numpy_beyond_the_standard_library():
    result = subprocess.run([sys.executable, "-c", _PROBE], capture_output=True, text=True,
                            check=True)
    loaded = set(json.loads(result.stdout))
    assert {"unitransform", "numpy"} <= loaded
    assert sorted(loaded - {"unitransform", "numpy"} - set(sys.stdlib_module_names)) == []
