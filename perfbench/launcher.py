"""Run one unitransform CLI request with the benchmark's timing wrappers installed.

    python3 perfbench/launcher.py SPANS_FILE REQUEST_ID -- ARGS...

Installs the wrappers of ``tracing.py`` in this process, calls
``unitransform.cli.main(ARGS)``, writes the spans and counters to
SPANS_FILE and exits with the CLI's exit status.  Stdout and output files
are the CLI's own, byte for byte.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import unitransform.cli  # noqa: E402
from tracing import Tracer  # noqa: E402


def main() -> int:
    spans_path, rid, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: launcher.py SPANS_FILE REQUEST_ID -- ARGS...")
    tracer = Tracer()
    tracer.rid = rid
    tracer.install()
    try:
        return unitransform.cli.main(argv)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
