"""Run one ``rmstgst`` command in a fresh process with the tracer installed.

Usage: python3 perfbench/look.py SPANS_JSON ARGS...

Times the import of ``rmstgst.cli``, wraps the package's layer functions,
calls ``rmstgst.cli.main(ARGS)`` and writes the spans, counters and the
import time to SPANS_JSON. Exits with the command's exit code.
"""

from __future__ import annotations

import sys
import time

from common import pin_threads, use_checkout_source
from tracer import Tracer


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    pin_threads()
    use_checkout_source()
    start = time.perf_counter()
    import rmstgst.cli

    import_s = time.perf_counter() - start
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.counting_warnings():
            return rmstgst.cli.main(argv)
    finally:
        tracer.dump(spans_path, import_s=import_s)


if __name__ == "__main__":
    sys.exit(main())
