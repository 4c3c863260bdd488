"""``python -m rmstgst`` and the ``rmstgst`` script: ``run`` freezes the heap after ``cli.main``, so shutdown's
collections skip every object then tracked; teardown, ``atexit`` and the final flushes still run. No output waits
on them: ``cli._write`` synced and renamed each file, ``cli._state_lock`` freed its lock in ``finally`` and
``cli._print`` flushed each line. In-process callers of ``cli.main`` keep collecting."""

import gc
import sys

from .cli import main


def run() -> int:
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
