"""Paths, pinned thread settings and small helpers shared by the benchmark.

Nothing here imports numpy or rmstgst: the traced look child measures the
import of ``rmstgst.cli`` after loading this module, so the import must
still be cold at that point.
"""

from __future__ import annotations

import os
import resource
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
DATA = BENCH_DIR / "data"
REFS = BENCH_DIR / "refs"
RESULTS = BENCH_DIR / "_results"
WORK = BENCH_DIR / "_work"

# One BLAS/OpenMP thread per process, and --threads 1 for the program:
# every call stays in the process the tracer wraps, and the load fits the
# two shared cores the benchmark was tuned on.
BLAS_THREADS = 1
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class BenchError(Exception):
    """The benchmark cannot run here: missing sources, failed set-up."""


def pin_threads() -> None:
    """Pin BLAS/OpenMP pools to ``BLAS_THREADS`` before numpy is imported."""
    if BLAS_THREADS > (os.cpu_count() or 1):
        raise BenchError(f"BLAS_THREADS={BLAS_THREADS} exceeds nproc={os.cpu_count()}")
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    os.environ["RMSTGST_THREADS"] = "1"


def pin_cpu() -> int | None:
    """Keep this process, its children and the speed helper on one CPU.

    The speed factor (speed.py) only tracks the program when both run on
    the same core: on the two-vCPU tuning machine a factor measured on the
    other core correlated 0.2-0.4 with operation times, one measured on the
    same core 0.7-0.85. Nothing runs concurrently, so one core is enough.
    Returns the CPU, or None where affinity cannot be set.
    """
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def use_checkout_source() -> None:
    """Make ``import rmstgst`` load this checkout's ``src/`` and nothing else.

    Child processes inherit the setting through ``PYTHONPATH``.
    """
    if not (SRC / "rmstgst" / "__init__.py").is_file():
        raise BenchError(f"no rmstgst package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = str(SRC)


def check_imported_from_checkout(module) -> None:
    origin = Path(module.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise BenchError(f"rmstgst was imported from {origin}, not from {SRC}")


@dataclass
class ChildRun:
    seconds: float
    exit: int
    rss_mb: float
    stdout: str
    stderr: str


def run_child(argv: list[str], out_dir: Path, tag: str) -> ChildRun:
    """Run one child process to completion; time it and read its peak RSS.

    Output goes to files rather than pipes so that ``os.wait4`` can reap
    the child and return its own resource usage.
    """
    out_path = out_dir / f"{tag}.out"
    err_path = out_dir / f"{tag}.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, stdin=subprocess.DEVNULL, cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildRun(
        seconds=seconds,
        exit=proc.returncode,
        rss_mb=usage.ru_maxrss / 1024.0,
        stdout=out_path.read_text(encoding="utf-8", errors="replace"),
        stderr=err_path.read_text(encoding="utf-8", errors="replace"),
    )


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def median(values) -> float:
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of no values")
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 else 0.5 * (ordered[mid - 1] + ordered[mid])
