"""How fast this machine runs right now, from fixed reference kernels.

The shared virtual machines the benchmark runs on drift in speed by up to half
over tens of seconds, as neighbouring jobs come and go, and process CPU
time drifts with wall time. A raw wall time therefore says as much about
the minute it was taken in as about the program. The benchmark times
fixed kernels that do not depend on rmstgst right before and right after
each operation and reports times scaled to a machine on which they take
their ``*_REFERENCE_S`` values: each operation's time divided by the
mean of the factors measured before and after it. Raw wall times and
factors are kept in the results file.

Two kernels cover the two kinds of work the program does. The small one
runs interpreted Python over small containers and small numpy reductions
and products, which stay in the core's cache, as the in-process commands
do; it alone sets their factor. The memory one streams over a 32 MB
array, past the core's 2 MB L2 into the shared L3, as the n x r matrices
of a 5 000-per-arm look do, and tracks slowdowns that neighbours cause
there; a memory-bound workload's factor is the geometric mean of the two.
On the tuning machine the small kernel alone left the spread of look
times at 0.17 and the mean of both left command times at 0.2, so each
kind of workload uses the factor that tracks it. Each kernel's fastest
of several calls is used, which ignores bursts that interrupt single
calls; the median over a run's operations absorbs those bursts on the
program's side.

The kernels run in a helper process so that their arrays do not count in
the peak memory of the process that runs the program.

Usage as the helper: python3 perfbench/speed.py  (reads "small" or "both"
per line, writes one factor per line)
"""

from __future__ import annotations

import math
import subprocess
import sys
import time

from common import BenchError

# Fastest call of each kernel on the 2-core Xeon VM the benchmark was
# tuned on, rounded. Changing them rescales every reported time.
SMALL_REFERENCE_S = 0.0035
MEMORY_REFERENCE_S = 0.0100
SMALL_REPEATS = 15
MEMORY_REPEATS = 7


class Kernels:
    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(20250917)
        self.np = np
        self.small_matrix = rng.random((48, 48))
        self.vector = rng.random(4000)
        self.big = rng.random(1 << 22)
        self.out = np.empty_like(self.big)

    def small(self) -> float:
        total = 0.0
        for i in range(150):
            counts = {j: j * i for j in range(40)}
            total += sum(counts.values())
            total += float(self.np.cumsum(self.vector)[-1])
            total += float((self.small_matrix @ self.small_matrix)[0, 0])
        return total

    def memory(self) -> None:
        self.np.negative(self.big, out=self.out)
        self.np.exp(self.out, out=self.out)

    @staticmethod
    def fastest(kernel, repeats: int) -> float:
        best = math.inf
        for _ in range(repeats):
            start = time.perf_counter()
            kernel()
            best = min(best, time.perf_counter() - start)
        return best

    def factor(self, memory_bound: bool) -> float:
        small = self.fastest(self.small, SMALL_REPEATS) / SMALL_REFERENCE_S
        if not memory_bound:
            return small
        memory = self.fastest(self.memory, MEMORY_REPEATS) / MEMORY_REFERENCE_S
        return math.sqrt(small * memory)


class SpeedProbe:
    """Client of a helper process that measures speed factors on request."""

    def __init__(self):
        self._proc = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def factor(self, memory_bound: bool) -> float:
        """Current speed factor: above 1 on a machine slower than the reference."""
        self._proc.stdin.write("both\n" if memory_bound else "small\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise BenchError(f"speed helper exited with {self._proc.wait()}")
        return float(line)

    def close(self) -> None:
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()


def serve() -> None:
    kernels = Kernels()
    for line in sys.stdin:
        print(repr(kernels.factor(memory_bound=line.strip() == "both")), flush=True)


if __name__ == "__main__":
    serve()
