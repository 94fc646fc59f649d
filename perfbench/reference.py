"""A fixed reference kernel that gauges the host's current speed.

The benchmark's host is a shared machine whose per-core speed drifts by
tens of percent over seconds and shifts further between periods of
minutes.  The reference kernel does the same work every time and is
independent of the program under test, so the ratio of its wall to
:data:`NOMINAL_S` (its median wall on a 2-vCPU shared Xeon host) is the
host's slowdown at that moment.  ``run.py`` samples it between set-up
rounds and units and every few seconds inside a long unit, and divides
each wall by the mean of its samples.

The kernel runs in a child process (:class:`Reference`) so that its
arrays do not count towards the workload's peak RSS; the child waits on
its standard input while the workload runs, so the two never compete.
Run directly, this module serves samples: one line in, one speed factor
out, until standard input closes.
"""

from __future__ import annotations

import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

#: Seconds each part of one pass takes on the reference host.
NOMINAL_S = {"stream": 0.036, "interp": 0.036, "sort": 0.043, "segmax": 0.039, "calls": 0.039}


class Kernel:
    """Five parts in the workloads' mix.

    Array streaming, interpreter-bound dict work, small sorts, segmented
    maxima over a (steps, links)-shaped block and many calls on tiny
    arrays: the workload walls follow the geometric mean of the five
    more closely than any one of them.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.big = rng.random(8_000_000)  # 64 MB, past the per-core caches
        self.buf = np.empty_like(self.big)
        self.small = rng.random(20_000)
        self.keys = [f"k{i}" for i in range(2000)]
        self.block = rng.random((64, 3000))
        self.starts = np.sort(rng.choice(np.arange(1, 3000), 399, replace=False))
        self.starts = np.concatenate([[0], self.starts])
        self.tiny = [rng.random(50) for _ in range(20)]

    def stream(self) -> float:
        np.multiply(self.big, 1.0001, out=self.buf)
        np.add(self.buf, 0.5, out=self.buf)
        return float(self.buf.sum())

    def interp(self) -> float:
        counts: dict[str, int] = {}
        for r in range(100):
            for i, k in enumerate(self.keys):
                counts[k] = counts.get(k, 0) + i * r
        return float(max(counts.values()))

    def sort(self) -> float:
        x = self.small.copy()
        for _ in range(700):
            y = np.sort(x[:5000])
            x[:10] += sum(float(v) for v in y[:200]) * 1e-9
        return float(x[0])

    def segmax(self) -> float:
        for _ in range(40):
            out = np.maximum.reduceat(self.block, self.starts, axis=1)
        return float(out[0, 0])

    def calls(self) -> float:
        total = 0.0
        for _ in range(200):
            for a in self.tiny:
                total += float(np.max(a)) + float(np.sum(a))
        return total

    def factor(self) -> float:
        """Geometric mean over the parts of wall ÷ nominal wall."""
        logs = []
        for name, nominal in NOMINAL_S.items():
            t0 = time.perf_counter()
            getattr(self, name)()
            logs.append(math.log((time.perf_counter() - t0) / nominal))
        return math.exp(sum(logs) / len(logs))


class Reference:
    """The kernel in a child process; :meth:`sample` returns a speed factor."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve())],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def sample(self) -> float:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"reference kernel exited with {self.proc.wait()}")
        return float(line)

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.stdin.close()
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()

    def __enter__(self) -> "Reference":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def serve() -> None:
    kernel = Kernel()
    kernel.factor()  # warm-up: page in the arrays
    for _ in sys.stdin:
        print(repr(kernel.factor()), flush=True)


if __name__ == "__main__":
    serve()
