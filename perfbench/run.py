"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload cold_paper --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` reruns the
same work with every public layer call wrapped in a span and prints the
per-layer metrics instead.  The end-to-end times are rescaled to the
reference host's speed: a fixed kernel (``reference.py``) is timed
between set-up rounds, between units and every few seconds inside a
long unit, and each wall is divided by the mean speed factor of the
samples from the one before it to the one after it.  Information
lines (raw walls, speed factors, output digest, failures) go to stdout
before the final JSON line.  The run works in ``.perfbench_work/``
under the checkout and removes its own directory there when it ends.
Outside a checkout holding ``src/repro`` it exits with status 2 and
prints no result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

#: Set-up rounds per run; ``setup_s`` is their median.
SETUP_ROUNDS = 3

#: Seconds between speed samples taken inside a unit; shorter units get none.
INNER_INTERVAL_S = 5.0

#: End-to-end metric -> unit, as listed in ``BENCHMARK.json``.
END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}


def parse_args(argv):
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def isolate_env(workdir: Path) -> None:
    """Drop inherited ``REPRO_*`` settings; pin one worker and a private cache."""
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    tmp = workdir / "tmp"
    tmp.mkdir(parents=True)
    os.environ.update(
        REPRO_WORKERS="1",
        REPRO_ARTIFACT_CACHE="1",
        REPRO_CACHE_DIR=str(workdir / "cache0"),
        TMPDIR=str(tmp),
    )


def import_seconds(root: Path, modules) -> float:
    """Wall of a fresh interpreter that imports ``modules`` and exits."""
    code = f"import sys; sys.path.insert(0, 'src'); import {', '.join(modules)}"
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], cwd=root, check=True)
    return time.perf_counter() - t0


class Speed:
    """Host speed factors from the reference kernel; all 1.0 without one.

    ``factors`` holds every sample in order: one before the first span,
    one after each span and, inside a unit, one every
    :data:`INNER_INTERVAL_S` seconds.  An inner sample pauses the unit
    (it runs from a ``SIGALRM`` handler in the main thread while the
    kernel's process works), and ``paused`` sums those pauses so that
    :class:`workloads.Clock` can leave them out of its sections.
    """

    def __init__(self, ref=None) -> None:
        self.ref = ref
        self.factors: list[float] = []
        self.paused = 0.0
        self.sample()

    def sample(self) -> None:
        self.factors.append(self.ref.sample() if self.ref is not None else 1.0)

    def since(self, opened: int) -> float:
        """Mean factor from sample ``opened`` (the one before a span) to the last."""
        window = self.factors[opened:]
        return sum(window) / len(window)

    @contextmanager
    def sampling(self):
        """Take an inner sample every ``INNER_INTERVAL_S`` s in the block."""
        if self.ref is None:
            yield
            return
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INNER_INTERVAL_S, INNER_INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def _on_alarm(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.sample()
        self.paused += time.perf_counter() - t0


def setup(workload, root: Path, speed: Speed) -> tuple[list[float], list[float]]:
    """Set-up rounds (fresh-interpreter imports + cache dir + priming): walls, rescaled."""
    walls, scaled = [], []
    for _ in range(SETUP_ROUNDS):
        opened = len(speed.factors) - 1
        imports = import_seconds(root, workload.modules)
        t0 = time.perf_counter()
        workload.prime()
        walls.append(imports + time.perf_counter() - t0)
        speed.sample()
        scaled.append(walls[-1] / speed.since(opened))
    return walls, scaled


def measure(workload, seconds: float, speed: Speed, tracer=None) -> tuple[list, list]:
    """Repeat the workload's unit until ``seconds`` have passed: walls, rescaled."""
    from workloads import Clock

    walls, scaled = [], []
    t_end = time.perf_counter() + seconds
    while not walls or time.perf_counter() < t_end:
        gc.collect()
        opened = len(speed.factors) - 1
        clock = Clock(tracer, speed)
        with speed.sampling():
            workload.unit(clock)
        walls.append(clock.seconds)
        speed.sample()
        scaled.append(walls[-1] / speed.since(opened))
    return walls, scaled


def end_to_end(workload, setup_scaled: list[float], unit_scaled: list[float]) -> dict:
    out = workload.outcome
    return {
        "setup_s": statistics.median(setup_scaled),
        "wall_s": statistics.median(unit_scaled),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": (out.attempted - out.failed) / max(out.attempted, 1),
    }


def traced_measure(workload, seconds: float, trace_path: Path) -> tuple[list, dict]:
    """The timed loop under the layer tracer; returns unit walls + per-layer metrics."""
    from layers import TARGETS, idle_calls, layer_metrics
    from tracer import Tracer, coverage_misses, install, wrapper_cost_s

    from repro.obs import METRICS

    cost = wrapper_cost_s()
    tracer = Tracer()
    uninstall = install(tracer, TARGETS)
    METRICS.reset()
    try:
        walls, _ = measure(workload, seconds, Speed(), tracer)
    finally:
        uninstall()
    metrics = layer_metrics(tracer, METRICS.snapshot(), cost, workload.quality)
    tracer.write(trace_path)
    name = workload.name
    problems = [f"{p} recorded no call" for p in coverage_misses(tracer, TARGETS, name)]
    problems += [f"{p} ran in a layer predicted idle" for p in idle_calls(tracer, name)]
    attributed = sum(tracer.self_by_layer().values())
    if abs(attributed - tracer.root_wall()) > 1e-9 * max(tracer.root_wall(), 1.0):
        problems.append(f"self times sum to {attributed} s, not the root wall")
    workload.outcome.check("trace", problems)
    print(f"trace: {len(tracer)} spans, root wall {tracer.root_wall():.3f} s -> {trace_path}")
    return walls, metrics


def main(argv=None) -> int:
    root = Path.cwd()
    if not (root / "src" / "repro").is_dir():
        print("perfbench: run from a checkout that holds src/repro", file=sys.stderr)
        return 2
    args = parse_args(argv)
    sys.path.insert(0, str(root / "src"))
    workdir = root / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    isolate_env(workdir)
    try:
        return run(args, root, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, root: Path, workdir: Path) -> int:
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, workdir)
    for module in workload.modules:
        __import__(module)
    if args.trace:
        setup(workload, root, Speed())
        trace_path = root / ".perfbench_work" / "traces" / f"{args.workload}-s{args.seed}.npz"
        walls, metrics = traced_measure(workload, args.seconds, trace_path)
        from layers import PER_LAYER_UNITS as units
    else:
        from reference import Reference

        with Reference() as ref:
            speed = Speed(ref)
            setup_walls, setup_scaled = setup(workload, root, speed)
            walls, scaled = measure(workload, args.seconds, speed)
        metrics = end_to_end(workload, setup_scaled, scaled)
        units = END_TO_END_UNITS
        print(f"setup: walls {[round(w, 3) for w in setup_walls]} s")
        print(f"speed factors: {[round(f, 3) for f in speed.factors]}")
    out = workload.outcome
    print(f"units: {len(walls)} timed, walls {[round(w, 3) for w in walls]} s")
    print(f"quality: {json.dumps(workload.quality, sort_keys=True)}")
    print(f"digest: {args.workload} seed {args.seed} sha256 {out.sha.hexdigest()}")
    for failure in out.failures:
        print(f"FAILED {failure}")
    result = {
        "correct": not out.failed,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
