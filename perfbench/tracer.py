"""In-memory span tracer that attributes wall time to the program's layers.

The tracer wraps public calls into each package of ``repro`` from the
outside: class methods are replaced on their class, module-level
functions at every binding site that holds them (the defining module
and every ``repro`` module that did ``from ... import name``).  Nothing
inside ``src/`` is edited.

Spans are kept in memory as parallel arrays (id = index, parent id,
name, start, end); :meth:`Tracer.write` dumps them once, at the end of
a run.  A span's self time is its duration minus the durations of its
direct children, so the self times of every span under a root sum to
the root's wall exactly.  Calls made outside a root span (set-up, the
output checks) are not recorded.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

#: Layer of the benchmark's own root spans (one per timed unit).  Their
#: self time is the wall no wrapped call covers.
ROOT_LAYER = "unattributed"


class Tracer:
    """Span stack plus per-call counters, kept in memory."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.layers: list[str] = []
        self._codes: dict[tuple[str, str], int] = {}
        self.parent = array("q")
        self.code = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        #: Completed calls per span name.
        self.calls: Counter = Counter()
        #: Work counters filled by target hooks (flows routed, tree nodes).
        self.counts: Counter = Counter()

    def _code(self, name: str, layer: str) -> int:
        code = self._codes.get((name, layer))
        if code is None:
            code = self._codes[(name, layer)] = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
        return code

    def open(self, name: str, layer: str) -> int:
        sid = len(self.start)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.code.append(self._code(name, layer))
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        if self._stack.pop() != sid:
            raise RuntimeError(f"span {self.names[self.code[sid]]!r} closed out of order")

    @contextmanager
    def root(self, name: str):
        """Span of one timed section (layer :data:`ROOT_LAYER`)."""
        if self._stack:
            raise RuntimeError("root spans cannot nest")
        sid = self.open(name, ROOT_LAYER)
        try:
            yield sid
        finally:
            self.close(sid)

    def wrap(self, fn, name: str, layer: str, hook=None, task_arg: int | None = None):
        """``fn`` with a span around every call; ``hook`` counts work.

        ``task_arg`` names the positional argument that is itself a task
        function (a pool's ``fn``): it is wrapped too, in a span charged
        to the layer of the module that defines it, so work a serial pool
        runs inline is not billed to the pool.
        """
        open_, close, calls = self.open, self.close, self.calls

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._stack:  # outside the timed sections: not measured
                return fn(*args, **kwargs)
            if task_arg is not None:
                args = list(args)
                task = args[task_arg]
                args[task_arg] = self.wrap(
                    task, f"task:{task.__qualname__}", module_layer(task.__module__)
                )
            sid = open_(name, layer)
            try:
                out = fn(*args, **kwargs)
            finally:
                close(sid)
                calls[name] += 1
            if hook is not None:
                hook(self.counts, args, out)
            return out

        return traced

    # -- derived views -------------------------------------------------- #

    def __len__(self) -> int:
        return len(self.start)

    def _arrays(self):
        parent = np.array(self.parent, dtype=np.int64)
        code = np.array(self.code, dtype=np.int32)
        dur = np.array(self.end, dtype=np.float64) - np.array(
            self.start, dtype=np.float64
        )
        return parent, code, dur

    def self_times(self) -> np.ndarray:
        """Per-span self time: duration minus direct children's durations."""
        parent, _, dur = self._arrays()
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        return dur - child

    def _sum_by(self, values: np.ndarray, labels: list[str]) -> dict[str, float]:
        _, code, _ = self._arrays()
        per_code = np.bincount(code, weights=values, minlength=len(self.names))
        out: dict[str, float] = {}
        for label, v in zip(labels, per_code):
            out[label] = out.get(label, 0.0) + float(v)
        return out

    def self_by_layer(self) -> dict[str, float]:
        return self._sum_by(self.self_times(), self.layers)

    def self_by_name(self) -> dict[str, float]:
        return self._sum_by(self.self_times(), self.names)

    def total_by_name(self) -> dict[str, float]:
        """Inclusive seconds summed by span name."""
        return self._sum_by(self._arrays()[2], self.names)

    def root_wall(self) -> float:
        parent, _, dur = self._arrays()
        return float(dur[parent < 0].sum())

    def write(self, path: Path) -> None:
        """Write every span once, at the end, as one ``.npz`` file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        parent, code, _ = self._arrays()
        np.savez_compressed(
            path,
            parent=parent,
            code=code,
            start=np.array(self.start, dtype=np.float64),
            end=np.array(self.end, dtype=np.float64),
            names=np.array(self.names),
            layers=np.array(self.layers),
        )


def module_layer(module: str) -> str:
    """``repro.<layer>.<...>`` -> ``<layer>``; anything else is unattributed."""
    parts = module.split(".")
    return parts[1] if len(parts) > 1 and parts[0] == "repro" else ROOT_LAYER


@dataclass(frozen=True)
class Target:
    """One public call to wrap: ``module:Class.method`` or ``module:function``."""

    layer: str
    path: str
    #: Workloads on which the call must run at least once (coverage check).
    runs_on: frozenset
    #: ``hook(counts, args, result)`` adds work counts after each call.
    hook: object = None
    #: Positional index of a task-function argument (see :meth:`Tracer.wrap`).
    task_arg: int | None = None

    @property
    def name(self) -> str:
        return self.path.partition(":")[2]


def _rebind(replace: dict) -> None:
    """Point every ``repro`` module binding of ``id(old)`` at its replacement."""
    for name, mod in list(sys.modules.items()):
        if name != "repro" and not name.startswith("repro."):
            continue
        for attr, value in list(vars(mod).items()):
            new = replace.get(id(value))
            if new is not None and value is new[0]:
                setattr(mod, attr, new[1])


def install(tracer: Tracer, targets) -> callable:
    """Wrap every target; return a function that restores the originals.

    Restoring also rebinds modules first imported while the wrappers
    were installed, which picked up a wrapper instead of the original.
    """
    methods = []
    functions: dict[int, tuple] = {}  # id(original) -> (original, wrapper)
    for t in targets:
        module_name, _, qual = t.path.partition(":")
        module = importlib.import_module(module_name)
        if "." in qual:
            cls_name, meth = qual.split(".")
            cls = getattr(module, cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, classmethod):
                new = classmethod(tracer.wrap(raw.__func__, t.name, t.layer, t.hook))
            else:
                new = tracer.wrap(raw, t.name, t.layer, t.hook, t.task_arg)
            setattr(cls, meth, new)
            methods.append((cls, meth, raw))
        else:
            orig = getattr(module, qual)
            functions[id(orig)] = (orig, tracer.wrap(orig, t.name, t.layer, t.hook, t.task_arg))
    _rebind(functions)

    def uninstall() -> None:
        for cls, meth, raw in reversed(methods):
            setattr(cls, meth, raw)
        _rebind({id(new): (new, orig) for orig, new in functions.values()})

    return uninstall


def coverage_misses(tracer: Tracer, targets, workload: str) -> list[str]:
    """Targets expected on ``workload`` that recorded no call."""
    return [
        t.path for t in targets
        if workload in t.runs_on and tracer.calls[t.name] == 0
    ]


def wrapper_cost_s(samples: int = 20000) -> float:
    """Seconds one wrapped call adds over a bare call (median of 5 trials)."""

    def bare():
        return None

    costs = []
    for _ in range(5):
        wrapped = Tracer().wrap(bare, "calibrate", "calibrate")
        t0 = time.perf_counter()
        for _ in range(samples):
            bare()
        t1 = time.perf_counter()
        for _ in range(samples):
            wrapped()
        t2 = time.perf_counter()
        costs.append(((t2 - t1) - (t1 - t0)) / samples)
    costs.sort()
    return max(costs[len(costs) // 2], 0.0)
