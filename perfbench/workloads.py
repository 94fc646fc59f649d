"""The benchmark workloads: what they set up, time and check.

Every workload runs in one process with ``REPRO_WORKERS=1`` and a
private, initially empty ``REPRO_CACHE_DIR``, and passes the workload
seed in as ``CampaignConfig.seed``.  A workload repeats one *unit* of
work until the run's seconds are used up:

* ``cold_paper`` — one unit generates the default-cell test-scale
  campaign and runs every paper experiment over it, from an empty cache.
* ``campaign_gen`` — one unit generates a 24-day test-scale campaign,
  uncached, on ``dragonfly/ugal`` and then on ``df+/valiant``.  It runs
  by name but is not listed in ``BENCHMARK.json``: its walls follow the
  shared host's memory-bandwidth drift more than the other two do
  (perfbench/README.md, "Steadiness").
* ``stream_append`` — set-up primes a 2-window stream (2-day windows)
  plus its drift experiment and keeps that cache as a snapshot; one unit
  restores a copy of the snapshot, appends the third window and reruns
  the drift experiment.  Every unit does the same work, so the median
  does not depend on how many units fit in the run.

Only the calls into the program are timed (:meth:`Clock.section`); the
output checks between them are not.  Each operation that raises or
fails its check counts as failed.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import shutil
import sys
import time
import traceback
from contextlib import contextmanager, nullcontext
from pathlib import Path

import numpy as np

COLD, GEN, STREAM = "cold_paper", "campaign_gen", "stream_append"

#: Campaign length of one ``campaign_gen`` cell (145 probe runs).
GEN_DAYS = 24.0
GEN_CELLS = (("dragonfly", "ugal"), ("df+", "valiant"))
STREAM_WINDOWS = 2
STREAM_WINDOW_DAYS = 2.0
STREAM_KEYS = ("AMG-128", "MILC-128")


class Clock:
    """Sums timed sections; opens one root span per section when tracing.

    With a ``speed`` (``run.Speed``), the time its inner samples paused
    a section is left out of that section.
    """

    def __init__(self, tracer=None, speed=None) -> None:
        self.tracer = tracer
        self.speed = speed
        self.seconds = 0.0

    def _paused(self) -> float:
        return self.speed.paused if self.speed is not None else 0.0

    @contextmanager
    def section(self, name: str):
        with self.tracer.root(name) if self.tracer is not None else nullcontext():
            p0 = self._paused()
            t0 = time.perf_counter()
            try:
                yield
            finally:
                self.seconds += time.perf_counter() - t0 - (self._paused() - p0)


class Outcome:
    """Operations attempted and failed, plus a digest of the outputs."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.sha = hashlib.sha256()

    def check(self, label: str, problems) -> None:
        """Count one operation; ``problems`` lists its failed checks."""
        self.attempted += 1
        self.failed += bool(problems)
        self.failures.extend(f"{label}: {p}" for p in problems)

    def raised(self, label: str, count: int = 1) -> None:
        """Count ``count`` operations lost to the exception being handled."""
        traceback.print_exc(file=sys.stderr)
        self.attempted += count
        self.failed += count
        self.failures.append(f"{label}: raised ({count} operations)")

    def digest(self, *parts) -> None:
        for part in parts:
            if isinstance(part, np.ndarray):
                self.sha.update(np.ascontiguousarray(part).tobytes())
            else:
                self.sha.update(json.dumps(part, sort_keys=True, default=str).encode())


def campaign_problems(campaign, runs_solved: float | None = None) -> list[str]:
    """Every dataset non-empty with finite step times; solved == scheduled."""
    problems = []
    runs = 0
    for key, ds in campaign.datasets.items():
        runs += len(ds.runs)
        if not ds.runs:
            problems.append(f"dataset {key} is empty")
        elif not all(np.isfinite(r.step_times).all() for r in ds.runs):
            problems.append(f"dataset {key} has non-finite step times")
    if not campaign.datasets:
        problems.append("no datasets")
    if runs_solved is not None and runs_solved != runs:
        problems.append(f"runs_solved {runs_solved:g} != {runs} probe runs")
    return problems


def _counter(name: str) -> float:
    from repro.obs import METRICS

    return METRICS.counter(name).value


class Workload:
    """One benchmark workload; subclasses fill in set-up and the unit."""

    name: str
    #: Modules the workload imports (timed in a fresh interpreter for setup_s).
    modules: tuple[str, ...]

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.outcome = Outcome()
        self.quality: dict[str, float] = {}
        self._dirs = 0

    def fresh_cache(self) -> None:
        """Point ``REPRO_CACHE_DIR`` at a new empty directory."""
        self._dirs += 1
        path = self.workdir / f"cache{self._dirs}"
        path.mkdir(parents=True)
        os.environ["REPRO_CACHE_DIR"] = str(path)

    @staticmethod
    def drop_memos() -> None:
        """Forget in-process campaign, feature and kernel memos.

        A new process starts without them; the miniVite phase memo has
        no public reset, so its ``lru_cache`` is cleared directly.
        """
        from repro.apps.minivite import _cached_phase
        from repro.experiments.context import clear_cache

        clear_cache()
        _cached_phase.cache_clear()

    def prime(self) -> None:
        """Set-up beyond imports; runs once per set-up round."""
        self.fresh_cache()

    def unit(self, clock: Clock) -> None:
        raise NotImplementedError


class ColdPaper(Workload):
    name = COLD
    modules = ("repro.campaign.runner", "repro.experiments", "repro.experiments.context")

    def unit(self, clock: Clock) -> None:
        from repro.campaign.runner import run_campaign
        from repro.experiments import PAPER_EXPERIMENTS, run_experiments
        from repro.experiments.context import experiment_config

        ids = sorted(PAPER_EXPERIMENTS)
        self.fresh_cache()
        self.drop_memos()
        cfg = dataclasses.replace(experiment_config(fast=True), seed=self.seed)
        out = self.outcome
        ops = len(ids) + 2  # the campaign, each experiment, the science check
        first = out.attempted
        try:
            with clock.section("campaign"):
                camp = run_campaign(cfg)
            out.check("campaign", campaign_problems(camp))
            with clock.section("experiments"):
                results = run_experiments(ids, campaign=camp, fast=True)
            for exp_id in ids:
                res = results.get(exp_id)
                if res is not None:
                    out.digest(exp_id, res.render())
                out.check(exp_id, [] if res is not None else ["missing result"])
            self._check_science(results)
        except Exception:
            # Operations the exception cut short count as failed.
            out.raised("cold journey", ops - (out.attempted - first))

    def _check_science(self, results) -> None:
        from repro.network.counters import APP_COUNTERS

        fig09, fig10, table03 = results["fig09"], results["fig10"], results["table03"]
        scores = np.asarray(fig09.data["scores"], dtype=float)
        mapes = np.array(list(fig09.data["mape"].values()), dtype=float)
        best = np.array([v["best_mape"] for v in fig10.data["summary"].values()], dtype=float)
        problems = []
        if scores.shape != (6, len(APP_COUNTERS)) or not np.isfinite(scores).all():
            problems.append(f"fig09 scores shape {scores.shape} or non-finite values")
        if not (np.isfinite(mapes).all() and np.isfinite(best).all()) or not best.size:
            problems.append("non-finite MAPE")
        self.outcome.digest(scores)
        self.quality = {
            "fig09_mape_max_pct": float(mapes.max()),
            "fig10_mape_pct": float(best.max()),
            "table03_recovery": float(table03.data["recovery_rate"]),
        }
        self.outcome.check("science", problems)


class CampaignGen(Workload):
    name = GEN
    modules = ("repro.campaign.runner",)

    def unit(self, clock: Clock) -> None:
        from repro.campaign.runner import CampaignConfig, run_campaign

        for topology, routing in GEN_CELLS:
            label = f"{topology}/{routing}"
            cfg = CampaignConfig.tiny(
                days=GEN_DAYS, seed=self.seed, use_cache=False,
                topology=topology, routing=routing,
            )
            before = _counter("campaign.runs_solved")
            try:
                with clock.section(label):
                    camp = run_campaign(cfg)
                solved = _counter("campaign.runs_solved") - before
                problems = campaign_problems(camp, solved)
                for key in sorted(camp.datasets):
                    for r in camp[key].runs:
                        self.outcome.digest(label, key, r.start_time, r.step_times)
            except Exception:
                self.outcome.raised(label)
                continue
            self.outcome.check(label, problems)


class StreamAppend(Workload):
    name = STREAM
    modules = ("repro.campaign.streaming", "repro.experiments.stream_drift")

    def _stream(self, windows: int):
        from repro.campaign.runner import CampaignConfig
        from repro.campaign.streaming import StreamConfig

        return StreamConfig(
            base=CampaignConfig.tiny(seed=self.seed),
            windows=windows,
            window_days=STREAM_WINDOW_DAYS,
        )

    def prime(self) -> None:
        from repro.campaign.streaming import run_stream
        from repro.experiments.stream_drift import stream_drift

        self.fresh_cache()
        self.drop_memos()
        camp = run_stream(self._stream(STREAM_WINDOWS))
        stream_drift(camp, keys=list(STREAM_KEYS), fast=True)
        self.snapshot = Path(os.environ["REPRO_CACHE_DIR"])
        self.first: str | None = None

    def restore(self) -> None:
        """Point ``REPRO_CACHE_DIR`` at a fresh copy of the primed cache."""
        self._dirs += 1
        path = self.workdir / f"cache{self._dirs}"
        shutil.copytree(self.snapshot, path)
        os.environ["REPRO_CACHE_DIR"] = str(path)

    def unit(self, clock: Clock) -> None:
        from repro.campaign.streaming import run_stream
        from repro.experiments.stream_drift import (
            fresh_shard_fingerprints,
            incremental_violations,
            plan_stream_drift,
            stream_drift,
        )

        label = f"append w{STREAM_WINDOWS}"
        keys = list(STREAM_KEYS)
        self.restore()
        self.drop_memos()
        try:
            with clock.section("append window"):
                camp = run_stream(self._stream(STREAM_WINDOWS + 1))
            plans = plan_stream_drift(camp, keys=keys, fast=True)
            with clock.section("drift"):
                result = stream_drift(camp, keys=keys, fast=True)
            problems = incremental_violations(plans, fresh_shard_fingerprints(camp))
            reports = result.data["reports"]
            fresh = [reports[k].windows[-1].fresh_mean for k in keys]
            if not np.isfinite(fresh).all():
                problems.append("non-finite fresh MAPE")
            rendered = f"{camp.stream.fingerprint}\n{result.render()}"
        except Exception:
            self.outcome.raised(label)
            return
        if self.first is None:
            # Every unit repeats the same append: digest the first, compare the rest.
            self.first = rendered
            self.outcome.digest(label, rendered)
            self.quality["drift_fresh_mape_pct"] = float(np.mean(fresh))
        elif rendered != self.first:
            problems.append("output differs from the first append of the run")
        self.outcome.check(label, problems)


WORKLOADS = {w.name: w for w in (ColdPaper, CampaignGen, StreamAppend)}
