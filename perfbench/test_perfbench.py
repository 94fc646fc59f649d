"""Tests of the benchmark harness itself.

Run from the repository root with ``python -m pytest perfbench -q``.
"""

from __future__ import annotations

import itertools
import json
import math
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import run as bench  # noqa: E402
from tracer import Target, Tracer, install  # noqa: E402
from workloads import CampaignGen  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def private_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setenv("REPRO_WORKERS", "1")
    return tmp_path


class _Run:
    def __init__(self, steps):
        self.start_time = 0.0
        self.step_times = np.asarray(steps, dtype=float)


class _Dataset:
    def __init__(self, runs):
        self.runs = runs


class _Campaign:
    def __init__(self, datasets):
        self.datasets = datasets

    def __getitem__(self, key):
        return self.datasets[key]


def test_raising_operation_counts_as_failed(private_cache, monkeypatch):
    """One cell raises, one solves: half the operations fail."""
    import repro.campaign.runner as runner
    from repro.obs import METRICS

    def fake_run_campaign(cfg):
        if cfg.topology == "dragonfly":
            raise RuntimeError("injected failure")
        METRICS.counter("campaign.runs_solved").inc()
        return _Campaign({"AMG-128": _Dataset([_Run([1.0, 1.1])])})

    monkeypatch.setattr(runner, "run_campaign", fake_run_campaign)
    workload = CampaignGen(seed=1, workdir=private_cache)
    _, scaled = bench.measure(workload, 0, bench.Speed())
    metrics = bench.end_to_end(workload, setup_scaled=[0.1], unit_scaled=scaled)
    assert workload.outcome.attempted == 2
    assert workload.outcome.failed == 1
    assert metrics["ok_frac"] == 0.5


def test_failed_check_counts_as_failed(private_cache, monkeypatch):
    """An operation that returns but fails its output check is a failure."""
    import repro.campaign.runner as runner

    def empty_campaign(cfg):
        return _Campaign({"AMG-128": _Dataset([])})

    monkeypatch.setattr(runner, "run_campaign", empty_campaign)
    workload = CampaignGen(seed=1, workdir=private_cache)
    bench.measure(workload, 0, bench.Speed())
    assert (workload.outcome.attempted, workload.outcome.failed) == (2, 2)
    assert any("empty" in f for f in workload.outcome.failures)


class _FakeReference:
    def __init__(self, factors, delay=0.0):
        self.factors = iter(factors)
        self.delay = delay

    def sample(self):
        time.sleep(self.delay)
        return next(self.factors)


def test_each_wall_is_divided_by_the_mean_factor_around_it():
    """Walls 1 then 2 between factors 1 | 3 | 5 scale to 1/2 and 2/4."""
    from workloads import Workload

    class Fixed(Workload):
        name, modules = "fixed", ()
        units = iter([1.0, 2.0])

        def unit(self, clock):
            clock.seconds += next(self.units)

    speed = bench.Speed(_FakeReference([1.0, 3.0, 5.0]))
    workload = Fixed(1, Path("."))
    first = bench.measure(workload, 0, speed)
    second = bench.measure(workload, 0, speed)
    assert (first, second) == (([1.0], [0.5]), ([2.0], [0.5]))
    assert speed.factors == [1.0, 3.0, 5.0]


def test_long_unit_is_sampled_inside_and_the_pauses_are_not_timed(monkeypatch):
    """A 0.4 s section with a sample every 0.05 s: pauses leave the wall, factors average."""
    from workloads import Workload

    class Busy(Workload):
        name, modules = "busy", ()

        def unit(self, clock):
            with clock.section("busy"):
                t_end = time.perf_counter() + 0.4
                while time.perf_counter() < t_end:
                    pass

    monkeypatch.setattr(bench, "INNER_INTERVAL_S", 0.05)
    speed = bench.Speed(_FakeReference(itertools.count(1.0), delay=0.01))
    walls, scaled = bench.measure(Busy(1, Path(".")), 0, speed)
    assert len(speed.factors) >= 5  # before, after and at least three inside
    assert speed.paused >= 0.03
    # The section ends at its deadline, or after a sample that straddles it.
    assert 0.4 - 0.005 <= walls[0] + speed.paused <= 0.4 + 0.01 + 0.005
    assert scaled[0] == pytest.approx(walls[0] / statistics.mean(speed.factors))


def test_reference_kernel_child_samples_and_exits():
    from reference import Reference

    with Reference() as ref:
        factors = [ref.sample(), ref.sample()]
        proc = ref.proc
    assert all(0 < f < 100 for f in factors)
    assert proc.returncode == 0


def test_self_times_sum_to_root_wall():
    tracer = Tracer()

    def leaf():
        time.sleep(0.002)

    def middle():
        time.sleep(0.001)
        leaf_w()
        leaf_w()

    leaf_w = tracer.wrap(leaf, "leaf", "network")
    middle_w = tracer.wrap(middle, "middle", "campaign")
    for _ in range(3):
        with tracer.root("unit"):
            middle_w()
            time.sleep(0.001)
    by_layer = tracer.self_by_layer()
    assert set(by_layer) == {"unattributed", "campaign", "network"}
    assert math.isclose(sum(by_layer.values()), tracer.root_wall(), rel_tol=1e-12)
    assert by_layer["network"] >= 6 * 0.002
    assert tracer.calls == {"leaf": 6, "middle": 3}


def test_calls_outside_timed_sections_are_not_recorded():
    tracer = Tracer()
    wrapped = tracer.wrap(lambda: 1, "f", "ml")
    assert wrapped() == 1
    assert len(tracer) == 0 and tracer.calls["f"] == 0


def test_traced_campaign_sums_to_root_wall(private_cache):
    """The real layer table over a short campaign: self times add up."""
    from repro.campaign.runner import CampaignConfig, run_campaign
    from repro.obs import METRICS

    tracer = Tracer()
    uninstall = install(tracer, layers.TARGETS)
    METRICS.reset()
    try:
        with tracer.root("unit"):
            run_campaign(CampaignConfig.tiny(days=2, use_cache=False))
    finally:
        uninstall()
    metrics = layers.layer_metrics(tracer, METRICS.snapshot(), wrapper_cost_s=0.0)
    parts = [metrics[f"{layer}.self_s"] for layer in layers.LAYERS]
    total = sum(parts) + metrics["unattributed.self_s"]
    assert math.isclose(total, tracer.root_wall(), rel_tol=1e-9)
    assert metrics["campaign.steps_solved"] > 0
    assert metrics["topology.route.calls"] > 0
    assert layers.idle_calls(tracer, layers.GEN) == []


def test_install_wraps_every_binding_site_and_restores():
    import repro.analysis.deviation as deviation
    import repro.ml as ml
    import repro.ml.rfe as rfe

    original = rfe.relevance_scores
    tracer = Tracer()
    uninstall = install(tracer, [Target("ml", "repro.ml.rfe:relevance_scores", frozenset())])
    try:
        assert deviation.relevance_scores is rfe.relevance_scores is ml.relevance_scores
        assert rfe.relevance_scores is not original
    finally:
        uninstall()
    assert deviation.relevance_scores is rfe.relevance_scores is original


def test_metric_tables_match_benchmark_json():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == bench.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == layers.PER_LAYER_UNITS
    from workloads import WORKLOADS

    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_cli_prints_every_metric_with_its_unit(trace, section):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "stream_append",
         "--seed", "3", "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cold_paper",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
