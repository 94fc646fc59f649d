"""Perf-regression harness: timed figure drivers across worker counts.

Emits one ``BENCH_<name>.json`` per benched driver with the wall time at
every requested worker count, a machine calibration factor, and the
dataset fingerprint — the file committed under ``benchmarks/baselines/``
is the regression reference that :mod:`benchmarks.compare_bench` gates CI
against.

Wall times are not portable across machines, so each run also times a
fixed single-core calibration workload (histogram scans in plain NumPy,
independent of the code under test) and
reports ``normalized_wall = wall / calibration``.  The CI gate compares
*normalized* serial walls, which cancels raw CPU speed; the measured
multi-worker speedup is recorded for information (it depends on the
runner's core count and is not gated).

Usage::

    PYTHONPATH=src python -m benchmarks.perf_harness --fast \
        --bench fig09 --workers 1,4 --out benchmarks/baselines

The campaign is generated (or loaded from the disk cache) once before
timing, and the per-dataset feature caches are cleared before every timed
run so each worker-count configuration is measured cold-for-cold.
"""

from __future__ import annotations

import argparse
import json
import os
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.campaign.runner import run_campaign
from repro.experiments import PAPER_EXPERIMENTS, run_experiment, run_experiments
from repro.experiments.context import experiment_config
from repro.features import clear_feature_caches
from repro.parallel import shutdown_pool

#: Drivers worth gating: the RFE sweep (fig09), both ablation grids
#: (fig08/fig10), the per-dataset MI table (table03), the warm second
#: `all` pass (the stage graph's near-pure cache read), cold campaign
#: generation on a non-default (topology, routing) cell, the streaming
#: append (one-window generation + shard-scoped retrain), and the ML
#: layer alone on synthetic input (tree, GBR, one RFE fold; attention
#: forecaster fits).
BENCHES = [
    "fig09", "fig08", "fig10", "table03",
    "warm_all", "campaign_cold", "stream_append", "ml_tree", "ml_attention",
]

#: The cell ``campaign_cold`` generates on.  Pinned off the default so
#: the scenario times the registry-built path (Dragonfly+ geometry +
#: pinned-Valiant solve) and never touches the shared default cache.
CAMPAIGN_COLD_CELL = ("df+", "valiant")


#: Passes of the calibration scan (~0.1 s on a 2-vCPU Xeon host).
_CALIBRATION_REPS = 420


def calibrate() -> float:
    """Seconds for a fixed single-core NumPy workload (machine speed unit).

    Per-feature histogram scans over fixed random codes: the small-array
    NumPy call mix the ML layer spends its time in, written out here
    instead of calling :mod:`repro` so that speeding up the code under
    test never shrinks the unit it is measured in.  Best of three passes
    damps one-off scheduler noise.
    """
    rng = np.random.default_rng(0)
    codes = rng.integers(0, 64, size=(2000, 12))
    y = rng.normal(size=2000)
    best = np.inf
    for _ in range(3):
        t0 = time.perf_counter()
        for rep in range(_CALIBRATION_REPS):
            rows = slice(rep % 500, None)
            for f in range(codes.shape[1]):
                cnt = np.bincount(codes[rows, f], minlength=64)
                sm = np.bincount(codes[rows, f], weights=y[rows], minlength=64)
                c_cnt = np.cumsum(cnt)[:-1]
                gain = np.cumsum(sm)[:-1] ** 2 / np.maximum(c_cnt, 1)
                np.argmax(gain)
        best = min(best, time.perf_counter() - t0)
    return best


def timed_run(name: str, campaign, fast: bool, workers: int) -> float:
    """One cold timed driver run at a fixed worker count."""
    clear_feature_caches()
    shutdown_pool()  # pool spin-up cost is part of the configuration
    os.environ["REPRO_WORKERS"] = str(workers)
    # Cold means cold: the stage artifact store must not serve a
    # previous configuration's results into a timed run.
    os.environ["REPRO_ARTIFACT_CACHE"] = "0"
    try:
        t0 = time.perf_counter()
        run_experiment(name, campaign=campaign, fast=fast)
        return time.perf_counter() - t0
    finally:
        os.environ.pop("REPRO_WORKERS", None)
        os.environ.pop("REPRO_ARTIFACT_CACHE", None)


def bench_warm_all(campaign, fast: bool, fingerprint: str) -> dict:
    """Time warm `all` passes against a freshly primed artifact store.

    One cold pass primes a private store (not timed), then each timed
    pass replays every paper experiment as a pure cache read — the
    number CI gates so stage resolution/loading never silently regresses
    into recomputation.  Warm walls are milliseconds, so the committed
    baseline carries a wide ``tolerance`` band.
    """
    calibration = calibrate()
    runs = []
    ids = sorted(PAPER_EXPERIMENTS)
    with tempfile.TemporaryDirectory(prefix="repro-warmbench-") as cache_dir:
        os.environ["REPRO_ARTIFACT_CACHE"] = "1"
        os.environ["REPRO_CACHE_DIR"] = cache_dir
        try:
            run_experiments(ids, campaign=campaign, fast=fast)  # prime
            for i in range(3):
                t0 = time.perf_counter()
                run_experiments(ids, campaign=campaign, fast=fast)
                wall = time.perf_counter() - t0
                runs.append(
                    {
                        "pass": i + 1,
                        "wall_s": round(wall, 4),
                        "normalized_wall": round(wall / calibration, 4),
                    }
                )
                print(f"  warm_all pass {i + 1}: {wall:.3f}s "
                      f"({wall / calibration:.2f}x calibration)")
        finally:
            os.environ.pop("REPRO_ARTIFACT_CACHE", None)
            os.environ.pop("REPRO_CACHE_DIR", None)
    best = min(r["normalized_wall"] for r in runs)
    return {
        "name": "warm_all",
        "mode": "fast" if fast else "full",
        "dataset_fingerprint": fingerprint,
        "cpu_count": os.cpu_count(),
        "calibration_s": round(calibration, 4),
        "experiments": len(ids),
        "runs": runs,
        "serial_normalized_wall": best,
        # Millisecond-scale walls jitter far more than minutes-long
        # drivers; the regression this gates (a warm pass recomputing
        # stages) is orders of magnitude over any plausible band.
        "tolerance": 3.0,
    }


def bench_campaign_cold(fast: bool, worker_counts: list[int]) -> dict:
    """Time cold campaign generation on :data:`CAMPAIGN_COLD_CELL`.

    ``use_cache=False`` keeps every timed run a full generation (no disk
    reads or writes), so the number tracks the scheduler + routing +
    congestion-solve pipeline itself — on the non-default cell, where a
    geometry or registry regression would not be masked by the
    default-cell caches the other scenarios lean on.
    """
    import dataclasses

    from repro.campaign.runner import run_campaign as gen

    topology, routing = CAMPAIGN_COLD_CELL
    cfg = dataclasses.replace(
        experiment_config(fast),
        topology=topology,
        routing=routing,
        use_cache=False,
    )
    fingerprint = cfg.fingerprint()
    calibration = calibrate()

    def one_timed_gen(workers: int) -> float:
        shutdown_pool()
        os.environ["REPRO_WORKERS"] = str(workers)
        try:
            t0 = time.perf_counter()
            gen(cfg)
            return time.perf_counter() - t0
        finally:
            os.environ.pop("REPRO_WORKERS", None)

    runs = []
    for workers in worker_counts:
        wall = one_timed_gen(workers)
        runs.append(
            {
                "workers": workers,
                "wall_s": round(wall, 4),
                "normalized_wall": round(wall / calibration, 4),
            }
        )
        print(f"  campaign_cold workers={workers}: {wall:.2f}s "
              f"({wall / calibration:.1f}x calibration)")

    serial = next((r for r in runs if r["workers"] == 1), runs[0])
    fastest = min(runs, key=lambda r: r["wall_s"])
    return {
        "name": "campaign_cold",
        "mode": "fast" if fast else "full",
        "cell": f"{topology}/{routing}",
        "dataset_fingerprint": fingerprint,
        "cpu_count": os.cpu_count(),
        "calibration_s": round(calibration, 4),
        "runs": runs,
        "serial_normalized_wall": serial["normalized_wall"],
        "best_speedup_vs_serial": round(
            serial["wall_s"] / fastest["wall_s"], 3
        ),
        "best_speedup_workers": fastest["workers"],
    }


def _time_synthetic(name: str, fingerprint: str, parts: dict) -> dict:
    """Time each ``(fn, batch)`` part of a synthetic-input scenario.

    ``fn`` runs ``batch`` times per sample (sub-ms calls are timed in
    batches and reported per call) after one untimed warm-up call; five
    samples give the median with the min/max spread, and the gated wall
    is the sum of the medians.
    """
    repeats = 5
    calibration = calibrate()
    out = {}
    for part, (fn, batch) in parts.items():
        fn()  # warm-up: imports and first-call allocations
        samples = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            for _ in range(batch):
                fn()
            samples.append((time.perf_counter() - t0) / batch)
        med = float(np.median(samples))
        out[part] = {
            "wall_s": round(med, 6),
            "min_s": round(min(samples), 6),
            "max_s": round(max(samples), 6),
            "normalized_wall": round(med / calibration, 4),
        }
        print(f"  {name} {part}: {med * 1e3:.2f} ms "
              f"[{min(samples) * 1e3:.2f}, {max(samples) * 1e3:.2f}] "
              f"({med / calibration:.3f}x calibration)")
    return {
        "name": name,
        "mode": "synthetic",
        "dataset_fingerprint": fingerprint,
        "cpu_count": os.cpu_count(),
        "calibration_s": round(calibration, 4),
        "repeats": repeats,
        "parts": out,
        "serial_normalized_wall": round(
            sum(p["normalized_wall"] for p in out.values()), 4
        ),
    }


#: Rows x features of the ml_tree input: one 10-fold train split of the
#: 600-sample fast Fig. 9 draw over the 13 app counters.
ML_TREE_SHAPE = (540, 13)


def bench_ml_tree() -> dict:
    """Time the ML layer alone: tree fit, GBR fit, one RFE fold.

    A fixed synthetic input of the fast Fig. 9 shape, so the number
    moves only when ``ml/tree.py``/``gbr.py``/``rfe.py`` do — the
    driver benches mix campaign, features and render into theirs.
    Each part is timed five times; the median is reported with the
    min/max spread, and the gated wall is the sum of the medians.
    """
    from repro.ml.gbr import GradientBoostedRegressor
    from repro.ml.rfe import _fold_relevance, default_estimator
    from repro.ml.tree import Binner, DecisionTreeRegressor

    n, h = ML_TREE_SHAPE
    rng = np.random.default_rng(0)
    x = rng.normal(size=(n + 60, h))  # 60 held-out rows: 10 folds of 600
    y = x[:, 0] - 2.0 * x[:, 5] + 0.5 * x[:, 8] ** 2 + rng.normal(scale=0.3, size=len(x))
    xtr, ytr, xte, yte = x[:n], y[:n], x[n:], y[n:]
    binner = Binner(64).fit(xtr)
    codes = binner.transform(xtr)
    # (callable, fits per timed sample): single trees are sub-ms, so
    # they are timed in batches and reported per fit.
    parts = {
        "tree_fit": (lambda: DecisionTreeRegressor().fit_binned(codes, ytr), 100),
        "gbr_fit": (
            lambda: GradientBoostedRegressor(n_estimators=60).fit_binned(
                codes, ytr, binner
            ),
            3,
        ),
        "rfe_fold": (
            lambda: _fold_relevance(xtr, ytr, xte, yte, None, default_estimator, 0),
            1,
        ),
    }
    return _time_synthetic("ml_tree", f"synthetic-{n}x{h}-seed0", parts)


#: Window shapes (windows, steps, counters) of the ml_attention input:
#: the largest Fig. 8/10 fast-grid cell and the smallest.
ML_ATTENTION_SHAPES = ((93, 30, 23), (9, 3, 13))


def bench_ml_attention() -> dict:
    """Time the attention forecaster alone: one ``fast_forecaster`` fit
    per fast-grid window shape, on fixed synthetic windows.

    Like ``ml_tree``, the number moves only when ``ml/attention.py`` or
    ``ml/nn.py`` do.
    """
    from repro.experiments._forecast_common import fast_forecaster

    rng = np.random.default_rng(0)
    parts = {}
    for shape in ML_ATTENTION_SHAPES:
        # Counter-like scales: channels spanning six orders of magnitude.
        x = rng.normal(size=shape) * np.geomspace(1.0, 1e6, shape[2])
        y = 50.0 + x[:, -1, 0] + rng.normal(size=shape[0])
        # Default arguments bind this shape's windows now, not at call
        # time; the small fit is timed in batches of ten.
        parts["fit_" + "x".join(map(str, shape))] = (
            lambda x=x, y=y: fast_forecaster().fit(x, y),
            1 if shape[0] > 50 else 10,
        )
    shapes = "+".join("x".join(map(str, s)) for s in ML_ATTENTION_SHAPES)
    return _time_synthetic("ml_attention", f"synthetic-{shapes}-seed0", parts)


#: Datasets the stream_append scenario retrains on — two suffice to
#: exercise the multi-key append path without tripling the drift cost.
STREAM_APPEND_KEYS = ["AMG-128", "MILC-128"]


def bench_stream_append(fast: bool) -> dict:
    """Time one-window appends against a primed streamed campaign.

    Primes a two-window stream (generation + drift training, not timed)
    into a private cache, then times consecutive appends: each timed
    pass adds exactly one window, so the wall is one window's campaign
    generation plus the shard-scoped drift stages (train + eval on the
    new shard, reduce, render) — the incremental-append cost the
    streaming refactor gates.  A regression here means an append started
    recomputing old shards (the ``stream-append`` CI job catches the
    correctness side; this catches the wall).
    """
    from repro.campaign.streaming import StreamConfig, run_stream
    from repro.experiments.stream_drift import stream_drift

    calibration = calibrate()
    base = experiment_config(fast)
    window_days = 2.0
    primed, appends = 2, 3
    runs = []
    with tempfile.TemporaryDirectory(prefix="repro-streambench-") as cache_dir:
        os.environ["REPRO_ARTIFACT_CACHE"] = "1"
        os.environ["REPRO_CACHE_DIR"] = cache_dir
        os.environ["REPRO_WORKERS"] = "1"
        try:
            camp = run_stream(
                StreamConfig(base=base, windows=primed, window_days=window_days)
            )
            stream_drift(camp, keys=STREAM_APPEND_KEYS, fast=fast)  # prime
            for i in range(appends):
                windows = primed + 1 + i
                clear_feature_caches()  # in-memory warmth is not an append
                shutdown_pool()
                t0 = time.perf_counter()
                camp = run_stream(
                    StreamConfig(
                        base=base, windows=windows, window_days=window_days
                    )
                )
                stream_drift(camp, keys=STREAM_APPEND_KEYS, fast=fast)
                wall = time.perf_counter() - t0
                runs.append(
                    {
                        "windows": windows,
                        "wall_s": round(wall, 4),
                        "normalized_wall": round(wall / calibration, 4),
                    }
                )
                print(f"  stream_append -> windows={windows}: {wall:.2f}s "
                      f"({wall / calibration:.2f}x calibration)")
            fingerprint = camp.stream.fingerprint
        finally:
            os.environ.pop("REPRO_ARTIFACT_CACHE", None)
            os.environ.pop("REPRO_CACHE_DIR", None)
            os.environ.pop("REPRO_WORKERS", None)
    best = min(r["normalized_wall"] for r in runs)
    return {
        "name": "stream_append",
        "mode": "fast" if fast else "full",
        "dataset_fingerprint": fingerprint,
        "cpu_count": os.cpu_count(),
        "calibration_s": round(calibration, 4),
        "keys": STREAM_APPEND_KEYS,
        "window_days": window_days,
        "runs": runs,
        "serial_normalized_wall": best,
        # Append walls are seconds-scale and dominated by one window's
        # generation; give them more slack than the minutes-long drivers.
        "tolerance": 0.5,
    }


def bench_profile(campaign, fast: bool, fingerprint: str, out_dir: Path) -> dict:
    """One profiled cold ``all`` pass -> ``PROFILE_all_fast.json``.

    Runs every paper experiment serially with ``REPRO_PROFILE=1`` and
    the artifact store off (cold-for-cold, like the timed benches),
    aggregates the trace into per-stage resource records, and
    normalizes stage walls by the calibration factor so the committed
    baseline is machine-speed independent — ``python -m repro.obs
    diff`` gates against exactly this file.  The raw ``profile.json``
    and a chrome-trace export land in ``out_dir`` for CI upload.
    """
    import shutil

    from repro.obs import trace as obs_trace
    from repro.obs.export import export_trace
    from repro.obs.report import load_trace

    calibration = calibrate()
    ids = sorted(PAPER_EXPERIMENTS)
    clear_feature_caches()
    shutdown_pool()
    with tempfile.TemporaryDirectory(prefix="repro-profile-") as tmp:
        trace_path = Path(tmp) / "profile-all.jsonl"
        os.environ["REPRO_PROFILE"] = "1"
        os.environ["REPRO_WORKERS"] = "1"
        os.environ["REPRO_ARTIFACT_CACHE"] = "0"
        try:
            obs_trace.end_run()  # a clean sink for exactly this run
            obs_trace.start_run("profile-all", path=trace_path)
            t0 = time.perf_counter()
            run_experiments(ids, campaign=campaign, fast=fast)
            wall = time.perf_counter() - t0
            obs_trace.end_run()  # flushes metrics + writes profile.json
        finally:
            os.environ.pop("REPRO_PROFILE", None)
            os.environ.pop("REPRO_WORKERS", None)
            os.environ.pop("REPRO_ARTIFACT_CACHE", None)
        profile_path = trace_path.with_name("profile-all.profile.json")
        prof = json.loads(profile_path.read_text(encoding="utf-8"))
        shutil.copy(profile_path, out_dir / "profile.json")
        export_trace(
            load_trace(trace_path), "chrome-trace",
            out_dir / "profile.chrome.json",
        )
    print(f"  profile_all: {wall:.2f}s over {len(ids)} experiments "
          f"({wall / calibration:.1f}x calibration)")

    stages = {}
    for key, rec in prof["stages"].items():
        cpu = rec["cpu_user"] + rec["cpu_sys"]
        stages[key] = {
            "calls": rec["calls"],
            "status": rec["status"],
            "wall_s": round(rec["wall"], 4),
            "normalized_wall": round(rec["wall"] / calibration, 4),
            "cpu_s": round(cpu, 4),
            "normalized_cpu": round(cpu / calibration, 4),
            "maxrss_kb": rec["maxrss_kb"],
        }
    return {
        "name": "profile_all",
        "mode": "fast" if fast else "full",
        "dataset_fingerprint": fingerprint,
        "cpu_count": os.cpu_count(),
        "calibration_s": round(calibration, 4),
        "experiments": len(ids),
        "wall_s": round(wall, 4),
        "normalized_wall": round(wall / calibration, 4),
        "stages": stages,
    }


def bench_one(
    name: str, campaign, fast: bool, worker_counts: list[int], fingerprint: str
) -> dict:
    calibration = calibrate()
    runs = []
    for workers in worker_counts:
        wall = timed_run(name, campaign, fast, workers)
        runs.append(
            {
                "workers": workers,
                "wall_s": round(wall, 4),
                "normalized_wall": round(wall / calibration, 4),
            }
        )
        print(f"  {name} workers={workers}: {wall:.2f}s "
              f"({wall / calibration:.1f}x calibration)")
    serial = next((r for r in runs if r["workers"] == 1), runs[0])
    fastest = min(runs, key=lambda r: r["wall_s"])
    return {
        "name": name,
        "mode": "fast" if fast else "full",
        "dataset_fingerprint": fingerprint,
        "cpu_count": os.cpu_count(),
        "calibration_s": round(calibration, 4),
        "runs": runs,
        "serial_normalized_wall": serial["normalized_wall"],
        "best_speedup_vs_serial": round(
            serial["wall_s"] / fastest["wall_s"], 3
        ),
        "best_speedup_workers": fastest["workers"],
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--bench", action="append", choices=BENCHES,
                    help="driver(s) to time (default: all)")
    ap.add_argument("--workers", default="1,4",
                    help="comma-separated worker counts to sweep")
    ap.add_argument("--fast", action="store_true",
                    help="test-scale campaign (the CI smoke configuration)")
    ap.add_argument("--out", default="benchmarks",
                    help="directory for BENCH_<name>.json files")
    ap.add_argument("--profile", action="store_true",
                    help="run one profiled cold `all` pass and emit "
                    "PROFILE_all_<mode>.json (the obs diff baseline) "
                    "instead of the timed benches")
    args = ap.parse_args(argv)

    worker_counts = [int(w) for w in args.workers.split(",")]
    # --profile replaces the timed benches unless some were named.
    benches = args.bench or ([] if args.profile else BENCHES)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    cfg = experiment_config(args.fast)
    fingerprint = cfg.fingerprint()
    print(f"campaign {fingerprint} (mode={'fast' if args.fast else 'full'}, "
          f"cpu_count={os.cpu_count()})")
    # campaign_cold and stream_append generate their own campaigns and
    # the ml_* scenarios need none; don't pay for the default one unless
    # another scenario needs it.
    campaign = (
        run_campaign(cfg, progress=True)
        if args.profile
        or set(benches) - {"campaign_cold", "stream_append", "ml_tree", "ml_attention"}
        else None
    )

    if args.profile:
        result = bench_profile(campaign, args.fast, fingerprint, out_dir)
        mode = "fast" if args.fast else "full"
        path = out_dir / f"PROFILE_all_{mode}.json"
        path.write_text(json.dumps(result, indent=2) + "\n")
        print(f"  wrote {path}")

    for name in benches:
        if name == "campaign_cold":
            result = bench_campaign_cold(args.fast, worker_counts)
        elif name == "stream_append":
            result = bench_stream_append(args.fast)
        elif name == "ml_tree":
            result = bench_ml_tree()
        elif name == "ml_attention":
            result = bench_ml_attention()
        elif name == "warm_all":
            result = bench_warm_all(campaign, args.fast, fingerprint)
        else:
            # Warm pass: campaign-independent one-time costs (imports, disk
            # cache materialisation) land here, not in the timed runs.
            timed_run(name, campaign, args.fast, workers=1)
            result = bench_one(
                name, campaign, args.fast, worker_counts, fingerprint
            )
        path = out_dir / f"BENCH_{name}.json"
        path.write_text(json.dumps(result, indent=2) + "\n")
        print(f"  wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
