"""The layer table: which public calls are wrapped, and the per-layer metrics.

Each :class:`tracer.Target` names one public call of a
``repro`` package, the layer its span is charged to, and the workloads
on which it must run (the coverage check).  :func:`layer_metrics` turns
a finished trace plus the program's own ``METRICS`` registry into the
per-layer metrics listed in ``BENCHMARK.json``.
"""

from __future__ import annotations

from tracer import ROOT_LAYER, Target, Tracer
from workloads import COLD, GEN, STREAM

ALL = frozenset({COLD, GEN, STREAM})  # every workload generates probe runs
PAPER = frozenset({COLD})
GRAPH = frozenset({COLD, STREAM})
NONE = frozenset()


def _flows(counts, args, out) -> None:
    counts["topology.route.flows"] += len(args[1])


def _jobs(counts, args, out) -> None:
    counts["system.jobs_scheduled"] += len(out.jobs)


def _steps(counts, args, out) -> None:
    counts["campaign.steps_solved"] += len(args[2])


def _nodes(counts, args, out) -> None:
    counts["ml.tree.nodes"] += out.node_count


def _saved_bytes(counts, args, out) -> None:
    if out:
        store, group, fingerprint = args[:3]
        counts["graph.store.save_bytes"] += store.path(group, fingerprint).stat().st_size


def _t(layer, path, runs_on, hook=None, task_arg=None) -> Target:
    return Target(layer, path, frozenset(runs_on), hook, task_arg)


TARGETS: tuple[Target, ...] = (
    _t("topology", "repro.topology.routing:AdaptiveRouter.route", ALL, _flows),
    _t("topology", "repro.topology.dragonfly_plus:DragonflyPlusRouter.route", {GEN}, _flows),
    _t("topology", "repro.topology.placement:placement_features", ALL),
    _t("network", "repro.network.engine:CongestionEngine.route", ALL),
    _t("network", "repro.network.counters:synthesize_router_counters_block", ALL),
    _t("network", "repro.network.ldms:LDMSSampler.sample_steps", ALL),
    _t("network", "repro.network.counters:aggregate_counters", NONE),
    _t("system", "repro.system.scheduler:Scheduler.schedule", ALL, _jobs),
    _t("system", "repro.system.workload:BackgroundWorkloadGenerator.generate", ALL),
    _t("telemetry", "repro.telemetry.ariesncl:AriesNCL.record_steps", ALL),
    _t("telemetry", "repro.telemetry.sacct:SacctLog.neighborhood_users", ALL),
    _t("campaign", "repro.campaign.runner:run_campaign", ALL),
    _t("campaign", "repro.campaign.streaming:run_stream", {STREAM}),
    _t("campaign", "repro.campaign.runner:ProbeRunContext.solve_steps", ALL, _steps),
    _t(
        "campaign",
        "repro.campaign.runner:BackgroundTrafficModel.contributions_for_batch",
        ALL,
    ),
    _t("campaign", "repro.campaign.datasets:Campaign.save", GRAPH),
    _t("campaign", "repro.campaign.datasets:Campaign.load", GRAPH),
    _t("features", "repro.features.store:FeatureStore.features", GRAPH),
    _t("features", "repro.features.store:FeatureStore.mean_centered", PAPER),
    _t("features", "repro.features.store:FeatureStore.flat_mean_centered", PAPER),
    _t("features", "repro.features.store:FeatureStore.windows", GRAPH),
    _t("features", "repro.features.store:FeatureStore.channel_windows", NONE),
    _t("ml", "repro.ml.rfe:relevance_scores", PAPER),
    _t("ml", "repro.ml.gbr:GradientBoostedRegressor.fit", NONE),
    _t("ml", "repro.ml.gbr:GradientBoostedRegressor.fit_binned", PAPER),
    _t("ml", "repro.ml.gbr:GradientBoostedRegressor.predict_binned", PAPER),
    _t("ml", "repro.ml.tree:DecisionTreeRegressor.fit_binned", PAPER, _nodes),
    _t("ml", "repro.ml.attention:AttentionForecaster.fit", GRAPH),
    _t("ml", "repro.ml.attention:AttentionForecaster.predict", GRAPH),
    _t("ml", "repro.ml.mi:mutual_information_binary", PAPER),
    _t("analysis", "repro.analysis.deviation:deviation_analysis", PAPER),
    _t("analysis", "repro.analysis.forecasting:ablation_grid", NONE),
    _t("analysis", "repro.analysis.forecasting:fit_forecaster", GRAPH),
    _t("analysis", "repro.analysis.forecasting:long_run_forecast", NONE),
    _t("analysis", "repro.analysis.neighborhood:correlated_users_table", NONE),
    _t("graph", "repro.graph.scheduler:GraphRunner.run", GRAPH),
    _t("graph", "repro.graph.scheduler:GraphRunner.plan", NONE),
    _t("graph", "repro.graph.store:ArtifactStore.load", GRAPH),
    _t("graph", "repro.graph.store:ArtifactStore.save", GRAPH, _saved_bytes),
    _t("parallel", "repro.parallel:WorkerPool.submit", ALL, task_arg=1),
    _t("parallel", "repro.parallel:parallel_map", PAPER, task_arg=0),
    _t("experiments", "repro.experiments:run_experiments", PAPER),
    _t("experiments", "repro.experiments.stream_drift:stream_drift", {STREAM}),
)

#: Layers predicted to do no work on a workload; any call there fails the run.
IDLE_LAYERS = {GEN: frozenset({"features", "ml", "analysis", "graph", "experiments"})}

LAYERS = (
    "topology", "network", "system", "telemetry", "campaign", "features",
    "ml", "analysis", "graph", "parallel", "experiments",
)

#: Per-layer metric -> unit, in the order ``BENCHMARK.json`` lists them.
PER_LAYER_UNITS: dict[str, str] = {
    "topology.route.calls": "count",
    "topology.route.flows": "count",
    "topology.self_s": "s",
    "network.calls": "count",
    "network.self_s": "s",
    "system.jobs_scheduled": "count",
    "system.self_s": "s",
    "telemetry.self_s": "s",
    "campaign.runs_solved": "count",
    "campaign.steps_solved": "count",
    "campaign.solve_steps.self_s": "s",
    "campaign.bg_contrib.self_s": "s",
    "campaign.cache.hit_ratio": "ratio",
    "campaign.cache.load_s": "s",
    "campaign.cache.save_s": "s",
    "campaign.self_s": "s",
    "features.calls": "count",
    "features.self_s": "s",
    "features.cache.hit_ratio": "ratio",
    "features.append.hit_ratio": "ratio",
    "ml.rfe.self_s": "s",
    "ml.gbr.fits": "count",
    "ml.tree.fits": "count",
    "ml.tree.nodes": "count",
    "ml.tree.self_s": "s",
    "ml.attention.fits": "count",
    "ml.attention.self_s": "s",
    "ml.pipeline.fits": "count",
    "ml.self_s": "s",
    "analysis.self_s": "s",
    "graph.stage.run": "count",
    "graph.stage.hit": "count",
    "graph.stage.hit_ratio": "ratio",
    "graph.store.load.calls": "count",
    "graph.store.load_s": "s",
    "graph.store.save.calls": "count",
    "graph.store.save_s": "s",
    "graph.store.save_bytes": "bytes",
    "graph.self_s": "s",
    "parallel.tasks": "count",
    "parallel.self_s": "s",
    "experiments.self_s": "s",
    "unattributed.self_s": "s",
    "trace.overhead_frac": "ratio",
    # Science outputs, fixed for a given seed (0 where a workload has none).
    "fig09_mape_max_pct": "%",
    "fig10_mape_pct": "%",
    "table03_recovery": "ratio",
    "drift_fresh_mape_pct": "%",
}

#: Per-layer names that carry a workload's science outputs.
QUALITY = ("fig09_mape_max_pct", "fig10_mape_pct", "table03_recovery", "drift_fresh_mape_pct")


def idle_calls(tracer: Tracer, workload: str) -> list[str]:
    """Targets in a layer predicted idle on ``workload`` that were called."""
    idle = IDLE_LAYERS.get(workload, frozenset())
    return [t.path for t in TARGETS if t.layer in idle and tracer.calls[t.name]]


def _ratio(hits: float, misses: float) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def _calls(tracer: Tracer, layer: str) -> int:
    return sum(tracer.calls[t.name] for t in TARGETS if t.layer == layer)


def layer_metrics(
    tracer: Tracer, registry: dict, wrapper_cost_s: float, quality: dict | None = None
) -> dict:
    """Per-layer metrics from a finished trace and a ``METRICS`` snapshot.

    ``registry`` maps counter names to values (``METRICS.snapshot()``
    after a reset at the start of the timed section).  Tracing overhead
    is estimated from the measured cost of one wrapped call.  ``quality``
    holds the workload's science outputs.
    """
    counter = lambda name: float(registry.get(name, 0))  # noqa: E731
    layer_self = tracer.self_by_layer()
    name_self = tracer.self_by_name()
    name_total = tracer.total_by_name()
    calls = tracer.calls
    root = tracer.root_wall()
    wrapped_calls = sum(calls.values())
    overhead = wrapped_calls * wrapper_cost_s
    out = {f"{layer}.self_s": layer_self.get(layer, 0.0) for layer in LAYERS}
    out.update({
        "topology.route.calls": calls["AdaptiveRouter.route"]
        + calls["DragonflyPlusRouter.route"],
        "topology.route.flows": tracer.counts["topology.route.flows"],
        "network.calls": _calls(tracer, "network"),
        "system.jobs_scheduled": tracer.counts["system.jobs_scheduled"],
        "campaign.runs_solved": counter("campaign.runs_solved"),
        "campaign.steps_solved": tracer.counts["campaign.steps_solved"],
        "campaign.solve_steps.self_s": name_self.get("ProbeRunContext.solve_steps", 0.0),
        "campaign.bg_contrib.self_s": name_self.get(
            "BackgroundTrafficModel.contributions_for_batch", 0.0
        ),
        "campaign.cache.hit_ratio": _ratio(
            counter("campaign.cache.hits"), counter("campaign.cache.misses")
        ),
        "campaign.cache.load_s": name_total.get("Campaign.load", 0.0),
        "campaign.cache.save_s": name_total.get("Campaign.save", 0.0),
        "features.calls": _calls(tracer, "features"),
        "features.cache.hit_ratio": _ratio(
            counter("features.cache.hits") + counter("features.cache.disk_hits"),
            counter("features.cache.misses"),
        ),
        "features.append.hit_ratio": _ratio(
            counter("features.append.hit"), counter("features.append.miss")
        ),
        # RFE's own Python: the sweep and its fold tasks, minus the fits.
        "ml.rfe.self_s": name_self.get("relevance_scores", 0.0)
        + name_self.get("task:_fold_relevance", 0.0),
        "ml.gbr.fits": calls["GradientBoostedRegressor.fit_binned"],
        "ml.tree.fits": calls["DecisionTreeRegressor.fit_binned"],
        "ml.tree.nodes": tracer.counts["ml.tree.nodes"],
        "ml.tree.self_s": name_self.get("DecisionTreeRegressor.fit_binned", 0.0),
        "ml.attention.fits": calls["AttentionForecaster.fit"],
        "ml.attention.self_s": name_self.get("AttentionForecaster.fit", 0.0)
        + name_self.get("AttentionForecaster.predict", 0.0),
        "ml.pipeline.fits": counter("ml.pipeline.fits"),
        "graph.stage.run": counter("graph.stage.run"),
        "graph.stage.hit": counter("graph.stage.hit"),
        "graph.stage.hit_ratio": _ratio(
            counter("graph.stage.hit"), counter("graph.stage.miss")
        ),
        "graph.store.load.calls": calls["ArtifactStore.load"],
        "graph.store.load_s": name_total.get("ArtifactStore.load", 0.0),
        "graph.store.save.calls": calls["ArtifactStore.save"],
        "graph.store.save_s": name_total.get("ArtifactStore.save", 0.0),
        "graph.store.save_bytes": tracer.counts["graph.store.save_bytes"],
        "parallel.tasks": counter("parallel.tasks"),
        "unattributed.self_s": layer_self.get(ROOT_LAYER, 0.0),
        "trace.overhead_frac": overhead / max(root - overhead, 1e-12),
    })
    out.update({name: (quality or {}).get(name, 0.0) for name in QUALITY})
    missing = set(PER_LAYER_UNITS) ^ set(out)
    if missing:
        raise KeyError(f"per-layer metrics out of sync with the table: {sorted(missing)}")
    return {name: float(out[name]) for name in PER_LAYER_UNITS}
