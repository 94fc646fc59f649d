"""Extension experiments (beyond the paper's artefacts; DESIGN.md §7).

* ``extra-comm`` — the §III-B communication characterisation in numbers;
* ``extra-routing`` — MINIMAL/VALIANT/ADAPTIVE interference ablation;
* ``extra-whatif`` — the §V-A delay-aware-scheduling opportunity;
* ``extra-sysforecast`` — §V-C's closing proposal: forecast system I/O
  and MPI load directly.

Each extension is one compute stage (memoized in the artifact store)
plus a render stage.  Only ``extra-whatif`` and ``extra-sysforecast``
bind to the campaign; the others never materialise it.
"""

from __future__ import annotations

from repro.experiments.report import ExperimentResult, ascii_table
from repro.graph import Graph, stage_fn

# --------------------------------------------------------------------------- #
# extra-comm
# --------------------------------------------------------------------------- #


@stage_fn(version=1)
def comm_profiles(ctx):
    from repro.apps.characterize import characterize_all

    return characterize_all()


@stage_fn(version=1)
def render_comm(ctx):
    from repro.apps.characterize import render_profiles

    profiles = ctx.inputs["profiles"]
    return ExperimentResult(
        exp_id=ctx.params["exp_id"],
        title="Per-application communication character (§III-B quantified)",
        data={"profiles": profiles},
        text=render_profiles(profiles),
    )


def build_comm(g: Graph, ctx, exp_id: str = "extra-comm") -> str:
    stage = g.add("extra:comm", comm_profiles, local=True)
    return g.add(
        f"render:{exp_id}",
        render_comm,
        params={"exp_id": exp_id},
        inputs=[("profiles", stage)],
        kind="render",
        local=True,
    )


# --------------------------------------------------------------------------- #
# extra-routing
# --------------------------------------------------------------------------- #


@stage_fn(version=1)
def routing_results(ctx):
    from repro.analysis.routing_ablation import routing_ablation
    from repro.topology.dragonfly import DragonflyTopology

    fast = ctx.params["fast"]
    topo = DragonflyTopology.from_preset("tiny" if fast else "small")
    return routing_ablation(
        topo,
        probe_nodes=24 if fast else 64,
        background_gbps=(0.0, 100.0, 400.0, 1600.0),
    )


@stage_fn(version=1)
def render_routing(ctx):
    from repro.analysis.routing_ablation import render_ablation

    results = ctx.inputs["results"]
    return ExperimentResult(
        exp_id=ctx.params["exp_id"],
        title="Routing-policy ablation under an adversarial hotspot",
        data={"results": results},
        text=render_ablation(results),
    )


def build_routing(g: Graph, ctx, exp_id: str = "extra-routing") -> str:
    stage = g.add("extra:routing", routing_results, params={"fast": ctx.fast})
    return g.add(
        f"render:{exp_id}",
        render_routing,
        params={"exp_id": exp_id},
        inputs=[("results", stage)],
        kind="render",
        local=True,
    )


# --------------------------------------------------------------------------- #
# extra-whatif
# --------------------------------------------------------------------------- #


@stage_fn(version=1)
def whatif_results(ctx):
    from repro.analysis.whatif import scheduling_whatif

    return scheduling_whatif(ctx.camp)


@stage_fn(version=1)
def render_whatif(ctx):
    results = ctx.inputs["results"]
    rows = [
        [
            r.key,
            r.runs_overlapped,
            r.runs_clean,
            f"{r.saving_fraction:.1%}",
            f"{r.net_saving_fraction:.1%}",
            f"{r.aggressor_time_correlation:+.2f}",
        ]
        for r in results
    ]
    text = ascii_table(
        ["dataset", "heavy runs", "light runs", "saving", "net", "corr"], rows
    )
    if results:
        text += f"\n\nidentified aggressors: {', '.join(results[0].aggressors)}"
    return ExperimentResult(
        exp_id=ctx.params["exp_id"],
        title="Delay-aware scheduling what-if (§V-A's proposal)",
        data={"results": results},
        text=text,
    )


def build_whatif(g: Graph, ctx, exp_id: str = "extra-whatif") -> str:
    stage = g.add("extra:whatif", whatif_results, campaign=True, local=True)
    return g.add(
        f"render:{exp_id}",
        render_whatif,
        params={"exp_id": exp_id},
        inputs=[("results", stage)],
        kind="render",
        local=True,
    )


# --------------------------------------------------------------------------- #
# extra-placement
# --------------------------------------------------------------------------- #


@stage_fn(version=1)
def placement_results(ctx):
    from repro.analysis.placement_study import placement_study
    from repro.topology.dragonfly import DragonflyTopology

    fast = ctx.params["fast"]
    topo = DragonflyTopology.from_preset("tiny" if fast else "small")
    return placement_study(
        topo,
        probe_nodes=16 if fast else 64,
        background_nodes=60 if fast else 512,
        trials_per_policy=3 if fast else 6,
    )


@stage_fn(version=1)
def render_placement(ctx):
    from repro.analysis.placement_study import render_placement_study

    study = ctx.inputs["study"]
    return ExperimentResult(
        exp_id=ctx.params["exp_id"],
        title="Placement-policy study: the cost of fragmentation",
        data={"study": study},
        text=render_placement_study(study),
    )


def build_placement(g: Graph, ctx, exp_id: str = "extra-placement") -> str:
    stage = g.add("extra:placement", placement_results, params={"fast": ctx.fast})
    return g.add(
        f"render:{exp_id}",
        render_placement,
        params={"exp_id": exp_id},
        inputs=[("study", stage)],
        kind="render",
        local=True,
    )


# --------------------------------------------------------------------------- #
# extra-contention
# --------------------------------------------------------------------------- #


@stage_fn(version=1)
def contention_results(ctx):
    import numpy as np

    from repro.network.contention_map import contention_map
    from repro.network.engine import CongestionEngine
    from repro.network.traffic import (
        FlowSet,
        router_alltoall_flows,
        uniform_random_flows,
    )
    from repro.topology.dragonfly import DragonflyTopology
    from repro.topology.placement import AllocationPolicy, allocate

    fast = ctx.params["fast"]
    topo = DragonflyTopology.from_preset("tiny" if fast else "small")
    engine = CongestionEngine(topo)
    rng = np.random.default_rng(0)
    free = topo.compute_nodes
    probe_nodes = allocate(
        topo, free, 16 if fast else 64, AllocationPolicy.RANDOM, rng
    )
    tenants = {
        "probe": engine.route(
            router_alltoall_flows(topo, probe_nodes, 10e9)
        ),
    }
    rpg = topo.routers_per_group
    src = np.arange(rpg)
    tenants["hotspot-job"] = engine.route(
        FlowSet(src, src + 2 * rpg, np.full(rpg, 8e9))
    )
    remaining = np.setdiff1d(free, probe_nodes)
    bg_nodes = allocate(
        topo, remaining, 48 if fast else 256, AllocationPolicy.RANDOM, rng
    )
    tenants["mixed-bg"] = engine.route(
        uniform_random_flows(topo, bg_nodes, 5e8, rng, fanout=3)
    )
    return contention_map(topo, engine, tenants, top_n=10)


@stage_fn(version=1)
def render_contention(ctx):
    from repro.network.contention_map import render_contention as render_map

    cmap = ctx.inputs["map"]
    return ExperimentResult(
        exp_id=ctx.params["exp_id"],
        title="Link-level contention attribution (who owns the hot queues)",
        data={"map": cmap},
        text=render_map(cmap),
    )


def build_contention(g: Graph, ctx, exp_id: str = "extra-contention") -> str:
    stage = g.add("extra:contention", contention_results, params={"fast": ctx.fast})
    return g.add(
        f"render:{exp_id}",
        render_contention,
        params={"exp_id": exp_id},
        inputs=[("map", stage)],
        kind="render",
        local=True,
    )


# --------------------------------------------------------------------------- #
# extra-sysforecast
# --------------------------------------------------------------------------- #


@stage_fn(version=2)
def sysforecast_results(ctx):
    # Each channel's LDMS window tensor is served by the dataset's
    # FeatureStore (one shared (N, T, 8) view, one window stack per
    # channel), so the three channels below rebuild nothing in common.
    from repro.analysis.system_state import forecast_system_channel
    from repro.ml.attention import AttentionForecaster

    p = ctx.params
    m, k, fast = p["m"], p["k"], p["fast"]

    def factory(seed):
        epochs = 50 if fast else 120
        return AttentionForecaster(d_model=16, hidden=32, epochs=epochs, seed=seed)

    results = {}
    for channel in ("IO_PT_FLIT_TOT", "SYS_RT_FLIT_TOT", "SYS_RT_RB_STL"):
        results[channel] = forecast_system_channel(
            ctx.ds, channel=channel, m=m, k=k, model_factory=factory
        )
    return results


@stage_fn(version=1)
def render_sysforecast(ctx):
    results = ctx.inputs["results"]
    rows = []
    for channel, res in results.items():
        rows.append(
            [
                channel,
                f"{res.mape:.2f}%",
                f"{res.persistence_mape:.2f}%",
                "yes" if res.beats_persistence else "no",
                f"{res.r2:+.2f}",
            ]
        )
    text = ascii_table(
        ["system channel", "model MAPE", "persistence MAPE", "beats it?", "R2"],
        rows,
    )
    return ExperimentResult(
        exp_id=ctx.params["exp_id"],
        title="Forecasting system state itself (§V-C closing proposal)",
        data={"results": results, "m": ctx.params["m"], "k": ctx.params["k"]},
        text=text,
    )


def build_sysforecast(g: Graph, ctx, exp_id: str = "extra-sysforecast") -> str:
    from repro.experiments import stages

    man = ctx.manifest
    m, k = (5, 10) if man["num_steps"].get("MILC-128", 0) < 40 else (10, 20)
    camp_stage = stages.add_campaign_stage(g)
    stage = g.add(
        "extra:sysforecast",
        sysforecast_results,
        params={"m": m, "k": k, "fast": ctx.fast},
        inputs=[("manifest", camp_stage)],
        dataset="MILC-128",
    )
    return g.add(
        f"render:{exp_id}",
        render_sysforecast,
        params={"exp_id": exp_id, "m": m, "k": k},
        inputs=[("results", stage)],
        kind="render",
        local=True,
    )


# --------------------------------------------------------------------------- #
# Pre-DAG entry points (kept for API compatibility).
# --------------------------------------------------------------------------- #


def run_comm(campaign=None, fast: bool = False) -> ExperimentResult:
    from repro.experiments import run_experiment

    return run_experiment("extra-comm", campaign=campaign, fast=fast)


def run_routing(campaign=None, fast: bool = False) -> ExperimentResult:
    from repro.experiments import run_experiment

    return run_experiment("extra-routing", campaign=campaign, fast=fast)


def run_whatif(campaign=None, fast: bool = False) -> ExperimentResult:
    from repro.experiments import run_experiment

    return run_experiment("extra-whatif", campaign=campaign, fast=fast)


def run_placement(campaign=None, fast: bool = False) -> ExperimentResult:
    from repro.experiments import run_experiment

    return run_experiment("extra-placement", campaign=campaign, fast=fast)


def run_contention(campaign=None, fast: bool = False) -> ExperimentResult:
    from repro.experiments import run_experiment

    return run_experiment("extra-contention", campaign=campaign, fast=fast)


def run_sysforecast(campaign=None, fast: bool = False) -> ExperimentResult:
    from repro.experiments import run_experiment

    return run_experiment("extra-sysforecast", campaign=campaign, fast=fast)
