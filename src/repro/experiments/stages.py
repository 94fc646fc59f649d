"""Shared stages of the experiment DAG.

The stage bodies every figure/table builder composes: the campaign
manifest, per-dataset RFE rankings, forecast-grid cells, trained
forecasters, importance panels, long-run segment forecasts, MI
neighbourhood rankings, mean trends, relative-performance series, and
MPI breakdowns.  Figure-specific *render* stages live in their own
modules; everything here is shared so overlapping experiments (fig09 /
fig11 / table03, fig08 / fig10 / fig12, fig03 / fig07) deduplicate to
one stage per distinct product.

Stage bodies receive a :class:`~repro.graph.StageCtx` and call the exact
same analysis functions, with the exact same arguments and seeds, as the
pre-DAG drivers did — byte-identical results are the contract
(``tests/graph/test_golden.py``).
"""

from __future__ import annotations

from repro.graph import Graph, stage_fn

#: The canonical name of the campaign stage in every experiment graph.
CAMPAIGN_STAGE = "campaign"


def model_factory(name: str):
    """Resolve a fingerprint-friendly model name to its factory."""
    from repro.analysis.forecasting import default_forecaster
    from repro.experiments._forecast_common import bench_forecaster, fast_forecaster

    return {
        "fast": fast_forecaster,
        "bench": bench_forecaster,
        "default": default_forecaster,
    }[name]


def model_name(fast: bool) -> str:
    return "fast" if fast else "bench"


# --------------------------------------------------------------------------- #
# Campaign manifest.
# --------------------------------------------------------------------------- #


def build_manifest(camp) -> dict:
    """Shape summary of a campaign: what graph builders decide with.

    Keys, per-dataset run and step counts, and the ground-truth
    aggressors — enough to size every stage list without holding the
    datasets themselves, so a warm run (or ``--explain``) never
    materialises the campaign.
    """
    keys = list(camp.keys())
    return {
        "keys": keys,
        "runs": {k: len(camp[k]) for k in keys},
        "num_steps": {k: int(camp[k].num_steps) for k in keys},
        "ground_truth_aggressors": list(camp.ground_truth_aggressors),
    }


@stage_fn(version=1)
def campaign_manifest(ctx):
    return build_manifest(ctx.camp)


def add_campaign_stage(g: Graph) -> str:
    """The root stage: materialise the campaign, emit its manifest."""
    return g.add(CAMPAIGN_STAGE, campaign_manifest, campaign=True, local=True)


def campaign_stage_fingerprint(campaign_fingerprint: str | None) -> tuple[str, str]:
    """(store group, fingerprint) of the campaign stage — computed from a
    throwaway graph so it can never drift from the real one."""
    g = Graph()
    add_campaign_stage(g)
    return (
        g.stages[CAMPAIGN_STAGE].group(),
        g.fingerprints(campaign_fingerprint)[CAMPAIGN_STAGE],
    )


def load_or_build_manifest(ctx) -> dict:
    """The manifest for an :class:`~repro.experiments.context.ExperimentContext`:
    a pure store read when warm, built from the materialised campaign (and
    stored, so the graph's campaign stage hits) otherwise.

    The build path *is* the campaign stage executing — just early, at
    graph-build time — so it opens the same ``graph.stage`` span the
    scheduler would: cold-run campaign generation stays attributed to a
    stage, and profiled per-stage walls keep summing to the run's root
    span.
    """
    from repro.graph import MISS
    from repro.obs.profile import profiled_span

    group, fp = campaign_stage_fingerprint(ctx.campaign_fingerprint)
    value = ctx.store.load(group, fp)
    if value is not MISS:
        return value
    attrs = {"stage": CAMPAIGN_STAGE}
    if ctx.cell:
        attrs["cell"] = "/".join(ctx.cell)
    with profiled_span("graph.stage", **attrs):
        manifest = build_manifest(ctx.campaign())
    ctx.store.save(group, fp, manifest)
    return manifest


# --------------------------------------------------------------------------- #
# Shared dataset-bound stage bodies (top-level: pool workers resolve
# them by import path).
# --------------------------------------------------------------------------- #


@stage_fn(version=2)
def rfe_ranking(ctx):
    """Fig. 9 / deviation RFE sweep for one dataset."""
    from repro.analysis.deviation import deviation_analysis

    return deviation_analysis(
        ctx.ds,
        n_splits=ctx.params["n_splits"],
        max_samples=ctx.params["max_samples"],
    )


@stage_fn(version=1)
def mi_neighborhood(ctx):
    """Table III's per-dataset high-MI user list."""
    from repro.analysis.neighborhood import dataset_top_users

    return dataset_top_users(ctx.ds, ctx.params["top_k"], ctx.params["tau"])


@stage_fn(version=2)
def forecast_cell(ctx):
    """One grouped-CV cell of the Fig. 8 / Fig. 10 ablation grids."""
    from repro.analysis.forecasting import forecast_mape

    p = ctx.params
    return forecast_mape(
        ctx.ds,
        p["m"],
        p["k"],
        p["tier"],
        n_splits=p["n_splits"],
        seed=p["seed"],
        model_factory=model_factory(p["model"]),
        align_m=p["align_m"],
    )


@stage_fn(version=2)
def forecaster(ctx):
    """One trained forecaster — shared by Fig. 11 and Fig. 12."""
    from repro.analysis.forecasting import fit_forecaster

    p = ctx.params
    return fit_forecaster(
        ctx.ds,
        p["m"],
        p["k"],
        p["tier"],
        seed=p["seed"],
        model_factory=model_factory(p["model"]),
    )


@stage_fn(version=1)
def importance_panel(ctx):
    """Fig. 11 panel: permutation importances of a trained forecaster."""
    from repro.analysis.forecasting import model_importances

    p = ctx.params
    names, imp = model_importances(
        ctx.inputs["model"], ctx.ds, p["m"], p["k"], p["tier"], seed=p["seed"]
    )
    return {"names": names, "importances": imp}


@stage_fn(version=1)
def longrun_segments(ctx):
    """Fig. 12: segment forecasts of the long run (``ctx.ds``) using the
    forecaster trained on the regular dataset."""
    from repro.analysis.forecasting import segment_forecast

    p = ctx.params
    return segment_forecast(
        ctx.inputs["model"],
        p["train_key"],
        ctx.ds.runs[0],
        m=p["m"],
        k=p["k"],
        tier=p["tier"],
    )


@stage_fn(version=1)
def mean_trends(ctx):
    """Per-dataset mean counter/time trends (Fig. 3, Fig. 7)."""
    xm, ym = ctx.ds.mean_trends()
    return {"xm": xm, "ym": ym}


@stage_fn(version=1)
def relative_series(ctx):
    """Fig. 1: relative performance against calendar time."""
    import numpy as np

    ds = ctx.ds
    order = np.argsort(ds.start_times)
    return {
        "time": ds.start_times[order],
        "relative": ds.relative_performance()[order],
    }


@stage_fn(version=1)
def mpi_stats(ctx):
    """Fig. 4 / Fig. 5: compute/MPI split and routine breakdown."""
    from repro.experiments._mpi_breakdown import mpi_breakdown

    return mpi_breakdown(ctx.ds)


# --------------------------------------------------------------------------- #
# Builder helpers.
# --------------------------------------------------------------------------- #


def add_forecaster_stage(
    g: Graph, key: str, m: int, k: int, tier: str, model: str
) -> str:
    """Add (or reuse) the trained-forecaster stage for one cell."""
    camp_stage = add_campaign_stage(g)
    return g.add(
        f"forecaster:{key}:m{m}:k{k}:{tier}:{model}",
        forecaster,
        params={"m": m, "k": k, "tier": tier, "seed": 0, "model": model},
        inputs=[("manifest", camp_stage)],
        dataset=key,
    )
