"""Frozen per-step campaign solver and per-job background path (oracles).

These are verbatim copies of the campaign's original per-step probe-run
solve loop and per-job background-contribution path, from before the
batched step-block solver (:func:`repro.campaign.parallel._solve_one_run`,
:meth:`repro.campaign.runner.ProbeRunContext.solve_steps`) and the
batched background routing
(:meth:`repro.campaign.runner.BackgroundTrafficModel
.contributions_for_batch`) replaced them.  Methods became functions that
take the object they were bound to (``seg_max`` was the per-step
``_SegMax.__call__``).  They pin the byte-identity contract: the
production paths must reproduce these results exactly.
Do not "modernise" this module — its value is that it does not change.
"""

from __future__ import annotations

import numpy as np

from repro.apps.registry import get_application
from repro.campaign.datasets import LDMS_FEATURES
from repro.campaign.parallel import RunResult, RunTask, WorkerEnv, _get_context
from repro.campaign.runner import (
    COUNTER_NOISE,
    MID_HOP_DISCOUNT,
    _PT_FLIT_FAMILY,
    _RT_FLIT_FAMILY,
    BackgroundTrafficModel,
    ProbeRunContext,
    _burst_series,
    _long_step_model,
    _SegMax,
)
from repro.config import rng_for
from repro.network.counters import synthesize_router_counters
from repro.network.engine import BaseLoad, NetworkState, slowdown_curve
from repro.network.traffic import FlowSet, io_flows
from repro.telemetry.ariesncl import AriesNCL
from repro.telemetry.mpip import profile_run


# --------------------------------------------------------------------------- #
# Per-step probe solver
# --------------------------------------------------------------------------- #


def seg_max(seg: _SegMax, per_link: np.ndarray) -> np.ndarray:
    out = np.zeros(seg.n_flows)
    if len(seg.link):
        out[seg.seg_flows] = np.maximum.reduceat(
            per_link[seg.link], seg.seg_starts
        )
    return out


def solve_step(
    ctx: ProbeRunContext, base: BaseLoad, intensity: float
) -> tuple[NetworkState, float, float]:
    """Solve one step: returns (state, fabric_slowdown, endpoint_slowdown)."""
    topo = ctx.topology
    eng = ctx.engine
    cap = topo.link_capacity
    s = intensity
    a0 = eng.alpha0

    loads0 = base.link_loads + s * (a0 * ctx.load_min + (1 - a0) * ctx.load_val)
    util0 = loads0 / cap
    u_min = np.maximum(
        seg_max(ctx.seg_min_edge, util0),
        MID_HOP_DISCOUNT * seg_max(ctx.seg_min_mid, util0),
    )
    u_val = np.maximum(
        seg_max(ctx.seg_val_edge, util0),
        MID_HOP_DISCOUNT * seg_max(ctx.seg_val_mid, util0),
    )
    if eng.pinned:
        # Pinned policies fix the split exactly (the UGAL clip band
        # must not pull a pure-minimal/pure-Valiant split inward).
        alpha_f = np.full(len(u_min), a0)
    else:
        alpha_f = np.clip(a0 + eng.ugal_gain * (u_val - u_min), 0.25, 0.98)
    a = float(alpha_f @ ctx.vol_weights) if len(alpha_f) else a0

    loads = base.link_loads + s * (a * ctx.load_min + (1 - a) * ctx.load_val)
    state = NetworkState(
        topology=topo,
        link_loads=loads,
        inj=base.inj + s * ctx.inj_unit,
        ej=base.ej + s * ctx.ej_unit,
        vc4=base.vc4 + s * ctx.vc4_unit,
    )
    path_util = alpha_f * u_min + (1.0 - alpha_f) * u_val
    fabric = slowdown_curve(path_util)
    nic_util = state.nic_util
    if len(ctx.flows):
        ep_util = np.maximum(
            nic_util[ctx.flows.src], nic_util[ctx.flows.dst]
        )
    else:
        ep_util = np.empty(0)
    endpoint = slowdown_curve(ep_util)
    w = ctx.vol_weights
    return (
        state,
        float(fabric @ w) if len(w) else 1.0,
        float(endpoint @ w) if len(w) else 1.0,
    )


def solve_one_run(
    task: RunTask,
    windows: dict[int, tuple[BaseLoad, BaseLoad]],
    env: WorkerEnv,
) -> RunResult:
    """The original per-step solve loop, kept frozen as the reference.

    Steps are solved in step order; every random draw comes from a
    ``(job_id[, step])``-labelled stream, so the result is independent of
    which worker runs this and of whatever ran before it.
    """
    topo = env.topology
    seed = env.seed
    app = get_application(task.key)
    sm = (
        _long_step_model(app, task.long_steps)
        if task.long_steps
        else app.step_model()
    )
    ctx = _get_context(task.job_id, task.key, task.long_steps, task.nodes,
                       keep=False)
    self_comm = ctx.mean_contribution()

    durations = sm.compute + sm.mpi
    mids = task.start_time + np.cumsum(durations) - durations / 2
    burst = _burst_series(mids, rng_for("burst", task.job_id, seed=seed))
    collector = AriesNCL(
        topo,
        ctx.routers,
        rng=rng_for("ncl", task.job_id, seed=seed),
        noise=COUNTER_NOISE,
    )
    n_steps = sm.num_steps
    step_t = np.zeros(n_steps)
    comp_t = np.zeros(n_steps)
    mpi_t = np.zeros(n_steps)
    ldms_t = np.zeros((n_steps, len(LDMS_FEATURES)))

    for step in range(n_steps):
        rng = rng_for("steps", task.job_id, step, seed=seed)
        b = float(burst[step])
        w = float(task.weather[step])
        comm, io = windows[int(task.window_ids[step])]
        # Background at the step midpoint: comm "breathing" scales the
        # steady part, the filesystem part follows its own weather; then
        # this probe's own mean contribution (folded into the timeline
        # when its start event crossed) is subtracted back out.
        base = BaseLoad(
            np.maximum(
                b * comm.link_loads + w * io.link_loads
                - b * self_comm.link_loads,
                0.0,
            ),
            np.maximum(b * comm.inj + w * io.inj - b * self_comm.inj, 0.0),
            np.maximum(b * comm.ej + w * io.ej - b * self_comm.ej, 0.0),
            np.maximum(b * comm.vc4 + w * io.vc4 - b * self_comm.vc4, 0.0),
        )
        vol_noise = float(rng.lognormal(0.0, app.intensity_sigma))
        intensity = sm.intensity[step] * vol_noise
        state, fabric_s, endpoint_s = solve_step(ctx, base, intensity)

        blended = app.blended_slowdown(fabric_s, endpoint_s)
        t_mpi = (
            sm.mpi[step]
            * vol_noise
            * blended
            * float(rng.lognormal(0.0, app.residual_sigma))
        )
        t_comp = sm.compute[step] * float(rng.lognormal(0.0, app.compute_sigma))
        t_step = t_comp + t_mpi

        rates = synthesize_router_counters(state)
        # Background-only rates, to split flit-family integration (see
        # the counter-attribution note in repro.campaign.runner).
        bg_state = NetworkState(
            topology=topo,
            link_loads=base.link_loads,
            inj=base.inj,
            ej=base.ej,
            vc4=base.vc4,
        )
        bg_rates = synthesize_router_counters(bg_state)
        # This step's nominal duration: its own flit volume is (rate x
        # nominal time), regardless of how long congestion stretched it.
        t_nominal = float(sm.compute[step] + sm.mpi[step])
        job_rates = {}
        for name, total_rate in rates.items():
            if name in _PT_FLIT_FAMILY:
                own = np.maximum(total_rate - bg_rates[name], 0.0)
                job_rates[name] = own * (t_nominal / t_step)
            elif name in _RT_FLIT_FAMILY:
                own = np.maximum(total_rate - bg_rates[name], 0.0)
                job_rates[name] = own * (t_nominal / t_step) + bg_rates[name]
            else:
                job_rates[name] = total_rate
        collector.record_step(step, state, t_step, router_rates=job_rates)
        ldms_vals = env.sampler.sample(
            state,
            ctx.routers,
            duration=t_step,
            rng=rng_for("ldms", task.job_id, step, seed=seed),
            noise=COUNTER_NOISE,
            router_rates=rates,
        )
        step_t[step] = t_step
        comp_t[step] = t_comp
        mpi_t[step] = t_mpi
        ldms_t[step] = [ldms_vals[n] for n in LDMS_FEATURES]

    prof = profile_run(
        app, comp_t, mpi_t, rng=rng_for("mpip", task.job_id, seed=seed)
    )
    return RunResult(
        pi=task.pi,
        step_times=step_t,
        compute_times=comp_t,
        mpi_times=mpi_t,
        counters=collector.matrix(),
        ldms=ldms_t,
        routine_times=prof.routine_times,
    )


# --------------------------------------------------------------------------- #
# Per-job background contributions
# --------------------------------------------------------------------------- #


def solve_static(model: BackgroundTrafficModel, flows: FlowSet) -> BaseLoad:
    routed = model.engine.route(flows)
    a0 = model.engine.alpha0
    loads = routed.routing.link_loads(
        flows.volume, a0, model.topology.num_links
    )
    r = model.topology.num_routers
    if len(flows):
        inj = np.bincount(flows.src, weights=flows.volume, minlength=r)
        ej = np.bincount(flows.dst, weights=flows.volume, minlength=r)
        vc4 = inj * flows.response_ratio
    else:
        inj = np.zeros(r)
        ej = np.zeros(r)
        vc4 = np.zeros(r)
    return BaseLoad(link_loads=loads, inj=inj, ej=ej, vc4=vc4)


def contribution_for(
    model: BackgroundTrafficModel, job_id: int, user: str, nodes: np.ndarray
) -> tuple[BaseLoad, BaseLoad]:
    """(steady communication, filesystem) contributions of one job.

    The I/O part is kept separate so the timeline can modulate it with
    the bursty filesystem "weather" (see :class:`IOWeather`).  Takes
    plain fields rather than a :class:`JobRecord` so worker processes
    receive slim, picklable specs.
    """
    comm = solve_static(model, model.flows_for(job_id, user, nodes))
    arch = model.population.by_name(user)
    if arch.io_intensity > 0:
        io = solve_static(
            model,
            io_flows(
                model.topology,
                nodes,
                bytes_per_sec=arch.io_intensity * len(nodes) * model.intensity,
            ),
        )
    else:
        io = BaseLoad.zeros(model.topology)
    return comm, io

