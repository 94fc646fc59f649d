"""Batched background routing is bit-identical to the per-job reference.

:meth:`BackgroundTrafficModel.contributions_for_batch` routes and
bin-sums a whole chunk of background jobs at once.  Each job's
``(comm, io)`` pair must equal the frozen per-job path
(:func:`tests.campaign.reference_solver.contribution_for`) byte for
byte, on both bench cells and for jobs with and without filesystem
traffic.  A batch that does not return the job the timeline asked for is
an error, not a cue to recompute it another way.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.campaign import parallel as campaign_parallel
from repro.campaign.parallel import CampaignWorkerError
from repro.campaign.runner import (
    BackgroundTrafficModel,
    CampaignConfig,
    CampaignRunner,
)
from repro.network.engine import BaseLoad, CongestionEngine
from repro.system.users import UserPopulation
from repro.topology.registry import build_topology
from tests.campaign import reference_solver

#: A user with no filesystem traffic (every Cori-like archetype has some).
QUIET_USER = "User-quiet"

#: One job per traffic pattern, plus quiet jobs between them so
#: zero-I/O specs sit inside the filesystem batch's index gaps.
JOBS = [
    ("User-2", 64),  # alltoall, heavy I/O
    (QUIET_USER, 16),
    ("User-9", 32),  # allreduce
    ("User-11", 48),  # uniform
    (QUIET_USER, 8),
    ("User-20", 4),  # small long-tail job
]


@pytest.mark.parametrize(
    "topology, routing", [("dragonfly", "ugal"), ("df+", "valiant")]
)
def test_batched_contributions_match_per_job_oracle(topology, routing):
    cfg = CampaignConfig.tiny(topology=topology, routing=routing)
    topo = build_topology(cfg.topology, cfg.preset)
    engine = CongestionEngine(topo, policy=cfg.routing)
    population = UserPopulation.cori_like(node_scale=cfg.node_scale)
    population.archetypes.append(
        dataclasses.replace(
            population.by_name("User-15"), user=QUIET_USER, io_intensity=0.0
        )
    )
    model = BackgroundTrafficModel(
        topo, engine, population, cfg.background_intensity, cfg.seed
    )
    rng = np.random.default_rng(7)
    specs = [
        (
            1000 + i,
            user,
            np.sort(rng.choice(topo.compute_nodes, size=size, replace=False)),
        )
        for i, (user, size) in enumerate(JOBS)
    ]

    batch = model.contributions_for_batch(specs)

    assert len(batch) == len(specs)
    for (job_id, user, nodes), (comm, io) in zip(specs, batch):
        ref_comm, ref_io = reference_solver.contribution_for(
            model, job_id, user, nodes
        )
        for field in dataclasses.fields(BaseLoad):
            for got, want, part in ((comm, ref_comm, "comm"), (io, ref_io, "io")):
                np.testing.assert_array_equal(
                    getattr(got, field.name),
                    getattr(want, field.name),
                    err_msg=f"job {job_id} ({user}) {part}.{field.name}",
                )
        if user == QUIET_USER:
            assert not io.link_loads.any() and not io.inj.any()
        else:
            assert io.link_loads.any()


def test_background_batch_missing_requested_job_raises(monkeypatch):
    task = campaign_parallel._task_bg_contributions

    def drop_first(specs):
        return task(specs)[1:]

    monkeypatch.setattr(campaign_parallel, "_task_bg_contributions", drop_first)
    cfg = CampaignConfig.tiny(
        use_cache=False, days=1.0, long_runs=(), workers=1
    )
    with pytest.raises(CampaignWorkerError, match="did not return job"):
        CampaignRunner(cfg).run()
