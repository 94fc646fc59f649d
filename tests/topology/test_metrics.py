"""Topology metrics vs dragonfly theory."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import BLUE_LINK_BW, CORI
from repro.topology.dragonfly import DragonflyTopology
from tests.topology.metrics import (
    bisection_bandwidth,
    link_load_balance,
    measured_diameter,
    path_diversity,
    per_node_bisection,
    router_radix,
    theoretical_diameter,
)


def test_diameter_matches_theory(tiny_topo):
    assert theoretical_diameter(tiny_topo) == 5
    assert measured_diameter(tiny_topo, samples=72) <= 5
    # Dragonfly beats any same-size ring/mesh by construction.
    assert measured_diameter(tiny_topo, samples=72) >= 2


def test_cori_shape_radix():
    """Aries is a 48-port router: 15 green + 5 black + blue + 8 NIC."""
    t = DragonflyTopology.from_preset(CORI)
    radix = router_radix(t)
    assert radix["green"] == pytest.approx(15.0)
    assert radix["black"] == pytest.approx(5.0)
    assert radix["blue"] > 0
    assert radix["nic"] == 4.0


def test_bisection_bandwidth_formula(tiny_topo):
    g = tiny_topo.groups
    expect = 2 * (g // 2) * (g - g // 2) * tiny_topo.global_multiplicity
    assert bisection_bandwidth(tiny_topo) == pytest.approx(expect * BLUE_LINK_BW)
    assert per_node_bisection(tiny_topo) == pytest.approx(
        bisection_bandwidth(tiny_topo) / tiny_topo.num_nodes
    )


def test_path_diversity_positive(tiny_topo):
    assert path_diversity(tiny_topo) == 4 * tiny_topo.global_multiplicity


def test_link_load_balance():
    cap = np.ones(4)
    assert link_load_balance(np.zeros(4), cap) == 1.0
    assert link_load_balance(np.array([1.0, 1.0, 0, 0]), cap) == pytest.approx(1.0)
    assert link_load_balance(np.array([3.0, 1.0, 0, 0]), cap) == pytest.approx(1.5)


def test_valiant_spreads_adversarial_pattern(tiny_topo):
    """The Valiant rationale: for a group-pair hotspot (the dragonfly's
    adversarial pattern), non-minimal routing lowers the peak link
    utilisation that minimal routing concentrates on the few direct blue
    links."""
    from repro.network.traffic import FlowSet
    from repro.topology.routing import AdaptiveRouter

    # Scarce global links (multiplicity 2) make the direct channels the
    # bottleneck, as on real systems where group pairs share few cables.
    t = DragonflyTopology(6, 4, 3, nodes_per_router=2, global_multiplicity=2)
    router = AdaptiveRouter(t)
    # All routers of group 0 send to the matching routers of group 3.
    src = np.arange(t.routers_per_group)
    dst = src + 3 * t.routers_per_group
    flows = FlowSet(src, dst, np.full(len(src), 1e9))
    routing = router.route(flows.src, flows.dst, rng=np.random.default_rng(0))
    minimal_only = routing.link_loads(flows.volume, 1.0, t.num_links)
    valiant_only = routing.link_loads(flows.volume, 0.0, t.num_links)
    # The contested resource is the group-pair's blue links: minimal
    # routing funnels everything over the direct 0->3 channels; Valiant
    # detours over other groups' links.
    peak_min = (minimal_only / t.link_capacity)[t.blue_base :].max()
    peak_val = (valiant_only / t.link_capacity)[t.blue_base :].max()
    assert peak_val < peak_min
