"""Topology-level metrics: validating the dragonfly against its theory.

The dragonfly's selling points (paper §II-A; Kim et al., ISCA'08) are a
low network diameter and high bisection bandwidth from high-radix
routers.  ``test_metrics.py`` uses these helpers to check that the
construction delivers both.
"""

from __future__ import annotations

import numpy as np

from repro.config import BLUE_LINK_BW
from repro.topology.base import Topology


def theoretical_diameter(topology: Topology) -> int:
    """Upper bound on minimal-route hops: 2 intra + global + 2 intra = 5."""
    intra = 0 if topology.routers_per_group == 1 else 2
    return intra + 1 + intra


def measured_diameter(
    topology: Topology, samples: int = 200, rng=None
) -> int:
    """Max shortest-path length over sampled router pairs (BFS)."""
    import networkx as nx

    g = nx.DiGraph()
    src, dst = topology.link_endpoints
    g.add_edges_from(zip(src.tolist(), dst.tolist()))
    if rng is None:
        rng = np.random.default_rng(0)
    sources = rng.choice(topology.num_routers, size=min(samples, topology.num_routers), replace=False)
    worst = 0
    for s in sources:
        lengths = nx.single_source_shortest_path_length(g, int(s))
        worst = max(worst, max(lengths.values()))
    return worst


def bisection_bandwidth(topology: Topology) -> float:
    """Bytes/s crossing a balanced group bisection (global links only).

    Splitting the groups into two halves, only global (blue) links
    cross; with all-to-all group connectivity the count is ``2 * h1 * h2
    * multiplicity`` directed links.
    """
    g = topology.groups
    h1 = g // 2
    h2 = g - h1
    crossing = 2 * h1 * h2 * topology.global_multiplicity
    return crossing * BLUE_LINK_BW


def per_node_bisection(topology: Topology) -> float:
    """Bisection bytes/s per compute node (capacity-planning figure)."""
    return bisection_bandwidth(topology) / max(topology.num_nodes, 1)


def router_radix(topology: Topology) -> dict[str, float]:
    """Ports per router by link class (Aries: 15 green + 5 black + ~10 blue
    + 8 NIC ports on a 48-port router)."""
    src, _ = topology.link_endpoints
    kind = topology.link_kind
    out: dict[str, float] = {}
    for lk in type(topology).link_kinds:
        counts = np.bincount(
            src[kind == lk], minlength=topology.num_routers
        )
        out[lk.name.lower()] = float(counts.mean())
    out["nic"] = float(topology.nodes_per_router)
    out["total"] = sum(out.values())
    return out


def path_diversity(topology: Topology) -> int:
    """Distinct minimal paths between two routers in different groups
    (per global channel): up to 2 corner routes on each side of the
    global hop."""
    return 2 * 2 * topology.global_multiplicity


def link_load_balance(link_loads: np.ndarray, capacity: np.ndarray) -> float:
    """Max/mean utilisation over loaded links (1 = perfectly balanced)."""
    util = link_loads / capacity
    loaded = util[util > 0]
    if len(loaded) == 0:
        return 1.0
    return float(loaded.max() / loaded.mean())
