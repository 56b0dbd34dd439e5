"""Breadth-First Search (BFS) — Table I rows ``BFS-citation``/``BFS-graph500``.

Level-synchronous BFS: the host launches one kernel per frontier level; each
thread owns one frontier vertex and traverses its adjacency list.  In the DP
variant, high-degree vertices launch a child kernel over their edges
(Fig. 3's code structure); the rest loop serially.  This is the paper's
motivating application (Fig. 1) and its deep-dive subject (Figs. 6, 19, 20).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.sim.kernel import Application
from repro.workloads._traversal import TraversalCosts, build_round_kernels
from repro.workloads.base import REGISTRY, Benchmark, input_cache
from repro.workloads.graphs import bfs_levels, graph_input

#: Degree below which the DP source has no launch site (a child kernel over
#: a handful of edges cannot fill a warp).
MIN_OFFLOAD = 16

COSTS = TraversalCosts(cycles_per_edge=16.0, accesses_per_edge=1.0)


@input_cache
def _levels(input_name: str, seed: int):
    graph = graph_input(input_name, seed)
    source = int(np.argmax(graph.degrees))
    return tuple(bfs_levels(graph, source))


def build(
    input_name: str,
    *,
    variant: str = "dp",
    seed: int = 1,
    cta_threads: Optional[int] = None,
) -> Application:
    """Build the BFS application for one input and variant."""
    graph = graph_input(input_name, seed)
    return build_round_kernels(
        f"BFS-{input_name}",
        graph,
        _levels(input_name, seed),
        dp=(variant == "dp"),
        min_offload=MIN_OFFLOAD,
        cta_threads=cta_threads or 64,
        costs=COSTS,
    )


def _register(input_name: str, input_label: str) -> Benchmark:
    return REGISTRY.register(
        Benchmark(
            name=f"BFS-{input_name}",
            application="Breadth-First Search",
            input_name=input_label,
            build_flat=lambda seed, i=input_name: build(i, variant="flat", seed=seed),
            build_dp=lambda seed, cta, i=input_name: build(
                i, variant="dp", seed=seed, cta_threads=cta
            ),
            default_threshold=MIN_OFFLOAD,
            sweep_thresholds=(16, 32, 64, 128, 256, 512, 1024),
            default_cta_threads=64,
            description="Level-synchronous BFS; child kernel per heavy frontier vertex.",
        )
    )


_register("citation", "Citation Network")
_register("graph500", "Graph 500")
