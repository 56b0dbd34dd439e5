"""Single-Source Shortest Path — Table I ``SSSP-citation``/``SSSP-graph500``.

Worklist Bellman-Ford: each round relaxes the out-edges of every vertex
whose distance changed in the previous round, so vertices re-activate and
the total number of (potential) child launches well exceeds BFS on the same
graph.  SSSP launches *many small* child kernels — the regime where launch
overhead dominates, which is why DTBL beats SPAWN here in the paper's
Fig. 21 and why SPAWN's bootstrap mispredicts on graph500 (Section V-B).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.sim.kernel import Application
from repro.workloads._traversal import TraversalCosts, build_round_kernels
from repro.workloads.base import REGISTRY, Benchmark, input_cache
from repro.workloads.graphs import graph_input, sssp_rounds

MIN_OFFLOAD = 16

#: Relaxation touches the neighbour's distance as well as the edge weight.
COSTS = TraversalCosts(cycles_per_edge=20.0, accesses_per_edge=2.0)


@input_cache
def _rounds(input_name: str, seed: int):
    graph = graph_input(input_name, seed)
    source = int(np.argmax(graph.degrees))
    return tuple(sssp_rounds(graph, source, seed=seed))


def build(
    input_name: str,
    *,
    variant: str = "dp",
    seed: int = 1,
    cta_threads: Optional[int] = None,
) -> Application:
    """Build the SSSP application for one input and variant."""
    graph = graph_input(input_name, seed)
    return build_round_kernels(
        f"SSSP-{input_name}",
        graph,
        _rounds(input_name, seed),
        dp=(variant == "dp"),
        min_offload=MIN_OFFLOAD,
        cta_threads=cta_threads or 64,
        costs=COSTS,
    )


def _register(input_name: str, input_label: str) -> Benchmark:
    return REGISTRY.register(
        Benchmark(
            name=f"SSSP-{input_name}",
            application="Single Source Shortest Path",
            input_name=input_label,
            build_flat=lambda seed, i=input_name: build(i, variant="flat", seed=seed),
            build_dp=lambda seed, cta, i=input_name: build(
                i, variant="dp", seed=seed, cta_threads=cta
            ),
            default_threshold=MIN_OFFLOAD,
            sweep_thresholds=(16, 32, 64, 128, 256, 512, 1024),
            default_cta_threads=64,
            description="Worklist Bellman-Ford; child kernel per heavy active vertex.",
        )
    )


_register("citation", "Citation Network")
_register("graph500", "Graph 500")
