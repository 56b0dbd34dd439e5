"""Graph Coloring — Table I ``GC-citation``/``GC-graph500``.

Jones-Plassmann greedy colouring: each round, every still-uncoloured vertex
checks its neighbours' states (degree-proportional work) and colours itself
if it wins the priority comparison.  Rounds shrink slowly, so the same heavy
vertices re-do conflict checks for many rounds.  GC-citation launches few
child kernels (< 2300 in the paper) and parent threads retain substantial
work, so Baseline-DP ~= flat there (the paper's Observation 4 outlier).
"""

from __future__ import annotations

from typing import Optional

from repro.sim.kernel import Application
from repro.workloads._traversal import TraversalCosts, build_round_kernels
from repro.workloads.base import REGISTRY, Benchmark, input_cache
from repro.workloads.graphs import CSRGraph, citation_graph, coloring_rounds, graph500_graph

MIN_OFFLOAD = 24

#: Conflict check reads the neighbour's colour and priority.
COSTS = TraversalCosts(cycles_per_edge=14.0, accesses_per_edge=2.0, vertices_per_thread=2)

#: Cap on simulated colouring rounds; later rounds are tiny and repeat the
#: same behaviour while tripling simulation time.
MAX_ROUNDS = 16


@input_cache
def _graph(input_name: str, seed: int) -> CSRGraph:
    if input_name == "citation":
        return citation_graph(num_vertices=4000, edges_per_vertex=4, seed=seed)
    if input_name == "graph500":
        return graph500_graph(scale=12, edge_factor=12, seed=seed)
    raise ValueError(f"unknown GC input {input_name!r}")


@input_cache
def _rounds(input_name: str, seed: int):
    graph = _graph(input_name, seed)
    return tuple(coloring_rounds(graph, seed=seed, max_rounds=MAX_ROUNDS))


def build(
    input_name: str,
    *,
    variant: str = "dp",
    seed: int = 1,
    cta_threads: Optional[int] = None,
) -> Application:
    """Build the Graph Coloring application for one input and variant."""
    graph = _graph(input_name, seed)
    return build_round_kernels(
        f"GC-{input_name}",
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
            name=f"GC-{input_name}",
            application="Graph Coloring",
            input_name=input_label,
            build_flat=lambda seed, i=input_name: build(i, variant="flat", seed=seed),
            build_dp=lambda seed, cta, i=input_name: build(
                i, variant="dp", seed=seed, cta_threads=cta
            ),
            default_threshold=MIN_OFFLOAD,
            sweep_thresholds=(24, 48, 96, 192, 384, 1024, 4096),
            default_cta_threads=64,
            description="Jones-Plassmann colouring; child kernel per heavy uncoloured vertex.",
        )
    )


_register("citation", "Citation Network")
_register("graph500", "Graph 500")
