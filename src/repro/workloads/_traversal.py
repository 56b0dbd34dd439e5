"""Shared machinery for the level-synchronous graph benchmarks.

BFS, SSSP, and Graph Coloring all share one structure: the host launches one
kernel per round, each round's kernel has a thread per active vertex, and a
thread's work is proportional to its vertex degree.  In the DP variant a
thread whose degree exceeds the structural offload minimum carries a
:class:`~repro.sim.kernel.ChildRequest` over its adjacency range; otherwise
(and in the flat variant) it walks its edges serially — the Fig. 1 workload
imbalance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.errors import WorkloadError
from repro.sim.kernel import Application, ChildRequest, KernelSpec
from repro.workloads.base import AddressAllocator
from repro.workloads.graphs import CSRGraph

#: Bytes per edge entry (int32 neighbour id).
EDGE_BYTES = 4


@dataclass(frozen=True)
class TraversalCosts:
    """Per-application cost model for one edge of traversal work."""

    cycles_per_edge: float = 16.0
    accesses_per_edge: float = 1.0
    #: Fixed per-vertex bookkeeping items (read vertex record, flags).
    bookkeeping_items: int = 1
    threads_per_cta: int = 256
    regs_per_thread: int = 24
    child_regs_per_thread: int = 16
    header_items: int = 2
    #: Grid-stride factor: active vertices handled by one parent thread.
    #: Spreads the launch calls across the thread's execution, which is
    #: what lets SPAWN's windowed metrics observe a live system.
    vertices_per_thread: int = 4


def build_round_kernels(
    app_name: str,
    graph: CSRGraph,
    rounds: Sequence[np.ndarray],
    *,
    dp: bool,
    min_offload: int,
    cta_threads: int,
    costs: TraversalCosts,
) -> Application:
    """Materialize one kernel per round over the given active-vertex sets.

    Each parent thread owns ``vertices_per_thread`` consecutive active
    vertices and walks them in a loop; a heavy vertex becomes a child
    launch call placed at its loop position (``at_fraction``), a light one
    is traversed serially in place.
    """
    if not rounds:
        raise WorkloadError(f"{app_name}: no traversal rounds")
    alloc = AddressAllocator()
    edge_base = alloc.alloc(graph.num_edges * EDGE_BYTES)
    indptr = graph.indptr
    degrees = graph.degrees
    vpt = costs.vertices_per_thread
    kernels: List[KernelSpec] = []
    flat_items = 0
    for round_idx, active in enumerate(rounds):
        active = np.asarray(active, dtype=np.int64)
        if active.size == 0:
            continue
        deg = degrees[active]
        flat_items += int(deg.sum()) + costs.bookkeeping_items * active.size
        if not dp:
            # The flat port is the natural data-parallel one: one thread
            # per active vertex, edges walked serially in that thread.
            kernels.append(
                KernelSpec(
                    name=f"{app_name}-round{round_idx}",
                    threads_per_cta=min(costs.threads_per_cta, active.size),
                    thread_items=costs.bookkeeping_items + deg,
                    regs_per_thread=costs.regs_per_thread,
                    cycles_per_item=costs.cycles_per_edge,
                    accesses_per_item=costs.accesses_per_edge,
                    mem_bases=edge_base + indptr[active] * EDGE_BYTES,
                    mem_stride=EDGE_BYTES,
                    header_items=costs.header_items,
                )
            )
            continue
        # Thread t owns active[t*vpt : (t+1)*vpt]: it walks its light
        # vertices' edges itself and carries one launch call per heavy one.
        starts = np.arange(0, active.size, vpt)
        num_threads = starts.size
        chunk_len = np.minimum(vpt, active.size - starts)
        heavy = deg > min_offload
        items = costs.bookkeeping_items * chunk_len + np.add.reduceat(
            np.where(heavy, 0, deg), starts
        )
        bases = edge_base + indptr[active[starts]] * EDGE_BYTES
        requests: dict = {}
        for pos in np.flatnonzero(heavy).tolist():
            tid, k = divmod(pos, vpt)
            v = int(active[pos])
            requests.setdefault(tid, []).append(
                ChildRequest(
                    name=f"{app_name}-r{round_idx}-v{v}",
                    items=int(deg[pos]),
                    cta_threads=cta_threads,
                    regs_per_thread=costs.child_regs_per_thread,
                    cycles_per_item=costs.cycles_per_edge,
                    accesses_per_item=costs.accesses_per_edge,
                    mem_base=int(edge_base + indptr[v] * EDGE_BYTES),
                    mem_stride=EDGE_BYTES,
                    at_fraction=(k + 0.5) / int(chunk_len[tid]),
                )
            )
        kernels.append(
            KernelSpec(
                name=f"{app_name}-round{round_idx}",
                threads_per_cta=min(costs.threads_per_cta, num_threads),
                thread_items=items,
                regs_per_thread=costs.regs_per_thread,
                cycles_per_item=costs.cycles_per_edge,
                accesses_per_item=costs.accesses_per_edge,
                mem_bases=bases,
                mem_stride=EDGE_BYTES,
                child_requests=requests,
                header_items=costs.header_items,
            )
        )
    return Application(name=app_name, kernels=kernels, flat_items=flat_items)
