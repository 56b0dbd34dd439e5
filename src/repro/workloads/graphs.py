"""Synthetic graph generators standing in for the paper's graph inputs.

The paper uses the DIMACS-10 *Citation Network* and *Graph 500* inputs
[Sanders & Schulz 2012].  Neither ships with this reproduction, so we
generate graphs whose degree structure matches what the DP mechanism cares
about:

* ``citation_graph`` — a preferential-attachment graph: a moderate power-law
  tail, most vertices low-degree, some hubs.  Citation networks are the
  canonical preferential-attachment instance.
* ``graph500_graph`` — an RMAT/Kronecker graph with the Graph500 parameters
  (a=0.57, b=0.19, c=0.19), giving the much heavier-tailed, skewed degree
  distribution that makes BFS-graph500 launch tens of thousands of child
  kernels in the paper.

Both return CSR adjacency (``indptr``, ``indices``) over ``num_vertices``
vertices, deduplicated and symmetrized, ready for level-synchronous
traversals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.errors import WorkloadError
from repro.workloads.base import input_cache


@dataclass(frozen=True)
class CSRGraph:
    """Compressed sparse row adjacency."""

    indptr: np.ndarray  # int64, len = num_vertices + 1
    indices: np.ndarray  # int64, len = num_edges

    @property
    def num_vertices(self) -> int:
        return len(self.indptr) - 1

    @property
    def num_edges(self) -> int:
        return len(self.indices)

    def degree(self, v: int) -> int:
        return int(self.indptr[v + 1] - self.indptr[v])

    @property
    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def neighbors(self, v: int) -> np.ndarray:
        return self.indices[self.indptr[v] : self.indptr[v + 1]]


def sorted_unique(values: np.ndarray) -> np.ndarray:
    """``np.unique`` of a 1-D integer array by sort plus adjacent-diff dedup.

    numpy 2 answers ``np.unique`` through a hash table and then sorts; for
    the int64 keys here a plain sort and one comparison pass is many times
    faster and returns the identical array.
    """
    out = np.sort(values)
    if out.size > 1:
        keep = np.empty(out.size, dtype=bool)
        keep[0] = True
        np.not_equal(out[1:], out[:-1], out=keep[1:])
        out = out[keep]
    return out


def _csr_from_edges(num_vertices: int, src: np.ndarray, dst: np.ndarray) -> CSRGraph:
    """Symmetrize, dedup, and pack an edge list into CSR."""
    keep = src != dst
    src, dst = src[keep], dst[keep]
    all_src = np.concatenate([src, dst])
    all_dst = np.concatenate([dst, src])
    keys = sorted_unique(all_src * np.int64(num_vertices) + all_dst)
    all_src = keys // num_vertices
    all_dst = keys % num_vertices
    indptr = np.zeros(num_vertices + 1, dtype=np.int64)
    counts = np.bincount(all_src, minlength=num_vertices)
    np.cumsum(counts, out=indptr[1:])
    return CSRGraph(indptr=indptr, indices=all_dst.astype(np.int64))


def _gather_rows(graph: CSRGraph, vertices: np.ndarray) -> np.ndarray:
    """Concatenated adjacency rows of ``vertices``, in order."""
    starts = graph.indptr[vertices]
    counts = graph.indptr[vertices + 1] - starts
    row_begin = np.cumsum(counts) - counts
    offsets = np.repeat(starts - row_begin, counts)
    return graph.indices[offsets + np.arange(offsets.size)]


def citation_graph(
    num_vertices: int = 6000, edges_per_vertex: int = 5, seed: int = 1
) -> CSRGraph:
    """Preferential-attachment graph with citation-like degree skew.

    Vertices arrive one at a time and attach ``edges_per_vertex`` edges to
    earlier vertices, preferring high-degree targets (Barabasi-Albert via
    the repeated-endpoint trick: sampling uniformly from the running edge
    list is proportional to degree).
    """
    if num_vertices <= edges_per_vertex:
        raise WorkloadError("num_vertices must exceed edges_per_vertex")
    rng = np.random.default_rng(seed)
    m = edges_per_vertex
    # The repeated-endpoint pool is the edge list flattened: slot 2e holds
    # edge e's source, slot 2e+1 its target.  Edges 0..m-1 are the seed
    # path v -> v-1 over the first m+1 vertices; then vertex v
    # (m < v < num_vertices) adds m edges, picked from the 2m(v-m) slots
    # filled before it.  One batched draw over those per-pick bounds
    # yields the same stream as one ``integers(0, pool_size, size=m)``
    # call per vertex.
    num_edges = m * (num_vertices - m)
    edge = np.arange(num_edges, dtype=np.int64)
    src = np.where(edge < m, edge + 1, m + 1 + (edge - m) // m)
    highs = np.repeat(2 * m * np.arange(1, num_vertices - m, dtype=np.int64), m)
    picks = rng.integers(0, highs)
    # A pick on an even slot names a known source.  A pick on the target
    # slot of a non-seed edge names whatever that edge picked: follow the
    # chain back (each hop lands on an earlier edge) until it ends on a
    # source slot or a seed-path target.
    slot = picks.copy()
    pending = np.flatnonzero((slot % 2 == 1) & (slot > 2 * m))
    while pending.size:
        slot[pending] = picks[slot[pending] // 2 - m]
        pending = pending[(slot[pending] % 2 == 1) & (slot[pending] > 2 * m)]
    hit = slot // 2
    targets = np.where(slot % 2 == 1, hit, src[hit])
    dst = np.concatenate([edge[:m], targets])
    return _csr_from_edges(num_vertices, src, dst)


def graph500_graph(
    scale: int = 13,
    edge_factor: int = 16,
    seed: int = 1,
    a: float = 0.57,
    b: float = 0.19,
    c: float = 0.19,
) -> CSRGraph:
    """RMAT graph with the Graph500 generator parameters.

    ``2**scale`` vertices and ``edge_factor * 2**scale`` directed edge
    samples before dedup/symmetrization.  The recursive quadrant choice is
    vectorized: one random quadrant draw per (edge, bit).
    """
    if scale <= 0 or edge_factor <= 0:
        raise WorkloadError("scale and edge_factor must be positive")
    if not 0 < a + b + c < 1:
        raise WorkloadError("RMAT probabilities must sum below 1")
    rng = np.random.default_rng(seed)
    n = 1 << scale
    num_edges = edge_factor * n
    src = np.zeros(num_edges, dtype=np.int64)
    dst = np.zeros(num_edges, dtype=np.int64)
    for bit in range(scale):
        r = rng.random(num_edges)
        # Quadrant thresholds: a | b | c | d.
        go_right = (r >= a) & (r < a + b) | (r >= a + b + c)
        go_down = r >= a + b
        src = (src << 1) | go_down.astype(np.int64)
        dst = (dst << 1) | go_right.astype(np.int64)
    return _csr_from_edges(n, src, dst)


def bfs_levels(graph: CSRGraph, source: int = 0) -> list:
    """Level-synchronous BFS; returns a list of frontier vertex arrays.

    Level 0 is ``[source]``; traversal covers only the source's component
    (like the paper's benchmarks, which BFS from a fixed root).  A level is
    a set, so the whole frontier expands at once: gather every row, drop
    visited vertices, dedup.
    """
    if not 0 <= source < graph.num_vertices:
        raise WorkloadError("BFS source outside graph")
    visited = np.zeros(graph.num_vertices, dtype=bool)
    visited[source] = True
    frontier = np.array([source], dtype=np.int64)
    levels = [frontier]
    while True:
        nbrs = _gather_rows(graph, frontier)
        frontier = sorted_unique(nbrs[~visited[nbrs]])
        if not frontier.size:
            return levels
        visited[frontier] = True
        levels.append(frontier)


def sssp_rounds(graph: CSRGraph, source: int = 0, seed: int = 1, max_rounds: int = 64) -> list:
    """Bellman-Ford rounds; returns the active vertex set per round.

    Edge weights are deterministic pseudo-random ints in [1, 16).  A vertex
    is active in round ``k`` if its distance changed in round ``k-1`` —
    the standard GPU worklist formulation.  SSSP re-relaxes vertices, so
    the same vertex can appear in several rounds (more child launches than
    BFS, matching the paper's SSSP behaviour).

    Relaxation is Gauss-Seidel within a round: a vertex sees distances its
    predecessors in the round already lowered, so the result depends on
    vertex order and the loop stays per vertex.
    """
    rng = np.random.default_rng(seed)
    # Deterministic per-edge weights.
    weights = rng.integers(1, 16, size=graph.num_edges).astype(np.int64)
    dist = np.full(graph.num_vertices, np.iinfo(np.int64).max // 2, dtype=np.int64)
    dist[source] = 0
    indptr = graph.indptr.tolist()
    indices = graph.indices
    active = np.array([source], dtype=np.int64)
    rounds = [active]
    for _ in range(max_rounds):
        changed = []
        for v in active.tolist():
            lo, hi = indptr[v], indptr[v + 1]
            nbrs = indices[lo:hi]
            cand = dist[v] + weights[lo:hi]
            better = cand < dist[nbrs]
            if better.any():
                # CSR rows are deduplicated, so a plain store is exact.
                upd = nbrs[better]
                dist[upd] = cand[better]
                changed.append(upd)
        if not changed:
            break
        active = sorted_unique(np.concatenate(changed))
        rounds.append(active)
    return rounds


def coloring_rounds(
    graph: CSRGraph, seed: int = 1, max_rounds: Optional[int] = None
) -> list:
    """Jones-Plassmann style greedy colouring rounds.

    Each round colours the vertices whose random priority beats all
    uncoloured neighbours; returns the list of per-round *remaining*
    (uncoloured, hence conflict-checking) vertex arrays — those are the
    threads that do degree-proportional work each round.  At most
    ``max_rounds`` rounds are returned when it is given.

    A round reads only the colouring state left by the previous one, so
    it is evaluated over all live edges at once.
    """
    rng = np.random.default_rng(seed)
    priority = rng.permutation(graph.num_vertices)
    uncolored = np.ones(graph.num_vertices, dtype=bool)
    src = np.repeat(np.arange(graph.num_vertices, dtype=np.int64), graph.degrees)
    dst = graph.indices
    rounds = []
    while uncolored.any() and (max_rounds is None or len(rounds) < max_rounds):
        remaining = np.flatnonzero(uncolored)
        rounds.append(remaining)
        live = uncolored[src] & uncolored[dst]
        src, dst = src[live], dst[live]
        beaten = np.zeros(graph.num_vertices, dtype=bool)
        beaten[src[priority[dst] > priority[src]]] = True
        uncolored[remaining[~beaten[remaining]]] = False
    return rounds


@input_cache
def graph_input(input_name: str, seed: int) -> CSRGraph:
    """The BFS and SSSP input graph ``input_name`` for ``seed``."""
    if input_name == "citation":
        return citation_graph(num_vertices=12000, edges_per_vertex=6, seed=seed)
    if input_name == "graph500":
        return graph500_graph(scale=14, edge_factor=16, seed=seed)
    raise ValueError(f"unknown graph input {input_name!r}")
