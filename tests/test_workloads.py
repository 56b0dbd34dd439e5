"""Tests for graph generators and the Table I benchmark suite."""

import numpy as np
import pytest

from repro.errors import HarnessError, WorkloadError
from repro.sim.config import GPUConfig
from repro.sim.kernel import uses_dynamic_parallelism
from repro.workloads import TABLE1_NAMES, all_benchmarks, benchmark_names, get_benchmark
from repro.workloads.base import (
    INPUT_CACHE_SIZE,
    AddressAllocator,
    Benchmark,
    BenchmarkRegistry,
)
from repro.workloads.graphs import (
    CSRGraph,
    bfs_levels,
    citation_graph,
    coloring_rounds,
    graph500_graph,
    graph_input,
    sorted_unique,
    sssp_rounds,
)


class TestAddressAllocator:
    def test_regions_disjoint_and_aligned(self):
        alloc = AddressAllocator(alignment=128)
        a = alloc.alloc(100)
        b = alloc.alloc(300)
        assert a == 0
        assert b == 128
        assert alloc.alloc(1) == 128 + 384

    def test_rejects_bad_sizes(self):
        with pytest.raises(WorkloadError):
            AddressAllocator().alloc(0)
        with pytest.raises(WorkloadError):
            AddressAllocator(alignment=0)


class TestGraphGenerators:
    def test_citation_graph_structure(self):
        graph = citation_graph(num_vertices=500, edges_per_vertex=3, seed=1)
        assert graph.num_vertices == 500
        assert graph.num_edges > 0
        assert len(graph.indptr) == 501
        assert graph.indptr[-1] == graph.num_edges
        # Neighbour ids in range.
        assert graph.indices.min() >= 0
        assert graph.indices.max() < 500

    def test_citation_graph_is_symmetric(self):
        graph = citation_graph(num_vertices=300, edges_per_vertex=3, seed=2)
        edges = set()
        for v in range(graph.num_vertices):
            for u in graph.neighbors(v):
                edges.add((v, int(u)))
        assert all((u, v) in edges for (v, u) in edges)

    def test_citation_graph_has_hub_skew(self):
        graph = citation_graph(num_vertices=2000, edges_per_vertex=4, seed=1)
        degrees = graph.degrees
        assert degrees.max() > 8 * degrees.mean()

    def test_graph500_heavier_tail_than_citation(self):
        rmat = graph500_graph(scale=11, edge_factor=8, seed=1)
        pa = citation_graph(num_vertices=2048, edges_per_vertex=4, seed=1)
        rmat_skew = rmat.degrees.max() / max(rmat.degrees.mean(), 1)
        pa_skew = pa.degrees.max() / max(pa.degrees.mean(), 1)
        assert rmat_skew > pa_skew

    def test_graph500_deterministic_per_seed(self):
        a = graph500_graph(scale=10, edge_factor=4, seed=5)
        b = graph500_graph(scale=10, edge_factor=4, seed=5)
        assert np.array_equal(a.indices, b.indices)

    def test_graph_generator_validation(self):
        with pytest.raises(WorkloadError):
            citation_graph(num_vertices=3, edges_per_vertex=5)
        with pytest.raises(WorkloadError):
            graph500_graph(scale=0)


class TestTraversals:
    @pytest.fixture(scope="class")
    def graph(self):
        return citation_graph(num_vertices=800, edges_per_vertex=3, seed=3)

    def test_bfs_levels_partition_component(self, graph):
        levels = bfs_levels(graph, source=0)
        seen = np.concatenate(levels)
        assert len(seen) == len(np.unique(seen))
        assert levels[0].tolist() == [0]

    def test_bfs_levels_are_adjacent(self, graph):
        levels = bfs_levels(graph, source=0)
        for prev, cur in zip(levels, levels[1:]):
            prev_set = set(prev.tolist())
            for v in cur:
                assert any(int(u) in prev_set for u in graph.neighbors(int(v)))

    def test_bfs_source_validation(self, graph):
        with pytest.raises(WorkloadError):
            bfs_levels(graph, source=-1)

    def test_sssp_rounds_start_at_source(self, graph):
        rounds = sssp_rounds(graph, source=0, seed=1)
        assert rounds[0].tolist() == [0]
        assert len(rounds) >= 2

    def test_sssp_reactivates_vertices(self, graph):
        rounds = sssp_rounds(graph, source=0, seed=1)
        total = sum(len(r) for r in rounds)
        unique = len(np.unique(np.concatenate(rounds)))
        assert total >= unique  # re-relaxation happens

    def test_coloring_rounds_shrink_to_empty(self, graph):
        rounds = coloring_rounds(graph, seed=1)
        sizes = [len(r) for r in rounds]
        assert sizes[0] == graph.num_vertices
        assert all(a > b for a, b in zip(sizes, sizes[1:]))


def _citation_edges_per_vertex(num_vertices, m, seed):
    """The repeated-endpoint process drawn one vertex at a time."""
    rng = np.random.default_rng(seed)
    pool = [x for v in range(1, m + 1) for x in (v, v - 1)]
    edges = [(v, v - 1) for v in range(1, m + 1)]
    for v in range(m + 1, num_vertices):
        for t in np.asarray(pool)[rng.integers(0, len(pool), size=m)].tolist():
            edges.append((v, t))
            pool += [v, t]
    return edges


def _bfs_levels_per_vertex(graph, source):
    visited = np.zeros(graph.num_vertices, dtype=bool)
    visited[source] = True
    levels = [np.array([source], dtype=np.int64)]
    while True:
        nxt = []
        for v in levels[-1]:
            nbrs = graph.neighbors(int(v))
            fresh = nbrs[~visited[nbrs]]
            visited[fresh] = True
            nxt.append(fresh)
        frontier = np.unique(np.concatenate(nxt))
        if not frontier.size:
            return levels
        levels.append(frontier)


def _sssp_rounds_per_vertex(graph, source, seed, max_rounds=64):
    weights = np.random.default_rng(seed).integers(1, 16, size=graph.num_edges)
    dist = np.full(graph.num_vertices, np.iinfo(np.int64).max // 2, dtype=np.int64)
    dist[source] = 0
    rounds = [np.array([source], dtype=np.int64)]
    for _ in range(max_rounds):
        changed = []
        for v in rounds[-1]:
            lo, hi = graph.indptr[v], graph.indptr[v + 1]
            nbrs = graph.indices[lo:hi]
            cand = dist[v] + weights[lo:hi]
            better = cand < dist[nbrs]
            np.minimum.at(dist, nbrs[better], cand[better])
            changed.append(nbrs[better])
        active = np.unique(np.concatenate(changed))
        if not active.size:
            break
        rounds.append(active)
    return rounds


def _coloring_rounds_per_vertex(graph, seed):
    priority = np.random.default_rng(seed).permutation(graph.num_vertices)
    uncolored = np.ones(graph.num_vertices, dtype=bool)
    rounds = []
    while uncolored.any():
        remaining = np.flatnonzero(uncolored)
        rounds.append(remaining)
        to_color = []
        for v in remaining:
            nbrs = graph.neighbors(int(v))
            live = nbrs[uncolored[nbrs]]
            if live.size == 0 or priority[v] > priority[live].max():
                to_color.append(v)
        uncolored[np.array(to_color, dtype=np.int64)] = False
    return rounds


def _same_arrays(got, expected):
    return len(got) == len(expected) and all(
        a.dtype == b.dtype and np.array_equal(a, b) for a, b in zip(got, expected)
    )


SMALL_GRAPHS = {
    "citation": lambda: citation_graph(num_vertices=700, edges_per_vertex=3, seed=5),
    "graph500": lambda: graph500_graph(scale=9, edge_factor=6, seed=3),
}


class TestArrayAtATimeGenerators:
    @pytest.mark.parametrize("name", sorted(SMALL_GRAPHS))
    def test_traversals_match_per_vertex_loops(self, name):
        graph = SMALL_GRAPHS[name]()
        source = int(np.argmax(graph.degrees))
        assert _same_arrays(
            bfs_levels(graph, source), _bfs_levels_per_vertex(graph, source)
        )
        assert _same_arrays(
            sssp_rounds(graph, source, seed=4),
            _sssp_rounds_per_vertex(graph, source, seed=4),
        )
        assert _same_arrays(
            coloring_rounds(graph, seed=6), _coloring_rounds_per_vertex(graph, seed=6)
        )

    @pytest.mark.parametrize(
        "values",
        [
            np.array([], dtype=np.int64),
            np.array([7], dtype=np.int64),
            np.full(9, 3, dtype=np.int64),
            np.random.default_rng(0).integers(-50, 50, size=1000),
        ],
        ids=["empty", "one", "all-duplicate", "random"],
    )
    def test_sorted_unique_equals_np_unique(self, values):
        out = sorted_unique(values)
        expected = np.unique(values)
        assert out.dtype == expected.dtype
        assert np.array_equal(out, expected)

    @pytest.mark.parametrize(
        "num_vertices,m,seed",
        [(3, 2, 1), (7, 6, 4), (40, 1, 2), (60, 1, 9), (200, 3, 5), (150, 6, 8)],
    )
    def test_citation_graph_matches_per_vertex_draws(self, num_vertices, m, seed):
        edges = _citation_edges_per_vertex(num_vertices, m, seed)
        adjacency = {(a, b) for a, b in edges} | {(b, a) for a, b in edges}
        graph = citation_graph(num_vertices=num_vertices, edges_per_vertex=m, seed=seed)
        got = {
            (v, int(u)) for v in range(num_vertices) for u in graph.neighbors(v)
        }
        assert got == {(a, b) for a, b in adjacency if a != b}

    def test_citation_graph_boundary_is_the_seed_path(self):
        # num_vertices == edges_per_vertex + 1: the batched draw is empty.
        graph = citation_graph(num_vertices=5, edges_per_vertex=4, seed=3)
        assert graph.indptr.tolist() == [0, 1, 3, 5, 7, 8]
        assert graph.indices.tolist() == [1, 0, 2, 1, 3, 2, 4, 3]

    def test_citation_graph_with_one_edge_per_vertex_is_a_tree(self):
        graph = citation_graph(num_vertices=300, edges_per_vertex=1, seed=6)
        assert graph.num_edges == 2 * (300 - 1)
        levels = bfs_levels(graph, source=0)
        assert sum(len(level) for level in levels) == 300

    @pytest.mark.parametrize("k", [0, 1, 3, 16, 1000])
    def test_coloring_max_rounds_is_a_prefix(self, k):
        graph = citation_graph(num_vertices=600, edges_per_vertex=3, seed=4)
        full = coloring_rounds(graph, seed=2)
        capped = coloring_rounds(graph, seed=2, max_rounds=k)
        assert len(capped) == min(k, len(full))
        assert all(np.array_equal(a, b) for a, b in zip(capped, full))

    def test_bfs_from_isolated_vertex_is_one_level(self):
        # Vertex 1 has no edges; 0 and 2 are joined.
        graph = CSRGraph(
            indptr=np.array([0, 1, 1, 2], dtype=np.int64),
            indices=np.array([2, 0], dtype=np.int64),
        )
        levels = bfs_levels(graph, source=1)
        assert len(levels) == 1
        assert levels[0].tolist() == [1]

    def test_bfs_and_sssp_build_one_graph_per_seed(self):
        misses = graph_input.cache_info().misses
        get_benchmark("BFS-citation").flat(seed=11)
        get_benchmark("SSSP-citation").flat(seed=11)
        assert graph_input.cache_info().misses <= misses + 1
        with pytest.raises(ValueError):
            graph_input("nope", 1)

    def test_every_input_cache_is_bounded(self):
        import importlib

        modules = [
            importlib.import_module(f"repro.workloads.{name}")
            for name in (
                "amr", "bfs", "graph_coloring", "graphs", "join",
                "mandelbrot", "matmul", "selfsim", "seqalign", "sssp",
            )
        ]
        caches = {
            fn for module in modules for fn in vars(module).values()
            if hasattr(fn, "cache_info")
        }
        assert len(caches) == 12
        assert {fn.cache_info().maxsize for fn in caches} == {INPUT_CACHE_SIZE}


class TestRegistry:
    def test_table1_has_13_benchmarks(self):
        assert len(TABLE1_NAMES) == 13
        for name in TABLE1_NAMES:
            assert name in benchmark_names()

    def test_fig21_extra_benchmark_registered(self):
        assert get_benchmark("SA-elegans") is not None

    def test_unknown_benchmark_raises(self):
        with pytest.raises(HarnessError):
            get_benchmark("nope")

    def test_duplicate_registration_rejected(self):
        registry = BenchmarkRegistry()
        bench = get_benchmark("Mandel")
        registry.register(bench)
        with pytest.raises(HarnessError):
            registry.register(bench)


@pytest.mark.parametrize("name", TABLE1_NAMES)
class TestBenchmarkBuilds:
    def test_dp_variant_valid(self, name):
        bench = get_benchmark(name)
        app = bench.dp(seed=1)
        app.validate(GPUConfig())
        assert uses_dynamic_parallelism(app)
        assert app.flat_items > 0

    def test_flat_variant_valid(self, name):
        bench = get_benchmark(name)
        app = bench.flat(seed=1)
        app.validate(GPUConfig())
        assert not uses_dynamic_parallelism(app)

    def test_flat_and_dp_agree_on_total_work(self, name):
        bench = get_benchmark(name)
        assert bench.flat(seed=1).flat_items == bench.dp(seed=1).flat_items

    def test_cta_resize_applies(self, name):
        bench = get_benchmark(name)
        app = bench.dp(seed=1, cta_threads=128)
        sizes = {
            req.cta_threads
            for spec in app.kernels
            for reqs in spec.child_requests.values()
            for req in reqs
        }
        assert sizes == {128}

    def test_default_threshold_within_sweep_range(self, name):
        bench = get_benchmark(name)
        assert bench.default_threshold <= max(bench.sweep_thresholds)
