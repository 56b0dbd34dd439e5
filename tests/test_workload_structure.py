"""Structural tests for each workload's DP shape (Table I semantics)."""

import numpy as np
import pytest

from repro.workloads import amr, bfs, get_benchmark, join, mandelbrot, matmul, seqalign
from repro.workloads.graphs import bfs_levels, graph_input


class TestBFSStructure:
    def test_one_kernel_per_level(self):
        app = bfs.build("citation", variant="dp", seed=1)
        levels = bfs._levels("citation", 1)
        assert len(app.kernels) == len(levels)

    def test_heavy_vertices_become_requests(self):
        graph = graph_input("citation", 1)
        app = bfs.build("citation", variant="dp", seed=1)
        total_requests = sum(k.num_child_requests() for k in app.kernels)
        heavy = 0
        for level in bfs._levels("citation", 1):
            heavy += int((graph.degrees[np.asarray(level)] > bfs.MIN_OFFLOAD).sum())
        assert total_requests == heavy

    def test_request_items_equal_vertex_degree(self):
        graph = graph_input("citation", 1)
        app = bfs.build("citation", variant="dp", seed=1)
        for spec in app.kernels:
            for reqs in spec.child_requests.values():
                for req in reqs:
                    v = int(req.name.rsplit("v", 1)[1])
                    assert req.items == graph.degree(v)

    def test_grid_stride_spreads_at_fractions(self):
        app = bfs.build("graph500", variant="dp", seed=1)
        fractions = {
            req.at_fraction
            for spec in app.kernels
            for reqs in spec.child_requests.values()
            for req in reqs
        }
        assert len(fractions) > 1


class TestAMRStructure:
    def test_nested_requests_only_on_hottest_cells(self):
        app = amr.build(variant="dp", seed=1)
        nested_parents = 0
        total = 0
        for spec in app.kernels:
            for reqs in spec.child_requests.values():
                for req in reqs:
                    total += 1
                    if req.nested:
                        nested_parents += 1
        assert 0 < nested_parents < total

    def test_time_steps_repeat_refinement(self):
        app = amr.build(variant="dp", seed=1)
        assert len(app.kernels) == amr.TIME_STEPS
        counts = [k.num_child_requests() for k in app.kernels]
        assert len(set(counts)) == 1  # same refined cells every step

    def test_refinement_size_ramp(self):
        refined, fine, deep = amr._refinement(1)
        assert fine.min() >= amr.MIN_FINE_ITEMS
        assert fine.max() <= amr.MAX_FINE_ITEMS
        assert fine.max() > 10 * np.median(fine)  # steep concentration


class TestJoinStructure:
    def test_passes_partition_buckets(self):
        app = join.build("uniform", variant="dp", seed=1)
        assert len(app.kernels) == join.PASSES
        total_requests = sum(k.num_child_requests() for k in app.kernels)
        matches = join._matches("uniform", 1)
        assert total_requests == int((matches > join.MIN_OFFLOAD).sum())

    def test_uniform_is_balanced_gaussian_is_skewed(self):
        uniform = join._matches("uniform", 1)
        gaussian = join._matches("gaussian", 1)
        assert uniform.max() / uniform.mean() < 1.5
        assert gaussian.max() / gaussian.mean() > 2.0

    def test_flat_has_thread_per_bucket(self):
        app = join.build("uniform", variant="flat", seed=1)
        assert len(app.kernels) == 1
        assert app.kernels[0].num_threads == join.NUM_BUCKETS


class TestMandelStructure:
    def test_block_items_come_from_real_escape_counts(self):
        items = mandelbrot._block_items(1)
        blocks = (mandelbrot.WIDTH // mandelbrot.BLOCK) * (
            mandelbrot.HEIGHT // mandelbrot.BLOCK
        )
        assert items.size == blocks
        # Interior blocks saturate at MAX_ITERS; exterior escape quickly.
        peak = mandelbrot.BLOCK**2 * mandelbrot.MAX_ITERS // mandelbrot.ITERS_PER_ITEM
        assert items.max() <= peak
        assert items.max() > 20 * items.min()

    def test_viewport_jitter_changes_workload(self):
        assert not np.array_equal(
            mandelbrot._block_items(1), mandelbrot._block_items(2)
        )


class TestMMStructure:
    def test_child_thread_per_column(self):
        """Child grids approximate one thread per multiplier column."""
        app = matmul.build("small", variant="dp", seed=1)
        for spec in app.kernels:
            for reqs in spec.child_requests.values():
                for req in reqs:
                    # items_per_thread uses floor division, so the thread
                    # count can overshoot COLUMNS by the rounding slack.
                    assert req.num_threads <= 2 * matmul.COLUMNS

    def test_large_input_has_more_work(self):
        small = matmul.build("small", variant="flat", seed=1)
        large = matmul.build("large", variant="flat", seed=1)
        assert large.flat_items > small.flat_items


class TestSAStructure:
    def test_batches_partition_reads(self):
        app = seqalign.build("thaliana", variant="dp", seed=1)
        assert len(app.kernels) == seqalign.BATCHES
        cands = seqalign._candidates("thaliana", 1)
        total_requests = sum(k.num_child_requests() for k in app.kernels)
        assert total_requests == int((cands > seqalign.MIN_OFFLOAD).sum())

    def test_thaliana_heavier_than_elegans(self):
        thaliana = seqalign._candidates("thaliana", 1)
        elegans = seqalign._candidates("elegans", 1)
        assert thaliana.max() > elegans.max()

    def test_unknown_input_rejected(self):
        with pytest.raises(ValueError):
            seqalign.build("nope")
        with pytest.raises(ValueError):
            join.build("nope")
        with pytest.raises(ValueError):
            matmul.build("nope")


class TestBenchmarkWiring:
    @pytest.mark.parametrize(
        "name,n_kernels",
        [("JOIN-uniform", 2), ("SA-thaliana", 3), ("AMR", 3), ("Mandel", 2)],
    )
    def test_dp_kernel_counts(self, name, n_kernels):
        assert len(get_benchmark(name).dp(1).kernels) == n_kernels

    def test_traversal_level_sizes_match_graph(self):
        bench = get_benchmark("BFS-graph500")
        app = bench.flat(1)
        graph = graph_input("graph500", 1)
        levels = bfs_levels(graph, int(np.argmax(graph.degrees)))
        for spec, level in zip(app.kernels, levels):
            assert spec.num_threads == len(level)
