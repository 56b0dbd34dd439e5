"""Tests for the parallel fan-out harness (plan/execute split)."""

import pytest

from repro.errors import HarnessError
from repro.harness.parallel import ParallelRunner, default_jobs
from repro.harness.replication import replicate, replication_plan
from repro.harness.runner import RunConfig, Runner
from repro.harness.schemes import DP_SCHEMES
from repro.harness.store import open_store
from repro.harness.sweep import sweep_plan, threshold_sweep
from repro.workloads import get_benchmark

#: The two cheapest end-to-end benchmarks.
FAST = "GC-citation"
FAST2 = "MM-small"


class TestExpand:
    def test_plain_schemes_pass_through(self):
        pr = ParallelRunner(jobs=1)
        configs = [
            RunConfig(benchmark=FAST, scheme="flat"),
            RunConfig(benchmark=FAST, scheme="spawn"),
        ]
        assert pr.expand(configs) == configs

    def test_deduplicates_preserving_order(self):
        pr = ParallelRunner(jobs=1)
        a = RunConfig(benchmark=FAST, scheme="spawn")
        b = RunConfig(benchmark=FAST, scheme="flat")
        assert pr.expand([a, b, a]) == [a, b]

    def test_offline_expands_to_its_sweep(self):
        pr = ParallelRunner(jobs=1)
        expanded = pr.expand([RunConfig(benchmark=FAST, scheme="offline")])
        schemes = [config.scheme for config in expanded]
        thresholds = get_benchmark(FAST).sweep_thresholds
        assert schemes == ["flat"] + [f"threshold:{t}" for t in thresholds]

    def test_offline_overlap_with_explicit_flat_dedupes(self):
        pr = ParallelRunner(jobs=1)
        expanded = pr.expand(
            [
                RunConfig(benchmark=FAST, scheme="flat"),
                RunConfig(benchmark=FAST, scheme="offline"),
            ]
        )
        assert [c.scheme for c in expanded].count("flat") == 1


class TestRunMany:
    def test_empty_plan(self):
        assert ParallelRunner(jobs=2).run_many([]) == []

    def test_rejects_bad_jobs(self):
        with pytest.raises(HarnessError):
            ParallelRunner(jobs=2).run_many(
                [RunConfig(benchmark=FAST, scheme="flat")], jobs=0
            )

    def test_default_jobs_positive(self):
        assert default_jobs() >= 1
        assert ParallelRunner().jobs >= 1

    def test_parallel_matches_serial_for_all_schemes(self):
        """jobs=4 fan-out is bit-identical to the serial path: flat plus
        every DP scheme (including Offline-Search) on two benchmarks."""
        configs = [
            RunConfig(benchmark=name, scheme=scheme)
            for name in (FAST, FAST2)
            for scheme in ("flat",) + DP_SCHEMES
        ]
        parallel = ParallelRunner(Runner(), jobs=4)
        fanned = parallel.run_many(configs)

        serial_runner = Runner()
        for config, result in zip(configs, fanned):
            expected = serial_runner.run(config)
            assert result.summary() == expected.summary(), config
            assert result.makespan == expected.makespan, config

    def test_results_merge_into_shared_runner_cache(self):
        runner = Runner()
        pr = ParallelRunner(runner, jobs=2)
        config = RunConfig(benchmark=FAST, scheme="spawn")
        [result] = pr.run_many([config, ])
        # The wrapped runner now answers from memory: same object back.
        assert runner.run(config) is result

    def test_jobs_one_runs_inline(self):
        runner = Runner()
        pr = ParallelRunner(runner, jobs=1)
        [result] = pr.run_many([RunConfig(benchmark=FAST, scheme="flat")])
        assert result.makespan > 0
        assert runner.cache_size() == 1

    def test_persists_to_store(self, tmp_path):
        runner = Runner(store=open_store(tmp_path))
        pr = ParallelRunner(runner, jobs=2)
        configs = [
            RunConfig(benchmark=FAST, scheme="flat"),
            RunConfig(benchmark=FAST, scheme="spawn"),
        ]
        pr.run_many(configs)
        assert runner.store.stats().entries == 2
        # A cold runner over the same store simulates nothing.
        cold = Runner(store=open_store(tmp_path))
        for config in configs:
            assert cold.cached(config) is not None


class TestPlanHelpers:
    def test_sweep_plan_contents(self):
        plan = sweep_plan(FAST)
        thresholds = get_benchmark(FAST).sweep_thresholds
        assert [c.scheme for c in plan] == ["flat"] + [
            f"threshold:{t}" for t in thresholds
        ]

    def test_threshold_sweep_parallel_matches_serial(self):
        serial = threshold_sweep(Runner(), FAST)
        parallel = threshold_sweep(Runner(), FAST, jobs=2)
        assert parallel == serial

    def test_replication_plan_contents(self):
        plan = replication_plan(FAST, schemes=("spawn",), seeds=(1, 2))
        assert [(c.scheme, c.seed) for c in plan] == [
            ("flat", 1),
            ("spawn", 1),
            ("flat", 2),
            ("spawn", 2),
        ]

    def test_replicate_parallel_matches_serial(self):
        serial = replicate(FAST, schemes=("spawn",), seeds=(1, 2))
        parallel = replicate(FAST, schemes=("spawn",), seeds=(1, 2), jobs=2)
        assert parallel.stats["spawn"].speedups == serial.stats["spawn"].speedups
