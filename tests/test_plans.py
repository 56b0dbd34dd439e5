"""Tests pinning the declared experiment plans to the experiment code."""

import pytest

from repro.experiments import ALL_EXPERIMENTS
from repro.experiments import (
    fig06_concurrency,
    fig19_timeline,
    fig20_launch_cdf,
)
from repro.experiments.plans import PLANS, suite_plan
from repro.harness import schemes as sch
from repro.harness.parallel import ParallelRunner
from repro.harness.runner import Runner
from repro.obs.metrics import METRICS


class TestPlanTable:
    def test_every_experiment_has_a_plan(self):
        assert set(PLANS) == set(ALL_EXPERIMENTS)

    def test_plans_parse_and_dedupe(self):
        plan = suite_plan()
        assert plan, "suite plan must not be empty"
        keys = [config.key() for config in plan]
        assert len(keys) == len(set(keys))
        for config in plan:
            sch.SchemeSpec.parse(config.scheme)  # raises on an invalid scheme

    def test_static_experiments_plan_nothing(self):
        for name in ("table1", "table2", "fig01"):
            assert PLANS[name](1) == []

    def test_seed_threads_through(self):
        assert all(config.seed == 7 for config in suite_plan(seed=7))

    def test_subset_selection(self):
        plan = suite_plan(experiments=["fig19"])
        assert {config.benchmark for config in plan} == {"BFS-graph500"}
        with pytest.raises(KeyError):
            suite_plan(experiments=["fig99"])


class TestPlanCoverage:
    """A plan must cover its experiment: zero cache misses afterwards."""

    @pytest.mark.parametrize(
        "name,entry",
        [
            ("fig06", fig06_concurrency.run),
            ("fig19", fig19_timeline.run),
            ("fig20", fig20_launch_cdf.run),
        ],
    )
    def test_plan_covers_experiment(self, name, entry):
        runner = Runner()
        ParallelRunner(runner, jobs=1).run_many(PLANS[name](1))
        misses = METRICS.counter("runner.cache_misses")
        before = misses.value
        entry(runner, 1)
        after = misses.value
        assert after == before, f"{name}'s plan under-declares its run-set"
