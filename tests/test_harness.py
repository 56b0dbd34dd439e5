"""Tests for the experiment harness (schemes, runner, sweeps)."""

import pytest

from repro.errors import HarnessError
from repro.harness import schemes as sch
from repro.harness.report import format_series, format_table, percent
from repro.harness.runner import (
    PER_PARENT_CTA,
    RunConfig,
    Runner,
    geometric_mean,
    offline_variants,
    speedup_over_flat,
)
from repro.harness.sweep import offline_search, threshold_sweep
from repro.obs.tracer import Tracer
from repro.sim.config import GPUConfig
from repro.sim.engine import SimResult
from repro.sim.stats import SimStats
from repro.workloads import get_benchmark

#: The cheapest benchmark to simulate end-to-end.
FAST = "GC-citation"


@pytest.fixture(scope="module")
def runner():
    return Runner(GPUConfig())


class TestSchemeParsing:
    def test_known_schemes(self):
        assert sch.SchemeSpec.parse("flat").variant == "flat"
        assert sch.SchemeSpec.parse("baseline-dp").variant == "dp"
        assert sch.SchemeSpec.parse("spawn").name == "spawn"
        assert sch.SchemeSpec.parse("dtbl").name == "dtbl"

    def test_threshold_scheme(self):
        spec = sch.SchemeSpec.parse("threshold:128")
        assert spec.threshold == 128
        assert spec.variant == "dp"

    def test_bad_schemes(self):
        with pytest.raises(HarnessError):
            sch.SchemeSpec.parse("nope")
        with pytest.raises(HarnessError):
            sch.SchemeSpec.parse("threshold:abc")
        with pytest.raises(HarnessError):
            sch.SchemeSpec.parse("threshold:-4")

    def test_make_policy_matches_scheme(self):
        bench = get_benchmark(FAST)
        policy = sch.make_policy(sch.SchemeSpec.parse("baseline-dp"), bench)
        assert policy.threshold == bench.default_threshold
        policy = sch.make_policy(sch.SchemeSpec.parse("threshold:99"), bench)
        assert policy.threshold == 99
        policy = sch.make_policy(sch.SchemeSpec.parse("spawn"), bench)
        assert policy.name == "spawn"

    def test_offline_has_no_direct_policy(self):
        with pytest.raises(HarnessError):
            sch.make_policy(sch.SchemeSpec.parse("offline"), get_benchmark(FAST))


class TestRunner:
    def test_run_caches_results(self, runner):
        config = RunConfig(benchmark=FAST, scheme="flat")
        first = runner.run(config)
        second = runner.run(config)
        assert first is second

    def test_distinct_configs_not_conflated(self, runner):
        a = runner.run(RunConfig(benchmark=FAST, scheme="flat"))
        b = runner.run(RunConfig(benchmark=FAST, scheme="baseline-dp"))
        assert a is not b

    def test_speedup_definition(self, runner):
        speedup = runner.speedup(FAST, "baseline-dp")
        flat = runner.run(RunConfig(benchmark=FAST, scheme="flat"))
        base = runner.run(RunConfig(benchmark=FAST, scheme="baseline-dp"))
        assert speedup == pytest.approx(flat.makespan / base.makespan)

    def test_offline_run_is_the_offline_search_result(self, runner):
        threshold, expected = offline_search(runner, FAST)
        result = runner.run(RunConfig(benchmark=FAST, scheme="offline"))
        assert result is expected
        fresh = Runner().run(RunConfig(benchmark=FAST, scheme="offline"))
        assert fresh.summary() == expected.summary()

    def test_stream_policy_selection(self, runner):
        result = runner.run(
            RunConfig(benchmark=FAST, scheme="baseline-dp", stream_policy=PER_PARENT_CTA)
        )
        assert result.makespan > 0
        with pytest.raises(HarnessError):
            runner.run(RunConfig(benchmark=FAST, scheme="flat", stream_policy="bogus"))


class TestSweep:
    def test_threshold_sweep_covers_thresholds(self, runner):
        sweep = threshold_sweep(runner, FAST, thresholds=(48, 4096))
        assert [p.threshold for p in sweep.points] == [48, 4096]
        # A higher threshold offloads less work.
        assert sweep.points[0].offload_fraction >= sweep.points[1].offload_fraction

    def test_best_point_maximizes_speedup(self, runner):
        sweep = threshold_sweep(runner, FAST, thresholds=(48, 4096))
        best = sweep.best()
        assert best.speedup_over_flat == max(
            p.speedup_over_flat for p in sweep.points
        )

    def test_offline_search_returns_best_run(self, runner):
        threshold, result = offline_search(runner, FAST)
        bench = get_benchmark(FAST)
        assert threshold in bench.sweep_thresholds
        assert result.makespan > 0


class TestOfflineResolution:
    """The runner resolves ``offline`` from its variants, like any scheme."""

    def test_variants_are_flat_then_the_sweep(self):
        config = RunConfig(
            benchmark=FAST, scheme="offline", seed=3, cta_threads=64,
            stream_policy=PER_PARENT_CTA, trace_interval=500.0,
        )
        variants = offline_variants(config)
        thresholds = get_benchmark(FAST).sweep_thresholds
        assert [v.scheme for v in variants] == ["flat"] + [
            f"threshold:{t}" for t in thresholds
        ]
        for variant in variants:
            assert variant.key()[2:] == config.key()[2:]

    def test_cached_is_none_until_every_variant_is_cached(self):
        warm = Runner()
        offline = RunConfig(benchmark=FAST, scheme="offline")
        expected = warm.run(offline)
        cold = Runner()
        variants = offline_variants(offline)
        for variant in variants:
            assert cold.cached(offline) is None
            cold.cache_result(variant, warm.cached(variant))
        assert cold.cached(offline) is expected

    def test_traced_offline_traces_the_winning_run_only(self, runner):
        threshold, _ = offline_search(runner, FAST)
        tracer = Tracer()
        Runner().run(RunConfig(benchmark=FAST, scheme="offline"), tracer=tracer)
        winner = Tracer()
        Runner().run(
            RunConfig(benchmark=FAST, scheme=f"threshold:{threshold}"),
            tracer=winner,
        )
        assert tracer.num_events > 0
        assert [(e.ts, e.kind) for e in tracer.events()] == [
            (e.ts, e.kind) for e in winner.events()
        ]

    def test_zero_makespan_is_an_error(self, runner):
        flat = runner.run(RunConfig(benchmark=FAST, scheme="flat"))
        broken = SimResult(FAST, "threshold", SimStats())
        with pytest.raises(HarnessError, match="zero makespan"):
            speedup_over_flat(flat, broken, RunConfig(FAST, "threshold:1"))


class TestAggregation:
    def test_geometric_mean(self):
        assert geometric_mean([2.0, 8.0]) == pytest.approx(4.0)

    def test_geometric_mean_validation(self):
        with pytest.raises(HarnessError):
            geometric_mean([])
        with pytest.raises(HarnessError):
            geometric_mean([1.0, 0.0])


class TestReport:
    def test_format_table_aligns(self):
        text = format_table(["a", "bb"], [[1, 2.5], ["xx", 3.0]], title="t")
        lines = text.splitlines()
        assert lines[0] == "t"
        assert "2.500" in text

    def test_format_series_downsamples(self):
        text = format_series("s", [(float(i), i) for i in range(100)], max_points=5)
        assert text.count("\n") <= 8

    def test_percent(self):
        assert percent(0.5) == "50.0%"
