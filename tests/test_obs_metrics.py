"""Tests for repro.obs.metrics: instruments, registry, exporters.

The headline property: a Histogram's p50/p95/p99 always lands within one
bucket width of the exact nearest-rank quantile computed over the raw
sorted samples (hypothesis pins this over arbitrary sample sets).
"""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.metrics import (
    DEFAULT_IO_BUCKETS,
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    exact_quantile,
)


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        counter = Counter()
        assert counter.value == 0.0
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_rejects_negative_increments(self):
        with pytest.raises(ValueError):
            Counter().inc(-1)


class TestGauge:
    def test_moves_both_ways(self):
        gauge = Gauge()
        gauge.set(10)
        gauge.inc(5)
        gauge.dec(12)
        assert gauge.value == 3.0


class TestHistogramBasics:
    def test_bounds_must_be_positive_increasing(self):
        with pytest.raises(ValueError):
            Histogram([])
        with pytest.raises(ValueError):
            Histogram([0.0, 1.0])
        with pytest.raises(ValueError):
            Histogram([1.0, 1.0])
        with pytest.raises(ValueError):
            Histogram([2.0, 1.0])

    def test_rejects_negative_observations(self):
        with pytest.raises(ValueError):
            Histogram([1.0]).observe(-0.1)

    def test_counts_land_in_the_right_buckets(self):
        hist = Histogram([1.0, 2.0])
        for value in (0.5, 1.0, 1.5, 5.0):
            hist.observe(value)
        # (0,1], (1,2], overflow
        assert hist.counts == [2, 1, 1]
        assert hist.count == 4
        assert hist.sum == pytest.approx(8.0)
        assert hist.min == 0.5
        assert hist.max == 5.0

    def test_quantile_of_empty_histogram_is_none(self):
        hist = Histogram([1.0])
        assert hist.quantile(0.5) is None
        assert hist.percentiles() == {}
        assert hist.summary() == {"count": 0}

    def test_quantile_validates_range(self):
        hist = Histogram([1.0])
        hist.observe(0.5)
        with pytest.raises(ValueError):
            hist.quantile(1.5)

    def test_quantile_clamped_to_observed_extremes(self):
        hist = Histogram([10.0])
        hist.observe(2.0)
        hist.observe(3.0)
        for q in (0.0, 0.5, 1.0):
            estimate = hist.quantile(q)
            assert 2.0 <= estimate <= 3.0

    def test_overflow_bucket_upper_edge_is_observed_max(self):
        hist = Histogram([1.0])
        hist.observe(42.0)
        assert hist.bucket_edges(1) == (1.0, 42.0)
        assert hist.quantile(1.0) == pytest.approx(42.0)

    def test_summary_has_all_digest_keys(self):
        hist = Histogram(DEFAULT_LATENCY_BUCKETS)
        for value in (0.001, 0.01, 0.1):
            hist.observe(value)
        summary = hist.summary()
        assert set(summary) == {
            "count", "sum", "mean", "min", "max", "p50", "p95", "p99",
        }


class TestExactQuantile:
    def test_matches_nearest_rank_selection(self):
        samples = [5.0, 1.0, 3.0, 2.0, 4.0]
        assert exact_quantile(samples, 0.0) == 1.0
        assert exact_quantile(samples, 0.5) == 3.0
        assert exact_quantile(samples, 1.0) == 5.0

    def test_empty_and_out_of_range_raise(self):
        with pytest.raises(ValueError):
            exact_quantile([], 0.5)
        with pytest.raises(ValueError):
            exact_quantile([1.0], 2.0)


def _bucket_width_at(hist, value):
    lower, upper = hist.bucket_edges(hist._bucket_index(value))
    return upper - lower


class TestQuantileAccuracyProperty:
    """estimate and exact reference always share one bucket interval."""

    @settings(max_examples=200, deadline=None)
    @given(
        samples=st.lists(
            st.floats(
                min_value=0.0, max_value=120.0,
                allow_nan=False, allow_infinity=False,
            ),
            min_size=1, max_size=80,
        ),
        q=st.sampled_from([0.5, 0.9, 0.95, 0.99, 0.0, 1.0]),
    )
    def test_within_one_bucket_width(self, samples, q):
        hist = Histogram(DEFAULT_LATENCY_BUCKETS)
        for value in samples:
            hist.observe(value)
        estimate = hist.quantile(q)
        exact = exact_quantile(samples, q)
        width = _bucket_width_at(hist, exact)
        assert abs(estimate - exact) <= width + 1e-9
        # And the clamp guarantee: never outside the observed range.
        assert min(samples) - 1e-12 <= estimate <= max(samples) + 1e-12

    @settings(max_examples=100, deadline=None)
    @given(
        samples=st.lists(
            st.floats(
                min_value=0.0, max_value=2.0,
                allow_nan=False, allow_infinity=False,
            ),
            min_size=1, max_size=50,
        )
    )
    def test_headline_percentiles_within_one_bucket(self, samples):
        hist = Histogram(DEFAULT_IO_BUCKETS)
        for value in samples:
            hist.observe(value)
        percentiles = hist.percentiles()
        for name, q in (("p50", 0.50), ("p95", 0.95), ("p99", 0.99)):
            exact = exact_quantile(samples, q)
            width = _bucket_width_at(hist, exact)
            assert abs(percentiles[name] - exact) <= width + 1e-9


class TestRegistry:
    def test_instruments_are_created_once_and_shared(self):
        registry = MetricsRegistry()
        a = registry.counter("requests", route="cached")
        b = registry.counter("requests", route="cached")
        assert a is b
        assert registry.counter("requests", route="inline") is not a
        assert len(registry) == 2

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError):
            registry.gauge("x")
        with pytest.raises(ValueError):
            registry.histogram("x")

    def test_histogram_buckets_respected_on_first_use(self):
        registry = MetricsRegistry()
        hist = registry.histogram("io", buckets=(0.1, 1.0))
        assert hist.bounds == (0.1, 1.0)

    def test_clear_empties_the_registry(self):
        registry = MetricsRegistry()
        registry.counter("x").inc()
        registry.clear()
        assert len(registry) == 0

    def test_to_dict_sections_and_keys(self):
        registry = MetricsRegistry()
        registry.counter("req", route="batch").inc(3)
        registry.gauge("depth").set(7)
        registry.histogram("lat").observe(0.02)
        payload = registry.to_dict()
        assert payload["counters"] == {"req{route=batch}": 3.0}
        assert payload["gauges"] == {"depth": 7.0}
        assert payload["histograms"]["lat"]["count"] == 1
        json.dumps(payload)  # JSON-ready, no exotic values

    def test_prometheus_exposition_format(self):
        registry = MetricsRegistry()
        registry.counter("service.requests_total", route="cached").inc(2)
        registry.gauge("service.queue_depth").set(4)
        hist = registry.histogram("service.lat", buckets=(0.1, 1.0))
        hist.observe(0.05)
        hist.observe(0.5)
        hist.observe(3.0)
        text = registry.to_prometheus()
        assert "# TYPE service_requests_total counter" in text
        assert 'service_requests_total{route="cached"} 2' in text
        assert "service_queue_depth 4" in text
        # Cumulative buckets: 1 at <=0.1, 2 at <=1.0, 3 at +Inf.
        assert 'service_lat_bucket{le="0.1"} 1' in text
        assert 'service_lat_bucket{le="1"} 2' in text
        assert 'service_lat_bucket{le="+Inf"} 3' in text
        assert "service_lat_count 3" in text
        assert text.endswith("\n")

    def test_prometheus_empty_registry_is_empty_string(self):
        assert MetricsRegistry().to_prometheus() == ""


class TestDefaultBucketLadders:
    def test_ladders_are_strictly_increasing(self):
        for ladder in (DEFAULT_LATENCY_BUCKETS, DEFAULT_IO_BUCKETS):
            assert all(a < b for a, b in zip(ladder, ladder[1:]))
            assert all(b > 0 for b in ladder)
            assert not math.isinf(ladder[-1])


class TestRunnerIntegration:
    """The runner reports into :data:`METRICS` (what ``run --profile`` reads)."""

    def test_runner_times_simulations_and_counts_cache(self):
        from repro.harness.runner import RunConfig, Runner
        from repro.obs.metrics import METRICS

        METRICS.clear()
        config = RunConfig(benchmark="GC-citation", scheme="flat")
        runner = Runner()
        runner.run(config)
        runner.run(config)  # cache hit
        Runner().run(config)  # a second simulation of the same pair
        timer = METRICS.histogram(
            "sim.run_seconds", benchmark="GC-citation", scheme="flat"
        )
        # Repeats aggregate into one series: count, total, mean, max.
        assert timer.count == 2
        assert timer.sum > 0.0 and timer.max <= timer.sum
        assert timer.mean == pytest.approx(timer.sum / 2)
        assert METRICS.counter("runner.cache_hits").value == 1.0
        assert METRICS.counter("runner.cache_misses").value == 2.0
