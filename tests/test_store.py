"""Tests for the persistent on-disk result store (.repro-cache)."""

import json

import pytest

from repro.harness import store as store_mod
from repro.harness.runner import RunConfig, Runner
from repro.harness.store import ResultStore, open_store
from repro.obs.metrics import METRICS
from repro.sim.config import GPUConfig

FAST = "GC-citation"


@pytest.fixture
def config():
    return GPUConfig()


@pytest.fixture
def run_config():
    return RunConfig(benchmark=FAST, scheme="spawn")


class TestKeying:
    def test_key_is_stable(self, config, run_config):
        key1 = ResultStore.key_for(run_config, config, 1000)
        key2 = ResultStore.key_for(run_config, config, 1000)
        assert key1 == key2
        assert len(key1) == 64  # sha256 hex

    def test_every_run_field_participates(self, config):
        base = RunConfig(benchmark=FAST, scheme="spawn")
        variants = [
            RunConfig(benchmark="MM-small", scheme="spawn"),
            RunConfig(benchmark=FAST, scheme="flat"),
            RunConfig(benchmark=FAST, scheme="spawn", seed=2),
            RunConfig(benchmark=FAST, scheme="spawn", cta_threads=64),
            RunConfig(benchmark=FAST, scheme="spawn", stream_policy="per-parent-cta"),
            RunConfig(benchmark=FAST, scheme="spawn", trace_interval=500.0),
        ]
        base_key = ResultStore.key_for(base, config, 1000)
        for variant in variants:
            assert ResultStore.key_for(variant, config, 1000) != base_key

    def test_gpu_config_and_budget_participate(self, config, run_config):
        base_key = ResultStore.key_for(run_config, config, 1000)
        other_gpu = GPUConfig(num_smx=7)
        assert ResultStore.key_for(run_config, other_gpu, 1000) != base_key
        assert ResultStore.key_for(run_config, config, 2000) != base_key

    def test_schema_version_participates(self, config, run_config, monkeypatch):
        before = ResultStore.key_for(run_config, config, 1000)
        monkeypatch.setattr(store_mod, "SCHEMA_VERSION", store_mod.SCHEMA_VERSION + 1)
        assert ResultStore.key_for(run_config, config, 1000) != before


class TestRoundTrip:
    def test_save_load_summary_identical(self, tmp_path, run_config):
        runner = Runner()
        result = runner.run(run_config)
        store = open_store(tmp_path)
        key = store.key_for(run_config, runner.config, runner.max_events)
        store.save(key, result)
        assert store.contains(key)
        loaded = open_store(tmp_path).load(key)
        assert loaded is not None
        assert loaded.summary() == result.summary()
        assert loaded.makespan == result.makespan
        assert loaded.app_name == result.app_name
        # Figure inputs round-trip too, not just headline metrics.
        assert len(loaded.stats.trace) == len(result.stats.trace)
        assert loaded.stats.launch_times == result.stats.launch_times
        assert loaded.stats.smx_occupancy == result.stats.smx_occupancy

    def test_missing_key_is_none(self, tmp_path):
        assert open_store(tmp_path).load("ab" * 32) is None

    def test_corrupt_entry_is_miss_and_removed(self, tmp_path, run_config):
        runner = Runner()
        store = open_store(tmp_path)
        key = store.key_for(run_config, runner.config, runner.max_events)
        store.save(key, runner.run(run_config))
        path = store._path(key)
        path.write_text("{ not json")
        assert store.load(key) is None
        assert not path.exists()

    def test_schema_bump_invalidates_stale_entries(
        self, tmp_path, run_config, monkeypatch
    ):
        runner = Runner()
        store = open_store(tmp_path)
        old_key = store.key_for(run_config, runner.config, runner.max_events)
        store.save(old_key, runner.run(run_config))
        monkeypatch.setattr(store_mod, "SCHEMA_VERSION", store_mod.SCHEMA_VERSION + 1)
        # The new key cannot see the old entry...
        new_key = store.key_for(run_config, runner.config, runner.max_events)
        assert new_key != old_key
        assert store.load(new_key) is None
        # ...and even a reader holding the stale key rejects the payload.
        assert store.load(old_key) is None


class TestMaintenance:
    def test_stats_and_clear(self, tmp_path, run_config):
        runner = Runner()
        store = open_store(tmp_path)
        empty = store.stats()
        assert empty.entries == 0 and empty.total_bytes == 0
        result = runner.run(run_config)
        store.save(store.key_for(run_config, runner.config, runner.max_events), result)
        other = RunConfig(benchmark=FAST, scheme="flat")
        store.save(store.key_for(other, runner.config, runner.max_events), runner.run(other))
        stats = store.stats()
        assert stats.entries == 2
        assert stats.total_bytes > 0
        assert store.clear() == 2
        assert store.stats().entries == 0

    def test_env_var_overrides_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv(store_mod.ENV_CACHE_DIR, str(tmp_path / "elsewhere"))
        assert ResultStore().root == tmp_path / "elsewhere"
        monkeypatch.delenv(store_mod.ENV_CACHE_DIR)
        assert str(ResultStore().root) == store_mod.DEFAULT_CACHE_DIR


class TestRunnerIntegration:
    def test_memory_then_disk_then_simulate(self, tmp_path, run_config):
        first = Runner(store=open_store(tmp_path))
        result = first.run(run_config)
        # A second runner (fresh process stand-in) answers from disk.
        disk_hits = METRICS.counter("runner.disk_hits")
        before = disk_hits.value
        second = Runner(store=open_store(tmp_path))
        loaded = second.run(run_config)
        assert loaded.summary() == result.summary()
        assert disk_hits.value == before + 1
        # The disk hit was promoted to memory: third call touches no disk.
        second.run(run_config)
        assert disk_hits.value == before + 1

    def test_cached_probe_does_not_simulate(self, tmp_path, run_config):
        warm = Runner(store=open_store(tmp_path))
        warm.run(run_config)
        probe = Runner(store=open_store(tmp_path))
        assert probe.cached(run_config) is not None
        assert probe.cached(RunConfig(benchmark=FAST, scheme="dtbl")) is None

    def test_no_store_by_default(self, run_config):
        runner = Runner()
        assert runner.store is None

    def test_trace_interval_not_conflated(self, tmp_path):
        """Regression: runs differing only in trace_interval are distinct."""
        runner = Runner(store=open_store(tmp_path))
        coarse = runner.run(RunConfig(benchmark=FAST, scheme="flat"))
        fine = runner.run(
            RunConfig(benchmark=FAST, scheme="flat", trace_interval=100.0)
        )
        assert coarse is not fine
        assert len(fine.stats.trace) > len(coarse.stats.trace)
        # And the memory-cache key separates them as well.
        assert (
            RunConfig(benchmark=FAST, scheme="flat").key()
            != RunConfig(benchmark=FAST, scheme="flat", trace_interval=100.0).key()
        )


class TestSchemaMigration:
    """Entries written under schema v4 (RunConfig still keyed an engine)."""

    @staticmethod
    def _v4_key(run_config, config, max_events):
        import dataclasses
        import hashlib

        document = {
            "schema": 4,
            "run": list(run_config.key()) + ["default"],
            "gpu": dataclasses.asdict(config),
            "max_events": max_events,
        }
        canonical = json.dumps(document, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def test_v4_entry_on_disk_is_a_clean_miss(self, tmp_path, config, run_config):
        result = Runner(config).run(run_config)
        store = open_store(tmp_path)
        runner = Runner(config, store=store)
        v4_key = self._v4_key(run_config, config, runner.max_events)
        store.backend.save(v4_key, {"schema": 4, "result": result.to_dict()})
        # The v5 key differs, so the v4 entry is never even looked at...
        assert store.key_for(run_config, config, runner.max_events) != v4_key
        assert runner.cached(run_config) is None
        # ...and a v4 payload reached directly is dropped, not misread.
        assert store.load(v4_key) is None
        assert not store.contains(v4_key)
        # The run simulates afresh and lands under the v5 key.
        assert runner.run(run_config).summary() == result.summary()
        assert Runner(config, store=open_store(tmp_path)).cached(run_config)
