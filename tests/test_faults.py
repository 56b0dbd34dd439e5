"""Chaos tests: deterministic fault injection against the suite executor.

The headline assertions mirror the ISSUE acceptance criteria: with faults
injected (worker kills, hangs past the timeout, torn payloads, flaky
store IO) a parallel suite still completes, and every retried task's
result is **bit-identical** to a fault-free serial run.  A permanently
failing run is quarantined and reported without aborting the others.

``TestServiceChaos`` lifts the same guarantees one layer up: the same
fault plans injected *under live service traffic* must leave the
:class:`~repro.service.SimulationService` standing — quarantined jobs
fail their own handles and show up in the stats ledger, everything else
completes bit-identically, and no submission is ever lost.
"""

import asyncio
import json

import pytest

from repro.errors import HarnessError, RunFailure, SimulationError, WorkerCrash
from repro.harness.faults import ENV_FAULTS, FaultPlan, FlakyStore
from repro.harness.parallel import (
    FAILED,
    OK,
    SKIPPED,
    ExecutionPolicy,
    ParallelRunner,
)
from repro.harness.runner import RunConfig, Runner
from repro.harness.store import open_store
from repro.service import ServiceConfig, SimulationService

#: The two cheapest end-to-end benchmarks.
FAST = "GC-citation"
FAST2 = "MM-small"

#: The chaos suite: four cheap runs across two benchmarks.
CONFIGS = [
    RunConfig(benchmark=FAST, scheme="flat"),
    RunConfig(benchmark=FAST, scheme="spawn"),
    RunConfig(benchmark=FAST2, scheme="flat"),
    RunConfig(benchmark=FAST2, scheme="spawn"),
]


@pytest.fixture(scope="module")
def baseline():
    """Fault-free serial summaries, the bit-identity reference."""
    runner = Runner()
    return [runner.run(config).summary() for config in CONFIGS]


def assert_bit_identical(report, baseline):
    assert report.ok
    assert [r.summary() for r in report.results] == baseline


class TestFaultPlanModel:
    def test_round_trips_through_dict(self):
        plan = FaultPlan(kill_on_dispatch=3, delay_on_dispatch=1, delay_seconds=0.5)
        assert FaultPlan.from_dict(plan.to_dict()) == plan

    def test_rejects_unknown_fields(self):
        with pytest.raises(HarnessError, match="unknown fault plan field"):
            FaultPlan.from_dict({"kill_on_dispach": 3})

    def test_delay_needs_duration(self):
        with pytest.raises(HarnessError):
            FaultPlan(delay_on_dispatch=0)

    def test_noop_detection(self):
        assert FaultPlan().is_noop()
        assert not FaultPlan(kill_on_dispatch=0).is_noop()
        # A ParallelRunner drops a no-op plan entirely.
        assert ParallelRunner(jobs=1, faults=FaultPlan()).faults is None

    def test_from_env(self, monkeypatch):
        monkeypatch.delenv(ENV_FAULTS, raising=False)
        assert FaultPlan.from_env() is None
        monkeypatch.setenv(ENV_FAULTS, json.dumps({"kill_on_dispatch": 2}))
        assert FaultPlan.from_env() == FaultPlan(kill_on_dispatch=2)
        monkeypatch.setenv(ENV_FAULTS, "{not json")
        with pytest.raises(HarnessError):
            FaultPlan.from_env()
        monkeypatch.setenv(ENV_FAULTS, "[1, 2]")
        with pytest.raises(HarnessError):
            FaultPlan.from_env()

    def test_permanent_selector_needs_every_set_field(self):
        both = FaultPlan(fail_benchmark=FAST, fail_scheme="spawn")
        assert both.permanently_fails(RunConfig(benchmark=FAST, scheme="spawn"))
        assert not both.permanently_fails(RunConfig(benchmark=FAST, scheme="flat"))
        assert not both.permanently_fails(RunConfig(benchmark=FAST2, scheme="spawn"))
        assert not FaultPlan().permanently_fails(
            RunConfig(benchmark=FAST, scheme="spawn")
        )

    def test_inline_injection_raises_typed_errors(self):
        config = RunConfig(benchmark=FAST, scheme="spawn")
        with pytest.raises(WorkerCrash):
            FaultPlan(kill_on_dispatch=5).apply_inline(5, config)
        with pytest.raises(ValueError):
            FaultPlan(corrupt_on_dispatch=5).apply_inline(5, config)
        with pytest.raises(SimulationError):
            FaultPlan(fail_benchmark=FAST).apply_inline(0, config)
        # A non-matching sequence number injects nothing.
        FaultPlan(kill_on_dispatch=5, corrupt_on_dispatch=6).apply_inline(4, config)


class TestExecutionPolicy:
    def test_validation(self):
        with pytest.raises(HarnessError):
            ExecutionPolicy(timeout=0)
        with pytest.raises(HarnessError):
            ExecutionPolicy(max_retries=-1)
        with pytest.raises(HarnessError):
            ExecutionPolicy(backoff=-0.1)
        with pytest.raises(HarnessError):
            ExecutionPolicy(max_pool_rebuilds=-1)

    def test_backoff_doubles_per_failed_attempt(self):
        policy = ExecutionPolicy(backoff=0.1)
        assert policy.backoff_seconds(1) == pytest.approx(0.1)
        assert policy.backoff_seconds(2) == pytest.approx(0.2)
        assert policy.backoff_seconds(3) == pytest.approx(0.4)
        assert ExecutionPolicy().backoff_seconds(3) == 0.0


class TestFlakyStore:
    def test_budgeted_errors_then_delegates(self, tmp_path):
        flaky = FlakyStore(open_store(tmp_path), save_errors=1, load_errors=1)
        key = flaky.key_for(CONFIGS[0], Runner().config, 1000)  # delegated
        with pytest.raises(OSError):
            flaky.load(key)
        assert flaky.load(key) is None  # budget spent; real (empty) store

    def test_runner_survives_store_io_errors(self, tmp_path):
        plan = FaultPlan(store_save_errors=10, store_load_errors=10)
        store = plan.flaky_store(open_store(tmp_path))
        runner = Runner(store=store)
        result = runner.run(CONFIGS[0])
        assert result.makespan > 0
        # Every disk write failed, but the memory cache still answers.
        assert runner.cached(CONFIGS[0]) is result
        assert open_store(tmp_path).stats().entries == 0

    def test_flaky_store_passthrough_when_no_budget(self, tmp_path):
        store = open_store(tmp_path)
        assert FaultPlan().flaky_store(store) is store
        assert FaultPlan().flaky_store(None) is None


class TestChaosDeterminism:
    """Injected faults may cost retries, never change a result."""

    def test_worker_kill_is_retried_bit_identically(self, baseline):
        pr = ParallelRunner(
            Runner(), jobs=2, faults=FaultPlan(kill_on_dispatch=0)
        )
        report = pr.run_suite(CONFIGS)
        assert report.worker_crashes >= 1
        assert report.pool_rebuilds >= 1
        assert report.retries >= 1
        assert_bit_identical(report, baseline)

    def test_hung_task_times_out_and_retries_bit_identically(self, baseline):
        pr = ParallelRunner(
            Runner(),
            jobs=2,
            policy=ExecutionPolicy(timeout=2.0),
            faults=FaultPlan(delay_on_dispatch=1, delay_seconds=6.0),
        )
        report = pr.run_suite(CONFIGS)
        assert report.timeouts >= 1
        assert report.retries >= 1
        assert_bit_identical(report, baseline)

    def test_corrupt_payload_is_retried_bit_identically(self, baseline):
        pr = ParallelRunner(
            Runner(), jobs=2, faults=FaultPlan(corrupt_on_dispatch=0)
        )
        report = pr.run_suite(CONFIGS)
        assert report.retries >= 1
        assert_bit_identical(report, baseline)

    def test_dying_pool_degrades_to_serial_bit_identically(self, baseline):
        pr = ParallelRunner(
            Runner(),
            jobs=2,
            policy=ExecutionPolicy(max_pool_rebuilds=0),
            faults=FaultPlan(kill_on_dispatch=0),
        )
        report = pr.run_suite(CONFIGS)
        assert report.serial_fallback
        assert report.worker_crashes >= 1
        assert report.pool_rebuilds == 0
        assert_bit_identical(report, baseline)

    def test_inline_faults_follow_the_same_retry_path(self, baseline):
        pr = ParallelRunner(
            Runner(),
            jobs=1,
            faults=FaultPlan(kill_on_dispatch=0, corrupt_on_dispatch=1),
        )
        report = pr.run_suite(CONFIGS)
        assert report.worker_crashes == 1
        assert report.retries >= 2
        assert_bit_identical(report, baseline)


class TestQuarantine:
    def test_permanent_failure_is_quarantined_not_fatal(self):
        plan = FaultPlan(fail_benchmark=FAST, fail_scheme="spawn")
        pr = ParallelRunner(
            Runner(), jobs=2, policy=ExecutionPolicy(max_retries=1), faults=plan
        )
        report = pr.run_suite(CONFIGS)
        assert not report.ok
        assert report.quarantined == 1
        [failure] = report.failures
        assert failure.config.benchmark == FAST
        assert failure.config.scheme == "spawn"
        assert failure.attempts == 2  # first try + one retry
        # Exactly the doomed slot is None; every other run completed.
        assert [r is None for r in report.results] == [
            c.benchmark == FAST and c.scheme == "spawn" for c in CONFIGS
        ]
        with pytest.raises(RunFailure):
            report.raise_if_failed()

    def test_run_many_raises_on_quarantine(self):
        plan = FaultPlan(fail_benchmark=FAST, fail_scheme="spawn")
        pr = ParallelRunner(
            Runner(), jobs=1, policy=ExecutionPolicy(max_retries=0), faults=plan
        )
        with pytest.raises(RunFailure):
            pr.run_many(CONFIGS)

    def test_fail_fast_skips_the_rest(self):
        plan = FaultPlan(fail_benchmark=FAST, fail_scheme="spawn")
        pr = ParallelRunner(
            Runner(),
            jobs=1,
            policy=ExecutionPolicy(max_retries=0, fail_fast=True),
            faults=plan,
        )
        # Doomed config first, so everything behind it is skipped.
        ordered = [CONFIGS[1], CONFIGS[0], CONFIGS[2]]
        report = pr.run_suite(ordered)
        statuses = [o.status for o in report.outcomes]
        assert statuses == [FAILED, SKIPPED, SKIPPED]
        assert report.results == [None, None, None]
        with pytest.raises(RunFailure):
            report.raise_if_failed()


class TestResume:
    def test_resume_dispatches_only_missing_configs(self, tmp_path):
        # First (partial) pass: two of the four runs reach the store.
        first = Runner(store=open_store(tmp_path))
        for config in CONFIGS[:2]:
            first.run(config)
        # Fresh process-equivalent: cold memory cache, same store.
        pr = ParallelRunner(Runner(store=open_store(tmp_path)), jobs=2)
        report = pr.run_suite(CONFIGS)
        assert report.resumed == 2
        # Only the two missing configs became work items.
        assert [o.config.key() for o in report.outcomes] == [
            c.key() for c in CONFIGS[2:]
        ]
        assert all(o.status == OK for o in report.outcomes)
        assert report.ok and all(r is not None for r in report.results)
        assert open_store(tmp_path).stats().entries == 4

    def test_fully_cached_suite_dispatches_nothing(self, tmp_path):
        warm = Runner(store=open_store(tmp_path))
        ParallelRunner(warm, jobs=1).run_many(CONFIGS)
        pr = ParallelRunner(Runner(store=open_store(tmp_path)), jobs=2)
        report = pr.run_suite(CONFIGS)
        assert report.resumed == len(CONFIGS)
        assert report.outcomes == []
        assert report.ok


def serve_chaos(configs, *, faults, runner=None, policy=None, jobs=2):
    """Burst ``configs`` through one faulted service; (stats, results)."""

    async def _drive():
        service = SimulationService(
            runner if runner is not None else Runner(),
            config=ServiceConfig(jobs=jobs),
            policy=policy,
            faults=faults,
        )
        async with service:
            handles = [await service.submit(config) for config in configs]
            results = await service.gather(handles, return_exceptions=True)
        return service.stats(), results

    return asyncio.run(_drive())


class TestServiceChaos:
    """The execution layer's chaos guarantees hold behind the service."""

    def test_worker_kill_under_live_traffic_is_retried(self, baseline):
        stats, results = serve_chaos(
            CONFIGS, faults=FaultPlan(kill_on_dispatch=0)
        )
        assert stats.worker_crashes >= 1
        assert stats.retries >= 1
        # The kill cost a retry inside the batch, never a client error.
        assert stats.failed == 0
        assert stats.completed == len(CONFIGS)
        assert stats.lost == 0
        assert [r.summary() for r in results] == baseline

    def test_permanent_failure_quarantines_only_its_own_handle(
        self, baseline
    ):
        stats, results = serve_chaos(
            CONFIGS,
            faults=FaultPlan(fail_benchmark=FAST, fail_scheme="spawn"),
            policy=ExecutionPolicy(max_retries=1),
        )
        # The ledger reports the quarantined job...
        assert stats.quarantined == 1
        assert stats.failed == 1
        assert stats.completed == len(CONFIGS) - 1
        assert stats.lost == 0
        # ...and only the doomed handle failed, with the typed error.
        doomed = [
            isinstance(result, RunFailure) for result in results
        ]
        assert doomed == [
            c.benchmark == FAST and c.scheme == "spawn" for c in CONFIGS
        ]
        [failure] = [r for r in results if isinstance(r, RunFailure)]
        assert failure.config.scheme == "spawn"
        survivors = [
            result.summary()
            for result in results
            if not isinstance(result, RunFailure)
        ]
        expected = [
            summary
            for config, summary in zip(CONFIGS, baseline)
            if not (config.benchmark == FAST and config.scheme == "spawn")
        ]
        assert survivors == expected

    def test_flaky_store_under_live_traffic(self, baseline, tmp_path):
        plan = FaultPlan(store_save_errors=10, store_load_errors=10)
        runner = Runner(store=plan.flaky_store(open_store(tmp_path)))
        stats, results = serve_chaos(CONFIGS, faults=plan, runner=runner)
        assert stats.failed == 0
        assert stats.lost == 0
        assert [r.summary() for r in results] == baseline
        # Every disk write failed; the service never noticed.
        assert open_store(tmp_path).stats().entries == 0

    def test_combined_kill_and_flaky_store_completes_the_rest(
        self, baseline, tmp_path
    ):
        """The ISSUE's chaos variant: worker kill + torn store IO +
        a permanently failing pair, all under one live service."""
        plan = FaultPlan(
            kill_on_dispatch=0,
            fail_benchmark=FAST,
            fail_scheme="spawn",
            store_save_errors=10,
            store_load_errors=10,
        )
        runner = Runner(store=plan.flaky_store(open_store(tmp_path)))
        stats, results = serve_chaos(
            CONFIGS,
            faults=plan,
            runner=runner,
            policy=ExecutionPolicy(max_retries=1),
        )
        assert stats.worker_crashes >= 1
        assert stats.quarantined == 1
        assert stats.failed == 1
        assert stats.completed == len(CONFIGS) - 1
        assert stats.lost == 0
        survivors = [
            result.summary()
            for result in results
            if not isinstance(result, RunFailure)
        ]
        expected = [
            summary
            for config, summary in zip(CONFIGS, baseline)
            if not (config.benchmark == FAST and config.scheme == "spawn")
        ]
        assert survivors == expected

    def test_repro_serve_honours_env_fault_plan(self, monkeypatch, tmp_path):
        """`REPRO_FAULTS` reaches the service through the CLI, and a
        faulted serve still drains clean (exit 0, nothing lost)."""
        from repro.cli import main

        monkeypatch.setenv(
            ENV_FAULTS,
            json.dumps(
                {
                    "kill_on_dispatch": 0,
                    "store_save_errors": 5,
                    "store_load_errors": 5,
                }
            ),
        )
        stats_path = tmp_path / "stats.json"
        code = main(
            [
                "serve", "--synthetic", "6", "--jobs", "2",
                "--store", str(tmp_path / "cache"),
                "--stats-json", str(stats_path),
            ]
        )
        assert code == 0
        stats = json.loads(stats_path.read_text())
        assert stats["submitted"] == 6
        assert stats["failed"] == 0
        assert stats["lost"] == 0
        assert stats["worker_crashes"] >= 1
