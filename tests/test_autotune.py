"""Convergence suite for the online autotuner (ISSUE 10).

The contract under test: :mod:`repro.service.autotune` closes the loop
the paper left offline.  Successive halving over exactly the
Offline-Search sweep grid must be

* **on-grid** — every proposal is a grid arm, nothing else ever runs;
* **deterministic** — the whole trajectory is a pure function of
  ``(arms, seed, observation sequence)``; the seed only permutes the
  exploration order and never changes the survivor;
* **bounded** — a full halving takes exactly ``ceil(log2(arms))``
  elimination rounds, and the per-round incumbent cost is monotone
  non-increasing under deterministic per-arm costs;
* **correct** — the survivor is the argmin of the cost table
  (grid-order tie-break), which for the makespan objective *is* the
  Offline-Search winner;

and the service integration must keep every ledger invariant intact
while tuning: seeded traffic converges to the Offline-Search-best arm,
converged steady-state results are bit-identical to a
serial :meth:`Runner.run`, and neither worker kills nor a flaky store
backend can lose a request (``lost == 0``,
``submitted == completed + failed + shed + in_flight``).

Cost tables with ``exact=True`` draw integer-valued floats so arm means
are exact (sums of integers below 2**53 and the final division are both
representable), keeping the argmin/monotonicity properties free of
float-accumulation noise — just as the integral makespan objective is.
"""

from __future__ import annotations

import asyncio
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import HarnessError
from repro.harness.faults import FaultPlan, FlakyStore
from repro.harness.runner import RunConfig, Runner
from repro.harness.store import open_store
from repro.harness.sweep import offline_search
from repro.service import (
    FleetConfig,
    ServiceConfig,
    ServiceFleet,
    SimulationService,
    generate_traffic,
)
from repro.service.autotune import (
    AGGREGATE_FAMILY,
    CONSOLIDATE_BATCH_GRID,
    CONSOLIDATE_FAMILY,
    THRESHOLD_FAMILY,
    AutoTuner,
    SuccessiveHalvingTuner,
    arm_grid,
    family_of,
    merge_autotune_snapshots,
)
from repro.workloads.base import get_benchmark
from tests.strategies import arm_schedules, observation_sequences, sweep_grids

BENCH = "MM-small"  # smallest threshold grid (5 arms) -> fastest soaks
PAIR = f"{BENCH}/{THRESHOLD_FAMILY}"


def drive_tuner(tuner, costs):
    """Pull ``tuner.propose()`` against a deterministic cost table until
    convergence; returns the pull sequence (the arm of each pull)."""
    pulls = []
    limit = 16 * len(tuner.arms) + 16
    while not tuner.converged:
        arm = tuner.propose()
        tuner.observe(arm, costs[arm])
        pulls.append(arm)
        assert len(pulls) <= limit, "halving failed to terminate"
    return pulls


def assert_ledger_invariants(stats):
    assert stats.lost == 0
    assert stats.submitted == (
        stats.completed + stats.failed + stats.shed + stats.in_flight
    )


# ----------------------------------------------------------------------
# Families and grids
# ----------------------------------------------------------------------
class TestFamiliesAndGrids:
    @pytest.mark.parametrize(
        "scheme, family",
        [
            ("baseline-dp", THRESHOLD_FAMILY),
            ("spawn", THRESHOLD_FAMILY),
            ("dtbl", THRESHOLD_FAMILY),
            ("threshold:64", THRESHOLD_FAMILY),
            ("consolidate", CONSOLIDATE_FAMILY),
            ("consolidate:8", CONSOLIDATE_FAMILY),
            ("aggregate:warp", AGGREGATE_FAMILY),
            ("aggregate:grid", AGGREGATE_FAMILY),
        ],
    )
    def test_tunable_schemes_map_to_their_family(self, scheme, family):
        assert family_of(scheme) == family

    @pytest.mark.parametrize("scheme", ["flat", "offline", "acs"])
    def test_untunable_schemes_have_no_family(self, scheme):
        assert family_of(scheme) is None

    def test_threshold_grid_is_the_offline_search_sweep(self):
        grid = arm_grid(BENCH, THRESHOLD_FAMILY)
        sweep = get_benchmark(BENCH).sweep_thresholds
        assert grid == tuple(f"threshold:{t}" for t in sweep)

    def test_consolidate_and_aggregate_grids(self):
        assert arm_grid(BENCH, CONSOLIDATE_FAMILY) == tuple(
            f"consolidate:{b}" for b in CONSOLIDATE_BATCH_GRID
        )
        assert arm_grid(BENCH, AGGREGATE_FAMILY) == (
            "aggregate:warp", "aggregate:block", "aggregate:grid",
        )

    def test_unknown_family_raises(self):
        with pytest.raises(HarnessError):
            arm_grid(BENCH, "voltage")


# ----------------------------------------------------------------------
# Tuner construction and bookkeeping
# ----------------------------------------------------------------------
class TestTunerValidation:
    def test_rejects_empty_and_duplicate_grids(self):
        with pytest.raises(HarnessError):
            SuccessiveHalvingTuner(())
        with pytest.raises(HarnessError):
            SuccessiveHalvingTuner(("a", "b", "a"))

    def test_rejects_bad_pulls_per_round(self):
        with pytest.raises(HarnessError):
            SuccessiveHalvingTuner(("a", "b"), pulls_per_round=0)
        with pytest.raises(HarnessError):
            AutoTuner(pulls_per_round=0)

    def test_rejects_negative_cost_and_unknown_arm(self):
        tuner = SuccessiveHalvingTuner(("a", "b"))
        with pytest.raises(HarnessError):
            tuner.observe("a", -1.0)
        with pytest.raises(HarnessError):
            tuner.observe("z", 1.0)

    def test_single_arm_is_born_converged(self):
        tuner = SuccessiveHalvingTuner(("only",))
        assert tuner.converged
        assert tuner.rounds_total == 0
        assert tuner.propose() == "only"
        # Observations still keep the ledger (cache hits arrive forever).
        tuner.observe("only", 3.0)
        assert tuner.incumbent() == ("only", 3.0)

    def test_eliminated_arm_is_recorded_but_not_resurrected(self):
        tuner = SuccessiveHalvingTuner(("a", "b", "c", "d"), seed=0)
        for arm, cost in [("a", 1.0), ("b", 2.0), ("c", 3.0), ("d", 4.0)]:
            tuner.observe(arm, cost)
        assert tuner.round == 1
        (gone,) = [arm for arm in ("c", "d") if arm not in tuner.alive][:1]
        before = tuner.alive
        tuner.observe(gone, 0.0)  # in-flight completion after the cut
        assert tuner.alive == before
        assert tuner.state(gone).pulls == 2

    def test_regret_estimate_shrinks_toward_zero_once_converged(self):
        costs = {"a": 1.0, "b": 5.0}
        tuner = SuccessiveHalvingTuner(tuple(costs), seed=1)
        drive_tuner(tuner, costs)
        first = tuner.regret_estimate()
        for _ in range(50):  # steady state: every pull is the incumbent
            tuner.observe(tuner.propose(), costs[tuner.propose()])
        assert tuner.regret_estimate() < first


# ----------------------------------------------------------------------
# The four pinned properties
# ----------------------------------------------------------------------
@given(arm_schedules())
def test_proposals_never_leave_the_grid(schedule):
    arms, seed, costs = schedule
    tuner = SuccessiveHalvingTuner(arms, seed=seed)
    for arm in drive_tuner(tuner, costs):
        assert arm in arms
    # Converged: the proposal is the survivor, forever.
    assert tuner.propose() in arms
    assert tuner.propose() == tuner.alive[0]


@given(arm_schedules())
def test_halving_terminates_in_log2_rounds_with_minimal_pulls(schedule):
    arms, seed, costs = schedule
    tuner = SuccessiveHalvingTuner(arms, seed=seed)
    pulls = drive_tuner(tuner, costs)
    expected_rounds = math.ceil(math.log2(len(arms))) if len(arms) > 1 else 0
    assert tuner.round == expected_rounds == tuner.rounds_total
    assert [summary.round for summary in tuner.history] == list(
        range(1, expected_rounds + 1)
    )
    # Driven by propose(), each round costs exactly one fresh pull per
    # alive arm: n + ceil(n/2) + ceil(ceil(n/2)/2) + ... pulls in total.
    expected_pulls, alive = 0, len(arms)
    while alive > 1:
        expected_pulls += alive
        alive = math.ceil(alive / 2)
    assert len(pulls) == expected_pulls


@given(arm_schedules(exact=True))
def test_survivor_is_the_argmin_of_the_cost_table(schedule):
    arms, seed, costs = schedule
    tuner = SuccessiveHalvingTuner(arms, seed=seed)
    drive_tuner(tuner, costs)
    best = min(arms, key=lambda arm: (costs[arm], arms.index(arm)))
    assert tuner.alive == (best,)
    if len(arms) > 1:  # a one-arm grid is born converged, unobserved
        assert tuner.incumbent() == (best, costs[best])


@given(arm_schedules(exact=True))
def test_incumbent_cost_is_monotone_non_increasing_per_round(schedule):
    arms, seed, costs = schedule
    tuner = SuccessiveHalvingTuner(arms, seed=seed)
    drive_tuner(tuner, costs)
    trajectory = [summary.incumbent_cost for summary in tuner.history]
    assert all(b <= a for a, b in zip(trajectory, trajectory[1:]))


@given(arm_schedules(exact=True), st.integers(min_value=0, max_value=1 << 16))
def test_seed_permutes_exploration_but_never_the_survivor(schedule, other_seed):
    arms, seed, costs = schedule
    first = SuccessiveHalvingTuner(arms, seed=seed)
    second = SuccessiveHalvingTuner(arms, seed=other_seed)
    assert set(first.alive) == set(second.alive) == set(arms)
    drive_tuner(first, costs)
    drive_tuner(second, costs)
    assert first.alive == second.alive


@given(sweep_grids(), st.integers(min_value=0, max_value=1 << 16), st.data())
def test_tuner_is_a_pure_function_of_seed_and_observations(grid, seed, data):
    sequence = data.draw(observation_sequences(grid))
    first = SuccessiveHalvingTuner(grid, seed=seed)
    second = SuccessiveHalvingTuner(grid, seed=seed)
    for arm, cost in sequence:
        first.observe(arm, cost)
    for arm, cost in sequence:
        second.observe(arm, cost)
    assert first.alive == second.alive
    assert first.history == second.history
    assert first.snapshot() == second.snapshot()


# ----------------------------------------------------------------------
# AutoTuner: the service-facing façade
# ----------------------------------------------------------------------
class TestAutoTuner:
    def test_untunable_schemes_pass_through_untouched(self):
        tuner = AutoTuner()
        for scheme in ("flat", "offline", "acs"):
            config = RunConfig(benchmark=BENCH, scheme=scheme)
            assert tuner.rewrite(config) is config
        assert tuner.snapshot() == {}

    def test_rewrite_proposes_a_grid_arm_and_is_stable_between_observations(self):
        tuner = AutoTuner()
        config = RunConfig(benchmark=BENCH, scheme="spawn")
        first = tuner.rewrite(config)
        assert first.scheme in arm_grid(BENCH, THRESHOLD_FAMILY)
        # No observation in between -> the same proposal, so concurrent
        # duplicates coalesce onto one simulation.
        assert tuner.rewrite(config).scheme == first.scheme

    def test_observe_routes_only_to_known_pairs_and_grid_arms(self):
        tuner = AutoTuner()
        # Pair never proposed: ignored, no tuner springs into being.
        tuner.observe(RunConfig(benchmark=BENCH, scheme="spawn"), makespan=1.0)
        assert tuner.snapshot() == {}
        proposed = tuner.rewrite(RunConfig(benchmark=BENCH, scheme="spawn"))
        # Non-grid scheme of a known pair: ignored ("spawn" itself is not
        # an arm); costless completions are ignored too.
        tuner.observe(RunConfig(benchmark=BENCH, scheme="spawn"), makespan=1.0)
        tuner.observe(proposed)
        assert tuner.snapshot()[PAIR]["pulls"] == 0
        tuner.observe(proposed, makespan=125.0)
        assert tuner.snapshot()[PAIR]["pulls"] == 1

    def test_makespan_objective_wins_over_wall_seconds(self):
        tuner = AutoTuner()
        proposed = tuner.rewrite(RunConfig(benchmark=BENCH, scheme="spawn"))
        tuner.observe(proposed, seconds=0.25, makespan=999.0)
        inner = tuner.tuner_for(BENCH, THRESHOLD_FAMILY)
        assert inner.state(proposed.scheme).total_cost == 999.0

    def test_exploration_order_is_stable_across_instances(self):
        first = AutoTuner(seed=7).tuner_for(BENCH, THRESHOLD_FAMILY)
        second = AutoTuner(seed=7).tuner_for(BENCH, THRESHOLD_FAMILY)
        assert first.alive == second.alive

    def test_pairs_get_distinct_exploration_seeds(self):
        tuner = AutoTuner(seed=7)
        assert tuner._pair_seed(BENCH, THRESHOLD_FAMILY) != tuner._pair_seed(
            "GC-citation", THRESHOLD_FAMILY
        )

    def test_warm_start_credits_cached_arms(self, tmp_path):
        seeded = Runner(store=open_store(tmp_path))
        arms = arm_grid(BENCH, THRESHOLD_FAMILY)
        for arm in arms[:2]:
            seeded.run(RunConfig(benchmark=BENCH, scheme=arm))
        # A different runner over the same store: the warm start must
        # come through the shared backend, not shared memory.
        tuner = AutoTuner(runner=Runner(store=open_store(tmp_path)))
        snap = tuner.tuner_for(BENCH, THRESHOLD_FAMILY).snapshot()
        assert snap["pulls"] == 2
        assert snap["warm_pulls"] == 2

    def test_fully_cached_grid_warm_starts_through_the_first_cut(self, tmp_path):
        seeded = Runner(store=open_store(tmp_path))
        arms = arm_grid(BENCH, THRESHOLD_FAMILY)
        for arm in arms:
            seeded.run(RunConfig(benchmark=BENCH, scheme=arm))
        inner = AutoTuner(runner=Runner(store=open_store(tmp_path))).tuner_for(
            BENCH, THRESHOLD_FAMILY
        )
        # One free pull per arm satisfies the round-0 quota exactly: the
        # first elimination happens before any live traffic.
        assert inner.round == 1
        assert len(inner.alive) == math.ceil(len(arms) / 2)

    def test_merge_prefers_converged_then_most_pulls(self):
        a = {"p": {"converged": False, "pulls": 9, "incumbent": "x"}}
        b = {"p": {"converged": True, "pulls": 3, "incumbent": "y"}}
        c = {"p": {"converged": False, "pulls": 2, "incumbent": "z"},
             "q": {"converged": False, "pulls": 1, "incumbent": "w"}}
        merged = merge_autotune_snapshots([a, b, c])
        assert merged["p"]["incumbent"] == "y"  # converged beats pulls
        assert merged["q"]["incumbent"] == "w"
        assert merge_autotune_snapshots([a, c])["p"]["incumbent"] == "x"


# ----------------------------------------------------------------------
# Service integration: seeded traffic converges to the offline optimum
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def offline_best():
    best, _ = offline_search(Runner(), BENCH)
    return f"threshold:{best}"


def converge_service(*, faults=None, runner=None, extra=3):
    """Drive sequential tunable requests until the pair converges.

    Sequential submit-await (not a burst): each completion must land
    before the next proposal, which is the shape that actually explores
    the grid — a burst coalesces onto a single arm.  Returns the final
    stats and the post-convergence steady-state results.
    """
    runner = runner if runner is not None else Runner()
    config = ServiceConfig(jobs=1, autotune=True)

    async def main():
        async with SimulationService(runner, config=config, faults=faults) as svc:
            for _ in range(80):
                job = await svc.submit(RunConfig(benchmark=BENCH, scheme="spawn"))
                await job.result()
                if svc.stats().autotune[PAIR]["converged"]:
                    break
            steady = []
            for _ in range(extra):
                job = await svc.submit(RunConfig(benchmark=BENCH, scheme="spawn"))
                steady.append(await job.result())
            return svc.stats(), steady

    return asyncio.run(main())


class TestServiceConvergence:
    def test_seeded_traffic_converges_to_the_offline_best_arm(
        self, offline_best
    ):
        stats, _ = converge_service()
        snap = stats.autotune[PAIR]
        assert snap["converged"], snap
        # The tuner minimises makespan, so it lands on the Offline-Search
        # winner.
        assert snap["incumbent"] == offline_best
        assert stats.autotuned == stats.submitted
        assert_ledger_invariants(stats)

    def test_converged_steady_state_is_bit_identical_to_serial_run(
        self, offline_best
    ):
        _, steady = converge_service()
        expected = Runner().run(RunConfig(benchmark=BENCH, scheme=offline_best))
        for result in steady:
            assert result.to_dict() == expected.to_dict()

    def test_repeat_pulls_are_free_cache_hits(self):
        stats, _ = converge_service(extra=0)
        arms = len(arm_grid(BENCH, THRESHOLD_FAMILY))
        # Only the unique arms ever reach the pool; every repeat pull is
        # answered from cache (that is what makes online tuning cheap).
        assert stats.pool_runs + stats.inline == arms
        assert stats.cache_hits == stats.submitted - arms


# ----------------------------------------------------------------------
# Chaos: tuning must not bend the ledger
# ----------------------------------------------------------------------
class TestChaos:
    def test_worker_kill_during_tuning_keeps_ledger_invariants(self):
        stats, steady = converge_service(faults=FaultPlan(kill_on_dispatch=0))
        assert_ledger_invariants(stats)
        assert stats.failed == 0  # the kill was retried, not surfaced
        assert stats.autotune[PAIR]["converged"]
        serial = Runner().run(
            RunConfig(
                benchmark=BENCH,
                scheme=stats.autotune[PAIR]["incumbent"],
            )
        )
        for result in steady:
            assert result.to_dict() == serial.to_dict()

    def test_flaky_store_during_tuning_keeps_ledger_invariants(
        self, tmp_path, offline_best
    ):
        flaky = FlakyStore(open_store(tmp_path), save_errors=3, load_errors=3)
        stats, _ = converge_service(runner=Runner(store=flaky))
        assert_ledger_invariants(stats)
        assert stats.failed == 0
        snap = stats.autotune[PAIR]
        assert snap["converged"]
        assert snap["incumbent"] == offline_best


# ----------------------------------------------------------------------
# Fleet: shards tune independently, learn through the shared store
# ----------------------------------------------------------------------
class TestFleet:
    def test_fleet_aggregates_shard_tuners(self):
        async def main():
            fleet = ServiceFleet(
                config=FleetConfig(
                    shards=2,
                    service=ServiceConfig(jobs=1, autotune=True),
                ),
            )
            async with fleet:
                for request in generate_traffic(12, seed=5):
                    job = await fleet.submit(request.config())
                    await job.result()
                return fleet.stats()

        stats = asyncio.run(main())
        assert stats.aggregate.lost == 0
        merged = stats.aggregate.autotune
        assert merged  # at least one tunable pair saw traffic
        for pair, snap in merged.items():
            benchmark, family = pair.split("/")
            grid = arm_grid(benchmark, family)
            assert snap["arms"] == len(grid)
            if snap["incumbent"] is not None:
                assert snap["incumbent"] in grid

    def test_second_shard_warm_starts_from_the_shared_store(self, tmp_path):
        url = f"dir://{tmp_path}"
        first = Runner(store=open_store(tmp_path))
        tuned = AutoTuner(runner=first)
        template = RunConfig(benchmark=BENCH, scheme="spawn")
        inner = tuned.tuner_for(BENCH, THRESHOLD_FAMILY, template=template)
        while not inner.converged:
            config = tuned.rewrite(template)
            tuned.observe(config, makespan=first.run(config).makespan)
        # A fresh shard over the same store inherits the exploration.
        second = AutoTuner(runner=Runner(store=open_store(url)))
        snap = second.tuner_for(
            BENCH, THRESHOLD_FAMILY, template=template
        ).snapshot()
        assert snap["warm_pulls"] == len(arm_grid(BENCH, THRESHOLD_FAMILY))
        assert snap["round"] >= 1


# ----------------------------------------------------------------------
# Slow soaks
# ----------------------------------------------------------------------
@pytest.mark.slow
def test_zipf_soak_converges_and_matches_offline_search():
    """The acceptance scenario: seeded Zipf traffic, sequential arrivals,
    the GC-citation threshold family converges to the Offline-Search
    winner and the ledger balances to zero lost."""
    requests = generate_traffic(400, seed=11)
    runner = Runner()

    async def main():
        async with SimulationService(
            runner, config=ServiceConfig(jobs=2, autotune=True)
        ) as svc:
            for request in requests:
                job = await svc.submit(request.config())
                await job.result()
            return svc.stats()

    stats = asyncio.run(main())
    assert_ledger_invariants(stats)
    snap = stats.autotune[f"GC-citation/{THRESHOLD_FAMILY}"]
    assert snap["converged"], snap
    best, _ = offline_search(Runner(), "GC-citation")
    assert snap["incumbent"] == f"threshold:{best}"


@pytest.mark.slow
def test_soak_every_tunable_family_converges():
    """Long sequential soak: with enough traffic every tunable pair the
    Zipf matrix touches finishes its halving."""
    requests = generate_traffic(900, seed=23)
    runner = Runner()

    async def main():
        async with SimulationService(
            runner, config=ServiceConfig(jobs=2, autotune=True)
        ) as svc:
            for request in requests:
                job = await svc.submit(request.config())
                await job.result()
            return svc.stats()

    stats = asyncio.run(main())
    assert_ledger_invariants(stats)
    pairs = stats.autotune
    assert pairs, "no tunable pair saw traffic"
    converged = [pair for pair, snap in pairs.items() if snap["converged"]]
    # The head of the Zipf distribution must have converged; sparse-tail
    # pairs (a few percent of traffic) may legitimately still be mid-run.
    assert f"GC-citation/{THRESHOLD_FAMILY}" in converged
    assert f"MM-small/{THRESHOLD_FAMILY}" in converged
