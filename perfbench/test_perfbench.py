"""Self-tests of the benchmark itself.

Run from the root of a checkout::

    python3 -m pytest perfbench/test_perfbench.py -q

They are not part of the repository's own test suite (``testpaths``
names only ``tests/``).
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import calibrate
import plan as plans
import quantiles as q
import run
from spans import Span, SpanRecorder, breakdown, self_times

run.import_program()
import drivers  # noqa: E402  (needs the program on sys.path)

NAME = re.compile(r"[A-Za-z0-9_.-]+")
BENCHMARK_JSON = run.ROOT / "BENCHMARK.json"


# -- generated requests ---------------------------------------------------

@pytest.mark.parametrize("seed", [1, 7, 123456])
def test_plans_are_deterministic_per_seed(seed):
    assert plans.cold_plan(seed, 2, 2) == plans.cold_plan(seed, 2, 2)
    assert plans.warm_plan(seed, 3) == plans.warm_plan(seed, 3)
    assert plans.service_plan(seed, 15.0) == plans.service_plan(seed, 15.0)


def test_seeds_change_the_plans():
    assert plans.cold_plan(1, 1) != plans.cold_plan(2, 1)
    assert plans.warm_plan(1, 2) != plans.warm_plan(2, 2)
    assert plans.service_plan(1, 15.0) != plans.service_plan(2, 15.0)


def test_cold_requests_never_rebuild_an_input():
    passes = plans.cold_plan(5, plans.COLD_MAX_CYCLES, passes=2)
    everything = [r for p in passes for r in p]
    built = [(r.benchmark, r.seed) for r in everything]
    assert len(built) == len(set(built))
    combos = {(b, s) for b in plans.COLD_BENCHMARKS for s in plans.COLD_SCHEMES}
    for p in passes:
        cycle = len(combos)
        for start in range(0, len(p), cycle):
            assert {(r.benchmark, r.scheme) for r in p[start:start + cycle]} == combos


def test_service_schedule_offers_a_fixed_load():
    schedule = plans.service_plan(3, 15.0)
    assert len(schedule) == plans.service_count(15.0)
    times = [r.at for r in schedule]
    assert times == sorted(times)
    assert 0.0 <= times[0] and times[-1] < 15.0
    assert {(r.benchmark, r.scheme) for r in schedule} <= set(plans.SERVICE_MATRIX)


def test_pins_cover_every_generatable_request():
    pins = drivers.load_pins()
    for workload, configs in plans.pinned_configs().items():
        assert {plans.pin_key(*c) for c in configs} <= set(pins[workload])


# -- names ----------------------------------------------------------------

def test_every_emitted_name_is_well_formed():
    names = list(run.END_TO_END) + list(run.PER_LAYER) + list(plans.WORKLOADS)
    names += [n for table in run.READS_AS.values() for n in table.values()]
    for name in names:
        assert NAME.fullmatch(name), name
    assert len(set(run.END_TO_END) | set(run.PER_LAYER)) == len(run.END_TO_END) + len(
        run.PER_LAYER
    )


def test_benchmark_json_matches_what_run_prints():
    spec = json.loads(BENCHMARK_JSON.read_text())
    assert {w["name"] for w in spec["workloads"]} == set(plans.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


# -- statistics and self-time arithmetic ---------------------------------

def test_tail_is_the_highest_percentile_with_ten_beyond():
    samples = list(range(1, 41))  # 40 samples
    tail = q.tail(samples)
    assert tail.value == 30 and tail.percentile == 75.0 and tail.beyond == 10
    assert q.tail(list(range(10))) is None
    assert q.nearest_rank(samples, 0.99) == 40


def test_p50_by_pair_is_the_geometric_mean_of_pair_medians():
    samples = [1.0, 3.0, 2.0, 8.0, 8.0, 100.0]
    pairs = ["a", "a", "a", "b", "b", "b"]
    assert q.p50_by_pair(samples, pairs) == pytest.approx(4.0)  # sqrt(2 * 8)
    assert q.p50_by_pair([], []) == 0.0


def test_normalisation_divides_times_and_multiplies_rates():
    ref = calibrate.REFERENCE_S
    assert calibrate.slowdown([]) == 1.0
    assert calibrate.slowdown([ref, ref, 9 * ref]) == pytest.approx(1.0)
    slow = calibrate.slowdown([2 * ref] * 3)
    assert slow == pytest.approx(2 ** calibrate.ELASTICITY)
    result = drivers.PassResult(
        latencies=[1.0, 2.0, 3.0], good=3, ctas=30, window_s=6.0, peak_rss_mb=5.0
    )
    metrics = run.end_to_end(result, 0.5, slow)
    assert metrics["latency_s.p50"] == pytest.approx(2.0 / slow)
    assert metrics["throughput_rps"] == pytest.approx(0.5 * slow)
    assert metrics["sim_ctas_per_s"] == pytest.approx(5.0 * slow)
    assert metrics["setup_s"] == 0.5 and metrics["peak_rss_mb"] == 5.0


def _span(id, name, start, end, parent=None, request=None):
    return Span(id, name, start, end=end, parent=parent, request=request, owner=())


def test_self_times_on_a_hand_built_tree():
    # request [0, 10]: sim.run [1, 8] holding build [1, 4] and store.save
    # [6, 7]; store.load [8.5, 9].  Unparented store.save [2, 3] from a
    # worker thread must not touch the request.
    spans = [
        _span(1, "request", 0.0, 10.0, request=1),
        _span(2, "sim.run", 1.0, 8.0, parent=1, request=1),
        _span(3, "workloads.build", 1.0, 4.0, parent=2, request=1),
        _span(4, "store.save", 6.0, 7.0, parent=2, request=1),
        _span(5, "store.load", 8.5, 9.0, parent=1, request=1),
        _span(6, "store.save", 2.0, 3.0),
    ]
    selfs = self_times(spans)
    assert selfs == {1: 2.5, 2: 3.0, 3: 3.0, 4: 1.0, 5: 0.5, 6: 1.0}
    tree = breakdown(spans)
    assert tree.layer_self_s == {"driver": 2.5, "sim": 3.0, "workloads": 3.0, "store": 1.5}
    assert tree.root_s == 10.0 and tree.max_gap_s == 0.0
    assert tree.violations == 0 and tree.ok


def test_overlapping_children_break_the_sum():
    spans = [
        _span(1, "request", 0.0, 10.0, request=1),
        _span(2, "sim.run", 1.0, 6.0, parent=1, request=1),
        _span(3, "store.save", 5.0, 7.0, parent=1, request=1),
    ]
    tree = breakdown(spans)
    assert tree.max_gap_s == pytest.approx(1.0)
    assert tree.violations == 1 and not tree.ok


# -- smoke runs -----------------------------------------------------------

@pytest.fixture
def work():
    """A temporary directory inside the checkout, removed afterwards."""
    run.WORK_ROOT.mkdir(parents=True, exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.WORK_ROOT))
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _smoke(workload, work, keep, traced):
    driver = drivers.make(workload, 1, 2.0, work)
    driver.requests = [r for r in driver.requests if keep(r)][:4]
    recorder = SpanRecorder() if traced else None
    try:
        driver.setup()
        result = run.run_pass(driver, recorder)
    finally:
        driver.teardown()
    assert result.attempted == len(driver.requests) > 0
    assert result.failures == []
    assert result.good == result.attempted
    return result, recorder


def test_cold_requests_smoke(work):
    cheap = {"GC-citation", "MM-small", "AMR"}
    result, recorder = _smoke(
        plans.COLD, work, lambda r: r.benchmark in cheap, traced=True
    )
    metrics, tree = run.per_layer(recorder, result, result)
    assert tree.ok and tree.requests == result.attempted
    # Every cold request builds its input, misses the store and saves.
    assert metrics["workloads.builds"] == result.attempted
    assert metrics["store.misses"] == result.attempted
    assert metrics["store.hits"] == 0 and metrics["store.save_s.p50"] > 0
    assert metrics["sim.ctas"] > 0


def test_traced_mode_interleaves_closed_loop_passes(work):
    cheap = {"GC-citation", "MM-small"}
    pair = [drivers.make(plans.COLD, 3, 2.0, work, i, passes=2) for i in range(2)]
    for driver in pair:
        driver.requests = [r for r in driver.requests if r.benchmark in cheap][:2]
    recorder = SpanRecorder()
    try:
        for driver in pair:
            driver.setup()
        untraced, traced = run.traced_passes(pair, recorder)
    finally:
        for driver in pair:
            driver.teardown()
    assert untraced.failures == traced.failures == []
    assert untraced.attempted == traced.attempted == 2
    # Only the traced pass's requests produced spans.
    tree = run.per_layer(recorder, traced, untraced)[1]
    assert tree.ok and tree.requests == 2


def test_warm_engine_smoke(work):
    result, _ = _smoke(
        plans.WARM, work, lambda r: r.benchmark == "SSSP-citation", traced=False
    )
    metrics = run.end_to_end(result, 1.0)
    assert set(metrics) == set(run.END_TO_END) and metrics["latency_s.p50"] > 0
    # One calibration pass before every request.
    assert len(result.calibration) == result.attempted
    assert result.p50_by_pair and len(result.pairs) == result.attempted


def test_service_open_smoke(work):
    result, recorder = _smoke(plans.SERVICE, work, lambda r: True, traced=True)
    metrics, tree = run.per_layer(recorder, result)
    assert tree.ok and metrics["obs.trace_overhead_frac"] == 0.0
    # The open loop is not normalised: no calibration runs beside it.
    assert result.calibration == [] and result.window_s > 0
    routes = sum(metrics[f"service.route.{r}"] for r in ("cached", "coalesced", "batch"))
    assert routes == result.attempted
    assert not drivers.multiprocessing.active_children()


def test_bare_directory_fails_without_a_result(work):
    bare = work / "bare"
    shutil.copytree(run.HERE, bare / "perfbench", ignore=shutil.ignore_patterns("_*"))
    shutil.copy(BENCHMARK_JSON, bare / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", plans.COLD,
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
