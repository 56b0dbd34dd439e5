"""Differential validation of the engine against the per-event reference.

Fast layer: the naive reference components (list-based event queue,
list-ordered LRU) behave identically to their optimized counterparts on
randomized unit workloads, and every scheme produces identical traces
through the engine and :class:`~repro.check.ReferenceSimulator` on one
fixed app.

Slow layer (``-m slow``): hypothesis-generated applications from the shared
``tests.strategies`` module run through ``run_differential`` — the engine
(calendar queue with batch drains, parallel-array SMX progress with a
cached horizon, dispatch caches and child-grid templates, OrderedDict LRU)
must produce a bit-identical event stream and ``SimStats`` against the
per-event pure-Python reference.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check import ReferenceEventQueue, run_differential
from repro.check.golden import canonical_events, diff_traces
from repro.check.reference import ReferenceLRUCache, ReferenceSimulator
from repro.core.policies import SpawnPolicy
from repro.harness import schemes as sch
from repro.harness.runner import Runner
from repro.harness.sweep import offline_search
from repro.obs.tracer import Tracer
from repro.sim.config import CacheConfig, GPUConfig, small_debug_gpu
from repro.sim.engine import GPUSimulator
from repro.sim.events import EventQueue
from repro.sim.memory import SetAssociativeCache
from repro.workloads import get_benchmark

from tests.strategies import POLICIES, micro_apps, policies, rich_apps


# ---------------------------------------------------------------------------
# Fast unit equivalence
# ---------------------------------------------------------------------------
@st.composite
def queue_scripts(draw):
    """A schedule/cancel script: (time, cancel_earlier_index) pairs."""
    n = draw(st.integers(min_value=1, max_value=40))
    times = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
            min_size=n, max_size=n,
        )
    )
    cancels = draw(
        st.lists(
            st.integers(min_value=0, max_value=n - 1),
            min_size=0, max_size=n // 2, unique=True,
        )
    )
    return times, cancels


@given(script=queue_scripts())
@settings(max_examples=80, deadline=None)
def test_event_queue_matches_reference(script):
    times, cancels = script
    order = {"engine": [], "ref": []}
    queues = {"engine": EventQueue(), "ref": ReferenceEventQueue()}
    for name, queue in queues.items():
        handles = [
            queue.schedule(t, lambda n=name, i=i: order[n].append(i))
            for i, t in enumerate(times)
        ]
        for index in cancels:
            handles[index].cancel()
        queue.run()
    assert order["engine"] == order["ref"]
    assert queues["engine"].now == queues["ref"].now


@given(
    lines=st.lists(st.integers(min_value=0, max_value=300), max_size=200),
)
@settings(max_examples=80, deadline=None)
def test_lru_cache_matches_reference(lines):
    config = CacheConfig(size_bytes=4096, line_bytes=128, associativity=4)
    optimized = SetAssociativeCache(config)
    reference = ReferenceLRUCache(config)
    for line in lines:
        assert optimized.access_line(line) == reference.access_line(line)
    assert (optimized.hits, optimized.misses) == (
        reference.hits, reference.misses,
    )


def test_reference_queue_pop_and_peek():
    queue = ReferenceEventQueue()
    queue.schedule(5.0, lambda: None)
    first = queue.schedule(1.0, lambda: None)
    assert queue.peek_time() == 1.0
    assert queue.pop() is first
    assert len(queue) == 1
    assert queue.now == 1.0


def _run_traced(sim_cls, app, config, policy_factory):
    tracer = Tracer()
    sim = sim_cls(config=config, policy=policy_factory(), tracer=tracer)
    result = sim.run(app)
    return canonical_events(tracer.events()), result.stats.to_dict()


def test_fixed_app_differential_is_clean():
    app = get_benchmark("MM-small").dp(1)
    mismatch = run_differential(app, policy_factory=SpawnPolicy)
    assert mismatch is None


#: Every scheme the harness runs, plus the merge granularities outside
#: DP_SCHEMES (consolidate batch size, warp/grid aggregation).
SCHEMES = ("flat",) + sch.DP_SCHEMES + (
    "consolidate:2", "aggregate:warp", "aggregate:grid",
)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_scheme_differential_is_clean(scheme):
    """Engine and per-event reference agree event-for-event on MM-small.

    ``acs`` runs with 2 HWQs so its binding order is exercised under
    contention; ``offline`` runs its Offline-Search threshold.
    """
    bench = get_benchmark("MM-small")
    if scheme == sch.OFFLINE:
        best, _ = offline_search(Runner(), bench.name)
        scheme = f"threshold:{best}"
    spec = sch.SchemeSpec.parse(scheme)
    app = bench.flat(1) if spec.variant == "flat" else bench.dp(1)
    acs = spec.bind_policy == sch.ACS
    mismatch = run_differential(
        app,
        config=GPUConfig(num_hwq=2) if acs else None,
        policy_factory=lambda: sch.make_policy(spec, bench),
        sim_kwargs={"bind_policy": spec.bind_policy} if acs else None,
    )
    assert mismatch is None, str(mismatch)


@given(app=micro_apps(), policy_idx=st.integers(min_value=0, max_value=5))
@settings(max_examples=10, deadline=None)
def test_engine_matches_reference_on_micro_apps(app, policy_idx):
    config = small_debug_gpu()
    ref_events, ref_stats = _run_traced(
        ReferenceSimulator, app, config, POLICIES[policy_idx]
    )
    events, stats = _run_traced(GPUSimulator, app, config, POLICIES[policy_idx])
    divergence = diff_traces(ref_events, events)
    assert divergence is None, str(divergence)
    assert stats == ref_stats


# ---------------------------------------------------------------------------
# Slow hypothesis sweeps
# ---------------------------------------------------------------------------
@pytest.mark.slow
@given(
    app=micro_apps(),
    policy_idx=st.integers(min_value=0, max_value=len(POLICIES) - 1),
)
@settings(max_examples=40, deadline=None)
def test_differential_micro_apps(app, policy_idx):
    mismatch = run_differential(
        app,
        config=small_debug_gpu(),
        policy_factory=POLICIES[policy_idx],
    )
    assert mismatch is None, str(mismatch)


@pytest.mark.slow
@given(app=rich_apps(), policy_factory=policies())
@settings(max_examples=15, deadline=None)
def test_differential_rich_apps(app, policy_factory):
    mismatch = run_differential(
        app,
        config=small_debug_gpu(),
        policy_factory=policy_factory,
    )
    assert mismatch is None, str(mismatch)


@pytest.mark.slow
@given(app=micro_apps())
@settings(max_examples=10, deadline=None)
def test_reference_engine_matches_on_full_gpu(app):
    """Same sweep on the full Table II GPU (32 HWQs, 13 SMXs)."""
    mismatch = run_differential(
        app, config=GPUConfig(), policy_factory=SpawnPolicy
    )
    assert mismatch is None, str(mismatch)
